"""Regression tests for the PR 5 background write-back fixes.

Two paths used to write rings to the store without merging the stored
version first, so entries the store gained from *peers* (and which the
local cache never absorbed, e.g. under message loss) could be durably
erased:

* ``_compact_in_use``'s compaction write-back (now
  ``_write_back_compacted``, read-merge-write) -- the clobber is also
  pinned as DST corpus case ``seed5-396e4dcbd98e.json`` via the
  ``tests.dst.tweaks:blind_compaction_write`` tweak;
* ``BackgroundMerger._apply``, which folded the chain into the cached
  ring and PUT the result -- now unified on ``store_ring_merged``.
"""

import pytest

from repro.core import Child, H2CloudFS, H2Config, KIND_FILE, NameRing
from repro.simcloud import MessageLoss, SwiftCluster
from repro.simcloud.errors import ObjectNotFound


def lost_gossip_pair() -> H2CloudFS:
    """Two middlewares that can only communicate through the store."""
    return H2CloudFS(
        SwiftCluster.fast(),
        account="alice",
        middlewares=2,
        message_loss=MessageLoss(1.0, seed=11),
    )


def stored_ring(mw, ns) -> NameRing:
    from repro.core import formatter
    from repro.core.namespace import namering_key

    return formatter.loads_ring(mw.store.get(namering_key(ns)).data)


class TestCompactionWriteBack:
    def build_stale_cache(self, fs):
        """mw0 caches /d with a tombstone; the store additionally holds
        ``peer-only`` (merged by mw1, never gossiped to mw0)."""
        mw0, mw1 = fs.middlewares
        mw0.mkdir("alice", "/d")
        mw0.write_file("alice", "/d/doomed", b"x")
        mw0.delete_file("alice", "/d/doomed")  # mw0's ring: tombstone
        mw1.write_file("alice", "/d/peer-only", b"y")
        ns = mw0.lookup.resolve_dir("alice", "/d")
        mw1.fd_cache.drop_clean()  # only the store still holds peer-only
        return mw0, ns

    def test_compaction_preserves_store_only_entries(self):
        fs = lost_gossip_pair()
        mw0, ns = self.build_stale_cache(fs)
        fd = mw0.fd_cache.get_or_create(ns)
        assert fd.ring.needs_compaction
        mw0.list_dir("alice", "/d")  # triggers compact-in-use
        assert not fd.ring.needs_compaction  # the compaction did run
        stored = stored_ring(mw0, ns)
        assert stored.get("peer-only") is not None  # ...without clobbering
        assert stored.get_any("doomed") is None  # tombstone really gone

    def test_write_back_never_resurrects_a_deleted_ring(self):
        """If the ring object vanished (rmdir + GC) the compaction
        write-back must not recreate it from the cache."""
        fs = lost_gossip_pair()
        mw0, ns = self.build_stale_cache(fs)
        from repro.core.namespace import namering_key

        mw0.store.delete(namering_key(ns))
        fd = mw0.fd_cache.get_or_create(ns)
        mw0._write_back_compacted(fd)
        with pytest.raises(ObjectNotFound):
            mw0.store.get(namering_key(ns))


class TestCompactionWaitsForPeerViews:
    """Compaction on use keeps a tombstone while a peer shows the name
    live: that stale view would merge the name back (paper §3.3.2;
    pinned as DST corpus case ``seed105-d38026f1ddf3.json`` via the
    ``tests.dst.tweaks:compact_past_stale_peers`` tweak)."""

    def stale_peer(self, fs):
        """mw1 loaded /d with ``doomed`` live; mw0 then deleted it and
        the rumor was lost."""
        mw0, mw1 = fs.middlewares
        mw0.mkdir("alice", "/d")
        mw0.write_file("alice", "/d/doomed", b"x")
        mw0.write_file("alice", "/d/kept", b"y")
        assert [e.name for e in mw1.list_dir("alice", "/d")] == ["doomed", "kept"]
        mw0.delete_file("alice", "/d/doomed")
        ns = mw0.lookup.resolve_dir("alice", "/d")
        return mw0.fd_cache.lookup(ns), mw1.fd_cache.lookup(ns)

    def test_refuses_while_a_peer_shows_the_name_live(self):
        fs = lost_gossip_pair()
        fd0, _ = self.stale_peer(fs)
        assert fs.middlewares[0].list_dir("alice", "/d")[0].name == "kept"
        tombstone = fd0.ring.get_any("doomed")
        assert tombstone is not None and tombstone.deleted  # kept
        fs.middlewares[1].fd_cache.drop_clean()  # the stale view is gone
        fs.middlewares[0].list_dir("alice", "/d")
        assert fd0.ring.get_any("doomed") is None  # now compacted

    def test_compacts_once_the_peer_saw_the_tombstone(self):
        fs = lost_gossip_pair()
        fd0, fd1 = self.stale_peer(fs)
        fd1.ring = fd1.ring.merge(fd0.ring)  # as if the rumor arrived
        fs.middlewares[0].list_dir("alice", "/d")
        assert fd0.ring.get_any("doomed") is None


class TestMergerUsesMergedWritePath:
    def test_apply_preserves_concurrent_store_entries(self):
        """A merge folding mw0's chain must not erase a child another
        middleware merged into the stored ring in the meantime."""
        fs = H2CloudFS(
            SwiftCluster.fast(),
            account="alice",
            middlewares=2,
            config=H2Config(auto_merge=False),
            message_loss=MessageLoss(1.0, seed=11),
        )
        mw0, mw1 = fs.middlewares
        mw0.mkdir("alice", "/d")
        mw0.merger.run_until_clean()
        ns = mw0.lookup.resolve_dir("alice", "/d")
        # mw0 has a pending (unmerged) patch...
        mw0.submit_patch(
            ns,
            [Child("local", mw0.next_timestamp(), kind=KIND_FILE)],
        )
        # ...while mw1 writes and merges a different child.
        mw1.write_file("alice", "/d/remote", b"z")
        mw1.merger.run_until_clean()
        # mw0's merge folds its chain; read-merge-write keeps "remote".
        assert mw0.merger.merge_ring(ns, foreground=True)
        stored = stored_ring(mw0, ns)
        assert stored.get("local") is not None
        assert stored.get("remote") is not None
