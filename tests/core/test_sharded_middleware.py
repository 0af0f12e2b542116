"""End-to-end sharded-NameRing behaviour through the middleware.

Thresholds are tuned down so small directories cross the split point,
then every layer above the shard store is exercised: listings (paged
and whole), per-op shard traffic, gossip convergence between nodes,
collapse after deletes + GC, fsck's I9 walker, and account teardown.
"""

import pytest

from repro.core import H2CloudFS, H2Config, H2Middleware, formatter, shards
from repro.core.namespace import Namespace, namering_key, ring_shard_key
from repro.simcloud import SwiftCluster
from repro.tools.fsck import H2Fsck

CFG = H2Config(
    sharded_rings=True,
    shard_split_threshold=8,
    shard_merge_threshold=3,
    shard_target_entries=5,
)


def sharded_fs(middlewares: int = 2) -> H2CloudFS:
    return H2CloudFS(
        SwiftCluster.fast(), account="alice", middlewares=middlewares, config=CFG
    )


def stored_nr(fs, path="/big"):
    mw = fs.middlewares[0]
    ns = mw.lookup.resolve_dir("alice", path)
    return ns, fs.store.get(namering_key(ns)).data


def populate(fs, n: int, path="/big") -> list[str]:
    fs.mkdir(path)
    names = [f"f{i:04d}" for i in range(n)]
    fs.write_many(path, [(name, b"x") for name in names])
    fs.pump()
    return names


class TestShardedLifecycle:
    def test_directory_splits_past_threshold(self):
        fs = sharded_fs()
        populate(fs, 20)
        ns, data = stored_nr(fs)
        assert formatter.is_manifest(data)
        manifest = formatter.loads_manifest(data)
        assert manifest.total_entries == 20
        loaded = shards.read_stored(fs.store, ns)
        assert sorted(loaded.ring.live_names()) == [f"f{i:04d}" for i in range(20)]

    def test_flag_off_never_splits(self):
        fs = H2CloudFS(SwiftCluster.fast(), account="alice", middlewares=1)
        populate(fs, 20)
        _, data = stored_nr(fs)
        assert not formatter.is_manifest(data)

    def test_listing_correct_and_paged(self):
        fs = sharded_fs()
        names = populate(fs, 25)
        assert fs.listdir("/big") == names
        # Page through with marker/limit; pages concatenate to the whole.
        pages, marker = [], None
        while True:
            page = fs.listdir("/big", marker=marker, limit=7)
            if not page:
                break
            pages.extend(page)
            marker = page[-1]
        assert pages == names

    def test_single_insert_touches_one_shard(self):
        fs = sharded_fs(middlewares=1)
        # 30 entries across 8 shards: one more stays below the reshard
        # point (8 * 5 target = 40), so this is the steady-state path.
        populate(fs, 30)
        ledger = fs.store.ledger
        puts_before = ledger.puts
        fs.write("/big/zz-new", b"y")
        fs.pump()
        _, data = stored_nr(fs)
        count = formatter.loads_manifest(data).shard_count
        # f: body + patch + one shard + manifest (+ patch retirement is
        # a delete, not a put) -- far fewer than one PUT per shard.
        assert ledger.puts - puts_before < 4 + count // 2

    def test_gossip_converges_across_nodes(self):
        fs = sharded_fs(middlewares=2)
        names = populate(fs, 18)
        mw0, mw1 = fs.middlewares
        fs.pump()
        for mw in (mw0, mw1):
            listing = [e.name for e in mw.list_dir("alice", "/big")]
            assert listing == names

    def test_collapse_after_deletes_and_gc(self):
        fs = sharded_fs(middlewares=1)
        names = populate(fs, 12)
        for name in names[2:]:
            fs.delete(f"/big/{name}")
        fs.pump()
        fs.gc()  # compaction strips the tombstones -> collapse to mono
        _, data = stored_nr(fs)
        assert not formatter.is_manifest(data)
        assert fs.listdir("/big") == names[:2]

    def test_gc_collapse_is_counted(self):
        fs = sharded_fs(middlewares=1)
        names = populate(fs, 12)
        for name in names[2:]:
            fs.delete(f"/big/{name}")
        fs.pump()
        fs.gc()
        collapses = fs.middlewares[0].metrics.counter("shard.collapses")
        assert collapses.value == 1

    def test_every_shard_get_is_counted(self):
        """Gossip absorb, compaction and layout-transition reads count."""
        fs = sharded_fs(middlewares=1)
        names = populate(fs, 30)
        ns = fs.middlewares[0].lookup.resolve_dir("alice", "/big")
        prefix = ring_shard_key(ns, 0, 0).rsplit("/", 1)[0] + "/"
        keys: list[str] = []
        original = fs.store.get

        def counting_get(key, *args, **kwargs):
            keys.append(key)
            return original(key, *args, **kwargs)

        fs.store.get = counting_get
        counter = fs.middlewares[0].metrics.counter("shard.shard_gets")
        before = counter.value
        fs.delete(f"/big/{names[0]}")
        fs.pump()
        assert fs.listdir("/big") == names[1:]  # compacts on use
        fs.pump()
        shard_gets = [key for key in keys if key.startswith(prefix)]
        assert shard_gets  # the compaction write-back read the shards
        assert counter.value - before == len(shard_gets)

    def test_compaction_rewrites_only_the_tombstones_shard(self):
        """Compaction on use reads and writes the deleted name's shard."""
        fs = sharded_fs(middlewares=1)
        names = populate(fs, 30)
        ns, data = stored_nr(fs)
        manifest = formatter.loads_manifest(data)
        doomed = names[7]
        target = ring_shard_key(
            ns, manifest.epoch, shards.shard_of(doomed, manifest.shard_count)
        )
        prefix = target.rsplit("/", 1)[0] + "/"
        fs.delete(f"/big/{doomed}")
        fs.pump()
        keys = []
        original = fs.store.get

        def recording_get(key, *args, **kwargs):
            keys.append(key)
            return original(key, *args, **kwargs)

        fs.store.get = recording_get
        listing = fs.listdir("/big")  # compacts on use
        fd = fs.middlewares[0].fd_cache.lookup(ns)
        assert not fd.ring.needs_compaction  # the compaction did run
        assert [key for key in keys if key.startswith(prefix)] == [target]
        assert listing == [name for name in names if name != doomed]
        loaded = shards.read_stored(fs.store, ns)
        assert loaded.ring.live_names() == listing
        assert all(doomed not in shard.children for shard in loaded.shards)

    def test_compaction_past_the_merge_threshold_collapses(self):
        fs = sharded_fs(middlewares=1)
        names = populate(fs, 12)
        for name in names[3:]:
            fs.delete(f"/big/{name}")
        fs.pump()
        assert formatter.is_manifest(stored_nr(fs)[1])  # tombstones count
        assert fs.listdir("/big") == names[:3]  # compacts: 3 <= 3 entries
        ns, data = stored_nr(fs)
        assert not formatter.is_manifest(data)
        assert formatter.loads_ring(data).live_names() == names[:3]
        assert not formatter.loads_ring(data).needs_compaction
        assert fs.listdir("/big") == names[:3]
        collapses = fs.middlewares[0].metrics.counter("shard.collapses")
        assert collapses.value == 1

    def test_reshard_reads_each_shard_once(self):
        """A reshard fetches only the shards the dirty-unit loop did not."""
        fs = sharded_fs(middlewares=1)
        populate(fs, 30)  # 8 shards; 45 entries pass 8 * 5 and reshard
        ns, data = stored_nr(fs)
        epoch = formatter.loads_manifest(data).epoch
        prefix = ring_shard_key(ns, 0, 0).rsplit("/", 1)[0] + "/"
        keys = []
        original = fs.store.get

        def recording_get(key, *args, **kwargs):
            keys.append(key)
            return original(key, *args, **kwargs)

        fs.store.get = recording_get
        counter = fs.middlewares[0].metrics.counter("shard.shard_gets")
        before = counter.value
        fs.write_many("/big", [(f"g{i:04d}", b"x") for i in range(15)])
        fs.pump()
        manifest = formatter.loads_manifest(stored_nr(fs)[1])
        assert (manifest.shard_count, manifest.epoch) == (16, epoch + 1)
        shard_gets = [key for key in keys if key.startswith(prefix)]
        assert len(shard_gets) == 8  # every old shard, each once
        assert len(set(shard_gets)) == len(shard_gets)
        assert counter.value - before == len(shard_gets)
        assert fs.listdir("/big") == sorted(
            [f"f{i:04d}" for i in range(30)] + [f"g{i:04d}" for i in range(15)]
        )

    def test_fsck_clean_and_shards_reachable(self):
        fs = sharded_fs()
        populate(fs, 20)
        report = H2Fsck(fs.middlewares[0]).check()
        assert report.clean, report.errors
        assert report.garbage == []  # shard payloads are not garbage
        assert report.stale_manifests == []

    def test_fsck_flags_missing_shard(self):
        fs = sharded_fs(middlewares=1)
        populate(fs, 20)
        ns, data = stored_nr(fs)
        manifest = formatter.loads_manifest(data)
        fs.store.delete(shards.shard_keys(ns, manifest)[0])
        report = H2Fsck(fs.middlewares[0]).check()
        assert any("I9" in err and "missing" in err for err in report.errors)

    def test_fsck_reports_stale_manifest_as_advisory(self):
        fs = sharded_fs(middlewares=1)
        populate(fs, 20)
        ns, data = stored_nr(fs)
        manifest = formatter.loads_manifest(data)
        # Age one digest: pretend the shard was rewritten after the
        # manifest flip (a torn write-back leaves exactly this state).
        bad = shards.ShardManifest(
            shard_count=manifest.shard_count,
            epoch=manifest.epoch,
            digests=(
                formatter.ShardDigest(
                    version=manifest.digests[0].version,
                    crc=manifest.digests[0].crc ^ 1,
                    entries=manifest.digests[0].entries,
                ),
            )
            + manifest.digests[1:],
        )
        fs.store.put(namering_key(ns), formatter.dumps_manifest(bad))
        report = H2Fsck(fs.middlewares[0]).check()
        assert report.clean  # advisory, not an error
        assert report.stale_manifests

    def test_gc_heals_stale_manifest(self):
        fs = sharded_fs(middlewares=1)
        populate(fs, 20)
        ns, data = stored_nr(fs)
        manifest = formatter.loads_manifest(data)
        bad = shards.ShardManifest(
            shard_count=manifest.shard_count,
            epoch=manifest.epoch,
            digests=(
                formatter.ShardDigest(
                    version=manifest.digests[0].version,
                    crc=manifest.digests[0].crc ^ 1,
                    entries=manifest.digests[0].entries,
                ),
            )
            + manifest.digests[1:],
        )
        fs.store.put(namering_key(ns), formatter.dumps_manifest(bad))
        fs.pump()
        fs.gc()
        healed = formatter.loads_manifest(fs.store.get(namering_key(ns)).data)
        assert healed.digests == manifest.digests

    def test_delete_account_removes_shard_payloads(self):
        fs = sharded_fs(middlewares=1)
        populate(fs, 20, path="/big")
        mw = fs.middlewares[0]
        mw.delete_account("alice", force=True)
        # The subtree (including /big's manifest + shard payloads) is
        # unreachable garbage now; the next GC pass sweeps all of it.
        fs.gc()
        leftover = [n for n in fs.store.names() if n.startswith("nr:")]
        assert leftover == []

    def test_unsharded_node_deletes_a_sharded_account(self):
        """Deletion follows the stored layout, not the deleting node's
        config: a sharding-off middleware drops the payloads too."""
        fs = sharded_fs(middlewares=1)
        fs.write_many("/", [(f"f{i:04d}", b"x") for i in range(12)])
        fs.pump()
        root = Namespace.root("alice")
        assert formatter.is_manifest(fs.store.get(namering_key(root)).data)
        plain = H2Middleware(7, fs.store, H2Config())
        plain.delete_account("alice", force=True)
        prefix = namering_key(root)
        assert [n for n in fs.store.names() if n.startswith(prefix)] == []

    def test_deep_tree_with_one_giant_level(self):
        fs = sharded_fs()
        fs.makedirs("/a/b")
        fs.mkdir("/a/b/huge")
        names = [f"n{i:03d}" for i in range(15)]
        fs.write_many("/a/b/huge", [(n, b"z") for n in names])
        fs.pump()
        assert fs.listdir("/a/b/huge") == names
        assert fs.read("/a/b/huge/n007") == b"z"
        report = H2Fsck(fs.middlewares[0]).check()
        assert report.clean, report.errors
