"""Test-only bug injections for the DST harness.

A schedule's ``tweak`` field names a ``module:function`` hook the
runner applies to the freshly built deployment before executing any
step.  The functions here deliberately break a protocol invariant so
the shrinker and the corpus round-trip can be demonstrated against a
*known* bug without shipping broken code in ``src/``.

They are addressed as ``tests.dst.tweaks:<name>``, which resolves both
under pytest and from ``python -m repro dst replay`` run at the repo
root.
"""

from __future__ import annotations


def drop_tombstones_on_store(fs) -> None:
    """Persist rings compacted: deletion tombstones never hit the store.

    This resurrects the classic CRDT mistake of treating tombstones as
    garbage too early: a peer that still holds the pre-delete child as
    *live* re-contributes it on the next merge, and with the tombstone
    gone nothing outranks it -- deleted names come back to life.  The
    model-differential oracle (V1) and view convergence (V2) catch it.
    """
    for mw in fs.middlewares:
        original = mw.store_ring

        def buggy_store_ring(fd, _original=original):
            fd.ring = fd.ring.compacted()
            _original(fd)

        mw.store_ring = buggy_store_ring


def serve_unverified_reads(fs) -> None:
    """Disable checksum verification on the read path.

    Reintroduces the pre-integrity behaviour: the store serves whatever
    bytes the first reachable replica returns, so injected corruption
    flows straight to clients (and, via repair sources, to other
    replicas).  The model-differential read check and the V6 oracle
    catch it.
    """
    fs.store.verify_reads = False


def blind_compaction_write(fs) -> None:
    """Persist in-use compactions blindly instead of read-merge-write.

    Reintroduces the pre-PR 5 ``_compact_in_use`` write-back: the
    cached compacted ring is PUT as-is.  The compaction guards prove no
    rumor or dirty chain is in flight, but not that the cache ever
    *absorbed* everything the store holds -- after total message loss a
    peer's merged children live only in the stored ring, and the blind
    PUT durably erases them.  The model-differential oracle (V1) and
    the store/cache convergence checks catch the vanished entry.
    """
    for mw in fs.middlewares:

        def blind_write_back(fd, _mw=mw):
            _mw.store_ring(fd)

        mw._write_back_compacted = blind_write_back


def leak_handoff_releases(fs) -> None:
    """Handoffs never release the old epoch's replicas.

    Reintroduces the membership bug the V7 oracle exists to catch: the
    migration window copies every partition to its new owners but the
    finalize/quiesce release pass is a no-op, so the previous epoch's
    owners keep serving copies they no longer own.  Repair and GC never
    *remove* replicas, so nothing else notices -- only the post-quiesce
    holders-equal-owners check (V7 "double-owned") exposes the leak.
    """
    membership = fs.store.membership
    membership.release_stray_replicas = lambda: 0


def strand_hinted_copies_on_release(fs) -> None:
    """Membership release treats hinted fallback copies as strays.

    Reintroduces the partition x membership edge the hint-aware
    release fix closed: when an epoch transition finalizes mid-run,
    ``release_stray_replicas`` computes the responsible set from ring
    ownership alone -- blind to the hint store -- and deletes fallback
    copies parked by sloppy-quorum writes.  If the cut that forced the
    sloppy write also severed enough owners, the hinted copy was the
    only durable replica of an acknowledged write; after heal the
    drain finds nothing to deliver and the V8 oracle reports the acked
    write lost (or V1 the vanished bytes).
    """
    store = fs.store
    membership = store.membership
    original = membership.release_stray_replicas

    def blind_release():
        hints = store.hints
        store.hints = None
        try:
            return original()
        finally:
            store.hints = hints

    membership.release_stray_replicas = blind_release


def lose_merge_updates(fs) -> None:
    """Make every second merger write-back silently drop one child.

    A deterministic "lost update" fault in the merge path: the merged
    ring is persisted minus its lexicographically last live child on
    every other write-back.  Reads on the same middleware still see the
    cached (correct) ring, so only cross-middleware checks expose it.
    """
    for mw in fs.middlewares:
        original = mw.store_ring
        state = {"count": 0}

        def buggy_store_ring(fd, _original=original, _state=state):
            _state["count"] += 1
            if _state["count"] % 2 == 0:
                live = fd.ring.live_names()
                if live:
                    fd.ring = fd.ring.without(live[-1])
            _original(fd)

        mw.store_ring = buggy_store_ring


def compact_past_stale_peers(fs) -> None:
    """Compaction on use ignores peers' stale views of the ring.

    Reintroduces the pre-fix ``_compact_in_use`` guard, which checked
    only for queued rumors and dirty peers.  A cut that keeps a merge's
    rumor from two peers leaves them a clean view with a since-deleted
    name live; the deleting node compacts the tombstone away on its
    next LIST, hinted handoff carries the compacted ring past the cut,
    and after the heal the stale live tuple merges back -- the deleted
    name resurrects (V1).
    """
    for mw in fs.middlewares:
        mw._peer_views_current = lambda fd: True
