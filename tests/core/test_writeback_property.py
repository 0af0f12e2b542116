"""Property: one read-merge-write, whatever layout the ring is stored in.

``H2Middleware.store_ring_merged`` is the write-back the merger, orphan
patch recovery, gossip absorb and anti-entropy share.  Hypothesis draws
a stored ring S, a cached ring C that agrees with S except on the dirty
names D, and a patch P, and stores S monolithic or sharded at k=2 or
k=4 (written by ``shards.write_stored`` under the middleware's own
small-threshold policy, at sizes that cross no layout boundary).  After
``store_ring_merged(fd, extra=P)`` the stored ring and the cached ring
both equal S ⊔ C ⊔ P, and the write-back GETs only the ``nr:`` object
plus each dirty shard whose local digest differs from the manifest's.

Compaction on use is the same write-back over the units that hold the
dropped tombstones T: after it the stored live view is that of S ⊔ C,
no unit it wrote holds a name of T, the cache is C compacted, and the
GETs are ``nr:`` plus each unit holding a name of T or D whose local
digest differs from the manifest's.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import H2Config, H2Middleware, formatter, shards
from repro.core.namering import Child, NameRing
from repro.core.namespace import Namespace
from repro.simcloud import SwiftCluster, Timestamp

CFG = H2Config(
    sharded_rings=True,
    shard_split_threshold=8,
    shard_merge_threshold=3,
    shard_target_entries=5,
)
# Entry counts each layout keeps under CFG's policy: below the split
# threshold stays monolithic; 8-10 entries split into 2 shards and
# 11-20 into 4, and no count in a band reshards or collapses.
BANDS = {"mono": (0, 7), "k2": (8, 10), "k4": (11, 20)}
POOL = [f"n{i:02d}" for i in range(24)]


@st.composite
def scenarios(draw):
    layout = draw(st.sampled_from(sorted(BANDS)))
    low, high = BANDS[layout]
    names = draw(st.permutations(POOL))
    size = draw(st.integers(low, high))
    stored_names = names[:size]
    fresh_names = names[size : size + draw(st.integers(0, high - size))]
    seq = iter(range(1, 10_000))

    def child(name: str) -> Child:
        return Child(
            name=name,
            timestamp=Timestamp(draw(st.integers(1, 40)), next(seq), 1),
            deleted=draw(st.booleans()),
        )

    stored = {name: child(name) for name in stored_names}
    candidates = stored_names + fresh_names
    dirty = draw(st.sets(st.sampled_from(candidates))) if candidates else set()
    cached = dict(stored)
    for name in sorted(dirty):
        if name in stored and draw(st.booleans()):
            del cached[name]  # the cache never saw the stored tuple
        else:
            cached[name] = child(name)
    patched = draw(st.sets(st.sampled_from(candidates))) if candidates else set()
    patch = {name: child(name) for name in sorted(patched)}
    return (
        NameRing(children=stored),
        NameRing(children=cached),
        dirty,
        NameRing(children=patch),
    )


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_write_back_is_the_join_on_every_layout(scenario):
    stored, cached, dirty, patch = scenario
    store = SwiftCluster.fast().store
    mw = H2Middleware(0, store, CFG)
    ns = Namespace("7.1.42")
    manifest = shards.write_stored(store, ns, stored, mw.shard_policy, None)

    fd = mw.fd_cache.get_or_create(ns)
    fd.ring = cached
    fd.loaded = True
    fd.layout = manifest
    fd.dirty_names = set(dirty)

    expected = stored.merge(cached).merge(patch)
    gets = 1  # the nr: object: the ring itself or its manifest
    if manifest is not None:
        count = manifest.shard_count
        local = cached.merge(patch)
        units = {shards.shard_of(name, count) for name in dirty | set(patch.children)}
        for k, ring in shards.extract_shards(local, count, units).items():
            if shards.digest_of(ring) != manifest.digests[k]:
                gets += 1

    gets_before = store.ledger.gets
    mw.store_ring_merged(fd, extra=patch)

    assert store.ledger.gets - gets_before == gets
    assert shards.read_stored(store, ns).ring == expected
    assert fd.ring == expected
    assert fd.dirty_names == set()


@st.composite
def compactions(draw):
    """S and a clean cache C as in :func:`scenarios`, minus the patch.

    C's tombstones are the T compaction drops.  The guards only allow
    that once the store holds no live tuple for a name of T, so S gets
    C's tombstone there.  Four names stay live everywhere, which keeps
    a sharded ring above the collapse threshold.
    """
    stored, cached, dirty, _ = draw(scenarios())
    stored, cached = dict(stored.children), dict(cached.children)
    for name in sorted(stored)[:4]:
        stored[name] = cached[name] = Child(name, stored[name].timestamp)
        dirty.discard(name)
    for name, child in cached.items():
        if child.deleted and name in stored and not stored[name].deleted:
            stored[name] = child
    return NameRing(children=stored), NameRing(children=cached), dirty


@settings(max_examples=150, deadline=None)
@given(compactions())
def test_compaction_rewrites_only_the_tombstones_units(scenario):
    stored, cached, dirty = scenario
    assume(cached.needs_compaction)
    store = SwiftCluster.fast().store
    mw = H2Middleware(0, store, CFG)
    ns = Namespace("7.1.42")
    manifest = shards.write_stored(store, ns, stored, mw.shard_policy, None)

    fd = mw.fd_cache.get_or_create(ns)
    fd.ring = cached
    fd.loaded = True
    fd.layout = manifest
    fd.dirty_names = set(dirty)

    doomed = {name for name, child in cached.children.items() if child.deleted}
    gets = 1  # the nr: object: the ring or its manifest
    if manifest is not None:
        count = manifest.shard_count
        units = {shards.shard_of(name, count) for name in doomed | dirty}
        local = cached.compacted()
        for k, ring in shards.extract_shards(local, count, units).items():
            if shards.digest_of(ring) != manifest.digests[k]:
                gets += 1

    written = []
    put = store.put

    def recording_put(key, data, *args, **kwargs):
        written.append(data)
        return put(key, data, *args, **kwargs)

    store.put = recording_put
    gets_before = store.ledger.gets
    mw._compact_in_use(fd)
    mw.merger.run_until_clean()

    assert store.ledger.gets - gets_before == gets
    loaded = shards.read_stored(store, ns)
    assert loaded.ring.live_children() == stored.merge(cached).live_children()
    for data in written:
        if formatter.is_manifest(data):
            continue
        unit = formatter.loads_shard(data) if manifest else formatter.loads_ring(data)
        assert not doomed & set(unit.children)
    assert fd.ring == cached.compacted()
    assert fd.dirty_names == set()
