"""Sharded NameRings: chunk-per-object storage for giant directories.

The paper's heavy users put ~0.5M files in one directory (fig 10
sweeps to m=500k), but a monolithic ring object makes every patch
merge, gossip write-back and LIST serialize all m entries.  Past a
split threshold the directory's ``nr:`` object becomes a small
*manifest* (shard count, epoch, per-shard ``(version, crc, entries)``
digests -- :class:`~repro.core.formatter.ShardManifest`) and the child
tuples move into per-shard payload objects keyed by a hash of the
child name (:func:`~repro.core.namespace.ring_shard_key`).  A merge or
gossip exchange then touches only the shards whose digests differ.
Either way the stored ring is a :class:`Layout` of write units plus a
commit; the monolithic ring is the one-unit layout, and
:func:`merge_write` is the one read-merge-write over both.

Layout transitions (docs/PROTOCOL.md §14):

* **split** (mono -> sharded): write every shard payload first, then
  flip the ``nr:`` object from ring bytes to the manifest.  The
  manifest PUT is the commit point -- a torn split leaves the
  monolithic ring fully intact and the orphan payloads to GC.
* **collapse** (sharded -> mono): write the ring bytes over ``nr:``
  first (the commit point), then delete the payloads.
* **reshard** (grow the shard count): write the new shard set under
  ``epoch + 1`` keys, flip the manifest, delete the old epoch's
  payloads.  A torn reshard leaves the old epoch complete.

Hysteresis: ``split_threshold`` strictly above ``merge_threshold`` so
churn at the boundary cannot thrash between layouts; counts only grow
(shrink happens via collapse), so a shard's name set is stable until
the whole layout changes.

Everything here is store-level and middleware-free so the merger, GC,
fsck and the benches share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simcloud.errors import ObjectNotFound, QuorumError
from ..simcloud.object_store import ObjectStore
from . import formatter
from .formatter import ShardDigest, ShardManifest
from .namering import NameRing, name_hash
from .namespace import Namespace, namering_key, ring_shard_key

#: shard counts are powers of two in [2, MAX_SHARDS]; growth-only
MAX_SHARDS = 1024


@dataclass(frozen=True)
class ShardPolicy:
    """When to split, when to collapse, how many shards to aim for.

    Default-off: with ``enabled=False`` no ring is ever split and the
    write path is byte-identical to the monolithic layout, which is
    what keeps the committed DST corpus digests stable.
    """

    enabled: bool = False
    split_threshold: int = 1024
    merge_threshold: int = 256
    target_entries: int = 512

    def __post_init__(self) -> None:
        if self.merge_threshold >= self.split_threshold:
            raise ValueError(
                "hysteresis requires merge_threshold < split_threshold"
            )
        if self.target_entries < 1:
            raise ValueError("target_entries must be positive")

    def should_split(self, entries: int) -> bool:
        """Mono -> sharded once the tuple count reaches the threshold."""
        return self.enabled and entries >= self.split_threshold

    def should_collapse(self, entries: int) -> bool:
        """Sharded -> mono once well below the split point (hysteresis),
        or whenever sharding is off."""
        return not self.enabled or entries <= self.merge_threshold

    def desired_count(self, entries: int) -> int:
        """Power-of-two shard count aiming at ``target_entries`` each."""
        count = 2
        while count < MAX_SHARDS and entries > count * self.target_entries:
            count *= 2
        return count


def shard_of(name: str, count: int) -> int:
    """Which shard a child name lives in, for a given shard count."""
    return name_hash(name) % count


def split_ring(ring: NameRing, count: int) -> list[NameRing]:
    """Partition a ring's tuples into ``count`` per-shard rings.

    Every slot is materialized (possibly empty) because every shard
    payload is written at split time -- a manifest never lists a shard
    whose object does not exist.
    """
    buckets: list[dict] = [{} for _ in range(count)]
    for name, child in ring.children.items():
        buckets[child.name_hash % count][name] = child
    return [NameRing(children=bucket) for bucket in buckets]


def extract_shards(
    ring: NameRing, count: int, wanted: set[int]
) -> dict[int, NameRing]:
    """Per-shard rings for just the ``wanted`` slots, one O(m) pass."""
    buckets: dict[int, dict] = {k: {} for k in wanted}
    for name, child in ring.children.items():
        k = child.name_hash % count
        if k in wanted:
            buckets[k][name] = child
    return {k: NameRing(children=bucket) for k, bucket in buckets.items()}


def digest_of(shard: NameRing) -> ShardDigest:
    """The anti-entropy digest of one shard payload."""
    return ShardDigest(
        version=shard.version,
        crc=formatter.shard_crc(shard),
        entries=len(shard.children),
    )


def manifest_of(shards: list[NameRing], epoch: int) -> ShardManifest:
    return ShardManifest(
        shard_count=len(shards),
        epoch=epoch,
        digests=tuple(digest_of(s) for s in shards),
    )


# ----------------------------------------------------------------------
# stored-ring IO: a directory's ring as write units plus a commit -- the
# one reader/writer GC, fsck, the merger and the middleware all share
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Layout:
    """A directory's stored ring as write units plus a commit.

    The monolithic ring is the one-unit layout (``manifest`` None): its
    unit is the ``nr:<ns>`` object itself, with no manifest and no
    digest, and ``head`` is its ``(bytes, ring)`` as read.  A sharded
    layout's units are its epoch's payloads, committed by the manifest.
    """

    ns: Namespace
    manifest: ShardManifest | None = None
    head: tuple[bytes | None, NameRing] = (None, NameRing.empty())

    def key(self, k: int) -> str:
        if self.manifest is None:
            return namering_key(self.ns)
        return ring_shard_key(self.ns, self.manifest.epoch, k)

    def fetch(self, store: ObjectStore, ks, counters=None, fan_out=False):
        """Units ``ks``' stored ``(bytes, ring)`` by unit; absent bytes
        are None and read as an empty ring.  The one unit came with the
        layout.  ``fan_out`` sends the GETs through the store's
        connection pool; every GET is sent before the first QuorumError
        raises.  ``counters["get"]`` counts the GETs."""
        if self.manifest is None:
            return {k: self.head for k in ks}

        def get(k: int):
            try:
                return store.get(self.key(k)).data
            except ObjectNotFound:
                return None
            except QuorumError as exc:
                return exc

        thunks = [lambda k=k: get(k) for k in ks]
        outcomes = store.parallel(thunks) if fan_out else [t() for t in thunks]
        units = {}
        for k, data in zip(ks, outcomes):
            if isinstance(data, QuorumError):
                raise data
            ring = NameRing.empty() if data is None else formatter.loads_shard(data)
            units[k] = data, ring
        _bump(counters, "get", len(units))
        return units


def open_layout(store: ObjectStore, ns: Namespace) -> Layout:
    """GET the ``nr:`` object (:class:`ObjectNotFound` if missing) and
    parse what it holds: a manifest, or the one unit's ring."""
    data = store.get(namering_key(ns)).data
    if formatter.is_manifest(data):
        return Layout(ns, formatter.loads_manifest(data))
    return Layout(ns, head=(data, formatter.loads_ring(data)))


@dataclass
class StoredRing:
    """What the store holds for one directory right now.

    ``ring`` is the union view (shards are name-disjoint, so a plain
    dict union -- no arbitration needed).  ``shards`` keeps the
    per-shard rings when the layout is sharded so callers like GC's
    manifest-heal can recompute digests without a second read.
    """

    ring: NameRing
    manifest: ShardManifest | None
    shards: list[NameRing] | None = None


def read_stored(
    store: ObjectStore, ns: Namespace, fan_out: bool = False, counters=None
) -> StoredRing:
    """Read a directory's ring, seeing through the manifest if sharded.

    Raises :class:`ObjectNotFound` when the ``nr:`` object is missing,
    and lets :class:`QuorumError` / ``CorruptObjectError`` /
    :class:`~repro.core.formatter.FormatError` propagate -- callers
    keep their existing taxonomy.  A shard payload missing despite
    being listed in the manifest reads as empty (a torn split repaired
    by the next write-back; fsck reports it loudly).

    ``fan_out=True`` issues the shard GETs through the store's
    connection pool so a cold load of a giant directory costs the
    makespan, not ``k`` serial RTTs; maintenance walkers keep the
    sequential path.  ``counters["get"]`` counts the shard GETs.
    """
    layout = open_layout(store, ns)
    if layout.manifest is None:
        return StoredRing(ring=layout.head[1], manifest=None)
    units = layout.fetch(
        store, range(layout.manifest.shard_count), counters, fan_out
    )
    shards = [ring for _, ring in units.values()]
    return StoredRing(ring=_union(shards), manifest=layout.manifest, shards=shards)


def write_stored(
    store: ObjectStore,
    ns: Namespace,
    ring: NameRing,
    policy: ShardPolicy,
    stored: ShardManifest | None,
    counters=None,
) -> ShardManifest | None:
    """Full-state write of ``ring``, choosing/keeping the right layout.

    ``stored`` is the manifest the caller last read for this directory
    (None = monolithic or absent).  When the layout is already sharded
    and stays sharded at the same count, shards whose digest matches
    the stored manifest are not rewritten -- a full-state write after
    compaction of a giant directory touches only the shards that
    actually changed.  Returns the manifest now stored (None = mono).
    """
    entries = len(ring.children)
    if stored is None and not policy.should_split(entries):
        store.put(namering_key(ns), formatter.dumps_ring(ring))
        return None
    if stored is not None and policy.should_collapse(entries):
        # collapse: ring bytes over nr: commit, then drop the payloads
        store.put(namering_key(ns), formatter.dumps_ring(ring))
        _delete_shards(store, ns, stored)
        _bump(counters, "collapse")
        return None

    count = policy.desired_count(entries)
    if stored is None or count > stored.shard_count:
        # split (epoch 1) or reshard (grow, epoch + 1): the new epoch's
        # payloads first, the manifest flip commits, then the old
        # epoch's payloads go
        epoch = 1 if stored is None else stored.epoch + 1
        shards = split_ring(ring, count)
        for k, shard in enumerate(shards):
            store.put(
                ring_shard_key(ns, epoch, k), formatter.dumps_shard(shard)
            )
            _bump(counters, "put")
        manifest = manifest_of(shards, epoch=epoch)
        store.put(namering_key(ns), formatter.dumps_manifest(manifest))
        if stored is None:
            _bump(counters, "split")
        else:
            _delete_shards(store, ns, stored)
            _bump(counters, "reshard")
        return manifest

    # steady state: same count/epoch, rewrite only what changed
    shards = split_ring(ring, stored.shard_count)
    digests: list[ShardDigest] = []
    for k, shard in enumerate(shards):
        digest = digest_of(shard)
        digests.append(digest)
        if digest == stored.digests[k]:
            _bump(counters, "skip")
            continue
        store.put(
            ring_shard_key(ns, stored.epoch, k), formatter.dumps_shard(shard)
        )
        _bump(counters, "put")
    return _commit(store, ns, stored, digests)


def merge_write(
    store: ObjectStore,
    fd,
    extra: NameRing | None,
    policy: ShardPolicy,
    write_full,
    strict: bool = False,
    elide: bool = False,
    counters=None,
    compact: bool = False,
) -> None:
    """Read-merge-write descriptor ``fd``'s ring over its stored units.

    ``extra`` is merged into the cached ring once.  Each dirty unit --
    holding a name of ``extra`` or ``fd.dirty_names``; the one unit
    always -- is skipped if its local digest equals the stored one,
    else fetched and, if a shard, PUT merged unless its bytes are
    unchanged.  A reshard or collapse then fetches the units the loop
    did not.  Every fetched unit is absorbed into the cache.  Then
    the manifest commits, or ``write_full(fd)`` writes the whole ring:
    the one unit's write is its commit (skipped if ``elide`` and its
    bytes are unchanged), and so is a layout transition.  A read's
    QuorumError stops the write-back (safe: writes are monotone) or, if
    ``strict``, raises.

    ``compact`` persists a compaction on use (paper §3.3.2): each dirty
    unit is PUT compacted as well as merged, a vanished ring stays gone,
    and nothing is absorbed -- a stored unit would bring the dropped
    tombstones back into the cache.  The one unit and a transition
    write the whole stored ring merged with the cache and compacted,
    through :func:`write_stored`; ``write_full`` goes unused.
    """
    try:
        layout = open_layout(store, fd.ns)
    except ObjectNotFound:
        if compact:
            return  # the ring vanished (teardown, GC): keep it gone
        layout = Layout(fd.ns)
    except QuorumError:
        if strict:
            raise
        return
    pending = set(fd.dirty_names)
    if extra is not None:
        pending.update(extra.children)
        fd.ring = fd.ring.merge(extra)
    stored = layout.manifest
    if stored is None:
        units = [(0, fd.ring)]
    else:
        count, digests = stored.shard_count, list(stored.digests)
        dirty = {shard_of(name, count) for name in pending}
        units = sorted(extract_shards(fd.ring, count, dirty).items())
    fetched: dict[int, tuple] = {}  # each fetched unit's (bytes, ring)
    for k, local in units:
        if stored is not None and digest_of(local) == digests[k]:
            _bump(counters, "skip")
            continue
        try:
            data, ring = layout.fetch(store, [k], counters)[k]
        except QuorumError:
            if strict:
                raise
            return
        fetched[k] = data, ring
        if stored is None:
            continue  # the commit writes the one unit
        merged = local.merge(ring)
        if compact:
            merged = merged.compacted()
        payload = formatter.dumps_shard(merged)
        if payload == data:
            _bump(counters, "skip")
        else:
            store.put(layout.key(k), payload)
            _bump(counters, "put")
        digests[k] = digest_of(merged)
    transition = False
    if stored is not None:
        total = sum(digest.entries for digest in digests)
        transition = (
            policy.should_collapse(total) or policy.desired_count(total) > count
        )
    if transition:
        # A reshard or collapse rewrites every unit, so it needs the
        # stored shards the loop did not read.
        rest = [k for k in range(count) if k not in fetched]
        try:
            rest_units = layout.fetch(store, rest, counters, fan_out=True)
        except QuorumError:
            if strict:
                raise
            return
        fetched.update(rest_units)
    absorbed = [ring for data, ring in fetched.values() if data is not None]
    if absorbed and not compact:
        merged, _ = fd.ring.merge_changes(_union(absorbed))
        if merged is not fd.ring:
            fd.ring = merged
            if fd.negative:
                fd.negative.clear()
    if compact and (stored is None or transition):
        stored_ring = _union([ring for _, ring in fetched.values()])
        whole = fd.ring.merge(stored_ring).compacted()
        manifest = write_stored(store, fd.ns, whole, policy, stored, counters)
    elif stored is None:
        head = layout.head[0]
        if elide and head is not None and formatter.dumps_ring(fd.ring) == head:
            _bump(counters, "elide")
            manifest = None
        else:
            fd.layout = None
            return write_full(fd)
    elif transition:
        fd.layout = stored
        return write_full(fd)
    else:
        manifest = _commit(store, fd.ns, stored, digests)
    fd.layout = manifest
    fd.merged_version = fd.ring.version
    fd.dirty_names.difference_update(pending)


def _union(rings: list[NameRing]) -> NameRing:
    """One ring of name-disjoint units; a lone unit is used uncopied."""
    if len(rings) == 1:
        return rings[0]
    return NameRing(children={n: c for r in rings for n, c in r.children.items()})


def delete_stored(store: ObjectStore, ns: Namespace) -> None:
    """Delete a directory's ring object and any shard payloads."""
    try:
        manifest = open_layout(store, ns).manifest
    except (ObjectNotFound, formatter.FormatError):
        manifest = None  # absent or unparseable: orphan payloads go to GC
    if manifest is not None:
        _delete_shards(store, ns, manifest)
    store.delete(namering_key(ns), missing_ok=True)


def heal_manifest(
    store: ObjectStore, ns: Namespace, loaded: StoredRing
) -> None:
    """Rewrite a manifest whose digests lag its shard payloads (a
    write-back that raced an outage); the one unit has no manifest."""
    if loaded.manifest is not None:
        _commit(store, ns, loaded.manifest, map(digest_of, loaded.shards))


def _commit(
    store: ObjectStore, ns: Namespace, stored: ShardManifest, digests
) -> ShardManifest:
    """``stored``'s shards with new ``digests``, committed by a manifest
    PUT if any digest moved."""
    manifest = ShardManifest(stored.shard_count, stored.epoch, tuple(digests))
    if manifest != stored:
        store.put(namering_key(ns), formatter.dumps_manifest(manifest))
    return manifest


def shard_keys(ns: Namespace, manifest: ShardManifest) -> list[str]:
    """Every payload key the manifest's current epoch points at."""
    layout = Layout(ns, manifest)
    return [layout.key(k) for k in range(manifest.shard_count)]


def _delete_shards(
    store: ObjectStore, ns: Namespace, manifest: ShardManifest
) -> None:
    for key in shard_keys(ns, manifest):
        store.delete(key, missing_ok=True)


def _bump(counters, event: str, amount: int = 1) -> None:
    if counters is not None:
        counter = counters.get(event)
        if counter is not None:
            counter.inc(amount)
