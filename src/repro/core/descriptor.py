"""NameRing file descriptors and the descriptor cache (paper §4.5).

Inside an H2Middleware, "each NameRing corresponds to a unique File
Descriptor" that coordinates its submission, updating and
synchronization; descriptors live in the File Descriptor Cache.  Here
the descriptor holds the middleware's *local version* of the ring (the
not-necessarily-consistent per-node view that §3.3.2's coordination
step reconciles), its pending patch chain, and dirty/version state.

The cache is a bounded LRU; evicting a descriptor with pending patches
would lose updates, so eviction skips dirty descriptors (the background
merger flushes them, after which they become evictable).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..simcloud.clock import Timestamp
from .formatter import ShardManifest
from .namering import NameRing
from .namespace import Namespace
from .patch import PatchChain, PatchGroup


@dataclass
class FileDescriptor:
    """Per-ring state on one middleware node."""

    ns: Namespace
    ring: NameRing = field(default_factory=NameRing.empty)
    chain: PatchChain = None  # type: ignore[assignment]
    loaded: bool = False  # ring reflects a store read at least once
    merged_version: Timestamp = Timestamp.ZERO  # last version written back
    stale: bool = False  # served degraded: store unreachable on last load
    group: PatchGroup | None = None  # open group-commit window, if any
    #: names confirmed absent by a store revalidation (negative cache).
    #: Advisory only -- any write or absorbed remote state discards the
    #: affected entries, and degraded (stale) loads never populate it.
    negative: set[str] = field(default_factory=set)
    #: the shard manifest last read from (or written to) the store, or
    #: None while the stored layout is monolithic/unknown.
    layout: ShardManifest | None = None
    #: names whose cached ring entry may be ahead of the store -- the
    #: sharded write-back's dirty-shard set.  Populated by gossip
    #: absorbs, anti-entropy pulls and compaction on use (the dropped
    #: tombstones; patch contents arrive as ``extra`` instead);
    #: cleared per-name once written back.
    dirty_names: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.chain is None:
            self.chain = PatchChain(target_ns=self.ns)

    @property
    def dirty(self) -> bool:
        """True while patches are submitted but not yet merged+written.

        An open group-commit window counts: its payload has been acked
        to the client but is not yet even a patch object, so the
        descriptor must stay pinned in the cache and visible to the
        merger until the group is flushed.
        """
        return bool(self.chain) or self.group is not None

    @property
    def local_version(self) -> Timestamp:
        return self.ring.version

    def view(self) -> NameRing:
        """The node's *effective* local version: ring ⊔ pending chain.

        §3.3.2 gives each node "its local (but not necessarily
        consistent) version"; a node must see its own submitted-but-
        unmerged patches, so reads overlay the chain on the ring.
        """
        effective = self.ring
        if self.chain:
            effective = effective.merge(self.chain.fold())
        if self.group is not None:
            effective = effective.merge(self.group.payload)
        return effective


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class FileDescriptorCache:
    """Bounded LRU of :class:`FileDescriptor`, dirty entries pinned."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, FileDescriptor] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, ns: Namespace) -> bool:
        return ns.uuid in self._entries

    def lookup(self, ns: Namespace) -> FileDescriptor | None:
        """Cache probe; None on miss (caller loads from the store)."""
        fd = self._entries.get(ns.uuid)
        if fd is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(ns.uuid)
        self.stats.hits += 1
        return fd

    def peek(self, ns: Namespace) -> FileDescriptor | None:
        """Side-effect-free probe: no stats, no LRU promotion.

        For interrogations that are not client traffic -- the gossip
        digest comparison asks "do I already have this exact ring?"
        without that question counting as a cache hit or keeping the
        entry warm.
        """
        return self._entries.get(ns.uuid)

    def get_or_create(self, ns: Namespace) -> FileDescriptor:
        """The descriptor for ``ns``, creating an unloaded one on miss."""
        fd = self.lookup(ns)
        if fd is None:
            fd = FileDescriptor(ns=ns)
            self.insert(fd)
        return fd

    def insert(self, fd: FileDescriptor) -> None:
        self._entries[fd.ns.uuid] = fd
        self._entries.move_to_end(fd.ns.uuid)
        self._evict_if_needed()

    def invalidate(self, ns: Namespace) -> None:
        """Drop a (clean) descriptor; dirty ones must be flushed first."""
        fd = self._entries.get(ns.uuid)
        if fd is not None and not fd.dirty:
            del self._entries[ns.uuid]

    def purge(self, ns: Namespace) -> bool:
        """Drop a descriptor even if dirty; True if one was present.

        For namespaces that ceased to exist (account teardown): pending
        patches target a ring that will never be merged again, so
        keeping the descriptor pinned would leak it forever.
        """
        return self._entries.pop(ns.uuid, None) is not None

    def drop_clean(self) -> int:
        """Evict every clean descriptor (the benchmarks' cold-cache knob)."""
        clean = [uuid for uuid, fd in self._entries.items() if not fd.dirty]
        for uuid in clean:
            del self._entries[uuid]
        self.stats.evictions += len(clean)
        return len(clean)

    def dirty_descriptors(self) -> list[FileDescriptor]:
        """Everything with a pending patch chain (merger work list)."""
        return [fd for fd in self._entries.values() if fd.dirty]

    def descriptors(self) -> list[FileDescriptor]:
        return list(self._entries.values())

    def _evict_if_needed(self) -> None:
        if len(self._entries) <= self.capacity:
            return
        # Evict least-recently-used *clean* descriptors only.
        for uuid in list(self._entries):
            if len(self._entries) <= self.capacity:
                break
            if not self._entries[uuid].dirty:
                del self._entries[uuid]
                self.stats.evictions += 1
