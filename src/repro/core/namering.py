"""The NameRing: H2's per-directory child list (paper §3.1, §3.3).

A NameRing is the data structure that preserves one level of the
filesystem hierarchy inside the flat object store: for directory
``/bin`` it records the direct children ``cat, bash, nc`` as tuples
``(child_i, t_i)`` -- child name plus a creation/deletion timestamp --
optionally tagged ``Deleted`` (the paper's *fake deletion*,
§3.3.3a).

The merge algorithm (paper §3.3.2) makes the NameRing a last-writer-
wins element map, i.e. a state-based CRDT:

* a child present in both operands: the larger timestamp wins;
* a child present in one operand: it is kept;
* nothing is ever physically removed by a merge -- deletion tombstones
  ride along until :meth:`NameRing.compacted` strips them "when the
  NameRing is in use (e.g. executing operations such as MOVE and
  LIST)".

Commutativity/associativity/idempotence of :func:`merge` -- hence
convergence of the gossip protocol regardless of delivery order -- are
pinned down by property-based tests.

Equal timestamps cannot arise in a live deployment (one shared
:class:`~repro.simcloud.clock.TimestampFactory` per cluster makes every
timestamp globally unique), but merged histories from *different*
deployments, hand-built fixtures and property tests can produce them.
Arbitration must still be deterministic and order-independent, so ties
break by: deleted wins (fake deletion is sticky), then a stable
attribute key -- never "whichever operand was on the left".
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property

from ..simcloud.clock import Timestamp

KIND_FILE = "file"
KIND_DIR = "dir"


@dataclass(frozen=True)
class Child:
    """One ``(child_i, t_i)`` tuple, with the metadata H2Cloud carries.

    ``ns`` is the child directory's namespace UUID (None for files);
    ``size``/``etag`` describe file children so a names+sizes listing
    does not have to touch the file objects themselves.
    """

    name: str
    timestamp: Timestamp
    kind: str = KIND_FILE
    deleted: bool = False
    ns: str | None = None
    size: int = 0
    etag: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (KIND_FILE, KIND_DIR):
            raise ValueError(f"unknown child kind: {self.kind!r}")
        if self.kind == KIND_DIR and not self.deleted and self.ns is None:
            raise ValueError(f"directory child {self.name!r} needs a namespace")

    def tombstone(self, timestamp: Timestamp) -> "Child":
        """The fake-deletion marker that will override this tuple."""
        return replace(self, deleted=True, timestamp=timestamp)

    @cached_property
    def name_hash(self) -> int:
        """CRC-32 of the UTF-8 name -- the sharded-ring placement hash.

        A plain instance attribute after its first read (frozen
        dataclass, no ``__slots__``) because shard extraction hashes
        every child of a giant directory on each write-back.
        """
        return name_hash(self.name)


def name_hash(name: str) -> int:
    """The shard placement hash for a child name (zlib CRC-32).

    Deliberately *not* the store's CRC-32C: this one is a stdlib
    C-speed call, and the two uses (placement vs integrity) must be
    free to evolve separately.
    """
    return zlib.crc32(name.encode("utf-8"))


def _tie_key(child: Child) -> tuple:
    """Stable attribute key for timestamp-tied LWW arbitration."""
    return (child.kind, child.ns or "", child.size, child.etag)


def _wins(theirs: Child, ours: Child) -> bool:
    """Deterministic LWW arbitration: does ``theirs`` override ``ours``?

    Larger timestamp wins outright.  On a timestamp tie (impossible
    with the shared per-cluster timestamp factory, but reachable in
    synthetic histories) the tombstone wins -- a concurrent deletion
    must not lose to a same-instant insert depending on merge order --
    and a final stable attribute key breaks deleted-vs-deleted and
    live-vs-live ties.  The result is a total order per name, so merge
    stays commutative and associative even with ties present.
    """
    if theirs.timestamp != ours.timestamp:
        return theirs.timestamp > ours.timestamp
    if theirs.deleted != ours.deleted:
        return theirs.deleted
    return _tie_key(theirs) > _tie_key(ours)


@dataclass(frozen=True)
class NameRing:
    """An immutable snapshot of one directory's child list.

    Immutability keeps merging referentially transparent, which is what
    the convergence proofs (and the hypothesis tests) lean on.  All
    mutators return new rings.
    """

    children: dict[str, Child] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction / mutation (functional style)
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "NameRing":
        return cls(children={})

    def with_child(self, child: Child) -> "NameRing":
        """Insert-or-override one tuple (no timestamp arbitration --
        use :meth:`merge` when the winner is not known a priori)."""
        updated = dict(self.children)
        updated[child.name] = child
        return NameRing(children=updated)

    def without(self, name: str) -> "NameRing":
        updated = dict(self.children)
        updated.pop(name, None)
        return NameRing(children=updated)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, name: str) -> Child | None:
        """The live child of this name, or None (tombstones hidden)."""
        child = self.children.get(name)
        if child is None or child.deleted:
            return None
        return child

    def get_any(self, name: str) -> Child | None:
        """Like :meth:`get` but also returns tombstoned entries."""
        return self.children.get(name)

    def live_children(self) -> list[Child]:
        """All non-deleted tuples, alphabetically (the LIST payload).

        The sorted list is memoized on the instance (same ``__dict__``
        trick as the stats memo below) so paging through a giant
        directory doesn't re-sort m entries per LIST page.  Callers
        must treat the result as immutable.
        """
        cached = self.__dict__.get("_live_memo")
        if cached is None:
            cached = sorted(
                (c for c in self.children.values() if not c.deleted),
                key=lambda c: c.name,
            )
            self.__dict__["_live_memo"] = cached
        return cached

    def live_names(self) -> list[str]:
        """Sorted live names, memoized alongside :meth:`live_children`."""
        cached = self.__dict__.get("_live_names_memo")
        if cached is None:
            cached = [c.name for c in self.live_children()]
            self.__dict__["_live_names_memo"] = cached
        return cached

    def tombstones(self) -> list[Child]:
        return sorted(
            (c for c in self.children.values() if c.deleted),
            key=lambda c: c.name,
        )

    def _stats(self) -> tuple[Timestamp, int, int]:
        """``(version, live_count, tombstone_count)`` in one O(m) pass.

        Memoized on the frozen instance exactly like the serialization
        memo (see :func:`repro.core.formatter._memo_of`): rings are
        never mutated and no-op merges return ``self``, so the tuple is
        valid for the instance's whole lifetime.  Gossip digest
        comparison and the monotone-version guards call ``version`` /
        ``len`` in hot loops; without the memo every such touch rescans
        all m children.  :meth:`merge_changes` derives the merged ring's
        memo from its parent's and the updates, so a chain of small
        merges into a giant ring never rescans it.
        """
        cached = self.__dict__.get("_stats_memo")
        if cached is None:
            version = Timestamp.ZERO
            live = tombstones = 0
            for child in self.children.values():
                if child.deleted:
                    tombstones += 1
                else:
                    live += 1
                if child.timestamp > version:
                    version = child.timestamp
            cached = (version, live, tombstones)
            self.__dict__["_stats_memo"] = cached
        return cached

    @property
    def version(self) -> Timestamp:
        """The ring's logical version: max tuple timestamp.

        This is the ``t_k`` the gossip protocol compares to abort
        forwarding ("if the local timestamp is equal or bigger...").
        """
        return self._stats()[0]

    def __len__(self) -> int:
        return self._stats()[1]

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    # ------------------------------------------------------------------
    # the merge algorithm (paper §3.3.2)
    # ------------------------------------------------------------------
    def merge(self, other: "NameRing") -> "NameRing":
        """Merge ``other`` (a patch viewed as a virtual NameRing) into self.

        Per child: both sides present -> :func:`_wins` arbitrates (larger
        timestamp, deterministic tie-break); one side only -> inserted.
        Never removes anything.  Returns ``self`` unchanged (same
        instance) when ``other`` contributes nothing -- stable identity
        keeps the serialization memo valid across no-op merges.
        """
        return self.merge_changes(other)[0]

    def merge_changes(
        self, other: "NameRing"
    ) -> tuple["NameRing", tuple[str, ...]]:
        """:meth:`merge`, also reporting which names ``other`` changed.

        The change set is what sharded write-back needs for dirty-shard
        tracking: a gossip absorb that advanced three names must later
        touch only the shards those three names hash to.
        """
        updates: dict[str, Child] = {}
        for name, theirs in other.children.items():
            ours = self.children.get(name)
            if ours is None or (theirs != ours and _wins(theirs, ours)):
                updates[name] = theirs
        if not updates:
            return self, ()
        merged = dict(self.children)
        merged.update(updates)
        ring = NameRing(children=merged)
        stats = self.__dict__.get("_stats_memo")
        if stats is not None:
            # Carry the stats memo: an update never lowers its name's
            # timestamp, so the version is the parent's or an update's.
            version, live, tombstones = stats
            for name, theirs in updates.items():
                ours = self.children.get(name)
                if ours is not None:
                    if ours.deleted:
                        tombstones -= 1
                    else:
                        live -= 1
                if theirs.deleted:
                    tombstones += 1
                else:
                    live += 1
                if theirs.timestamp > version:
                    version = theirs.timestamp
            ring.__dict__["_stats_memo"] = (version, live, tombstones)
        return ring, tuple(updates)

    def compacted(self) -> "NameRing":
        """Physically drop tombstones -- the deferred "real" removal."""
        if not self.needs_compaction:
            return self
        return NameRing(
            children={
                name: c for name, c in self.children.items() if not c.deleted
            }
        )

    @property
    def needs_compaction(self) -> bool:
        return self._stats()[2] > 0


def merge(a: NameRing, b: NameRing) -> NameRing:
    """Symmetric module-level spelling of :meth:`NameRing.merge`."""
    return a.merge(b)


def merge_all(rings: list[NameRing]) -> NameRing:
    """Fold a patch chain into one "big" ring (paper's intra-node step)."""
    result = NameRing.empty()
    for ring in rings:
        result = result.merge(ring)
    return result
