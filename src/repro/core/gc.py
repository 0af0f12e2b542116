"""Deferred deletion: the garbage collector behind fake deletion.

H2Cloud never removes data inline: RMDIR and DELETE just tombstone a
NameRing tuple (paper §3.3.3a), leaving the subtree's objects --
file bodies, directory records, NameRings -- in the store.  Something
must eventually reclaim them; the paper defers this ("we leave the
work of really removing..."), so the collector here is the natural
completion of that design: a mark-and-sweep pass over one account's
object graph, run as background maintenance.

* **mark**: walk the live tree from the account root, collecting every
  reachable object key (directory records, NameRings, file bodies);
* **sweep**: delete unreachable ``dir:``/``nr:``/``f:`` objects, except
  patch objects still referenced by a pending chain;
* **compact**: strip tombstones from stored rings when no in-flight
  rumor or dirty chain could resurrect them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simcloud.errors import ObjectNotFound
from . import formatter, shards
from .namering import KIND_DIR
from .namespace import Namespace, directory_key, file_key, namering_key


@dataclass(frozen=True)
class GCReport:
    """What one collection pass accomplished."""

    marked: int
    swept: int
    reclaimed_bytes: int
    compacted_rings: int


def collect_once(middleware) -> GCReport:
    """One cluster-wide mark-and-sweep pass, safety-gated, no pumping.

    The single-step entry point for the deterministic-simulation
    explorer: unlike ``H2CloudFS.gc`` it does *not* drain mergers or
    gossip first, so the pass runs against whatever asynchrony is in
    flight -- and the collector's own ``_safe_to_collect`` guard decides
    whether sweeping is allowed at this instant.
    """
    return GarbageCollector(middleware).collect()


class GarbageCollector:
    """Mark-and-sweep over the H2 object graph of given accounts."""

    def __init__(self, middleware, accounts: list[str] | None = None):
        self._mw = middleware
        # Marking fewer accounts than the cluster hosts would sweep the
        # others' objects, so the default scope is every account the
        # store knows about.
        if accounts is None:
            accounts = sorted(middleware.store.accounts)
        self._accounts = list(accounts)
        missing = set(self._accounts) - middleware.store.accounts
        if missing:
            raise ValueError(f"unknown accounts: {sorted(missing)}")
        if set(self._accounts) != middleware.store.accounts:
            raise ValueError(
                "GC must cover every account on the cluster "
                f"(missing {sorted(middleware.store.accounts - set(self._accounts))})"
            )

    # ------------------------------------------------------------------
    def collect(self) -> GCReport:
        """One full pass.  Runs entirely in background-accounted time."""
        mw = self._mw
        with mw.tracer.span("gc.collect", tags={"node": mw.node_id}) as span:
            report = mw.background(self._collect)
            span.tag("marked", report.marked)
            span.tag("swept", report.swept)
        metrics = mw.metrics
        metrics.counter("gc.passes").inc()
        metrics.counter("gc.swept").inc(report.swept)
        metrics.counter("gc.reclaimed_bytes").inc(report.reclaimed_bytes)
        metrics.counter("gc.compacted_rings").inc(report.compacted_rings)
        return report

    def _collect(self) -> GCReport:
        if not self._safe_to_collect():
            return GCReport(marked=0, swept=0, reclaimed_bytes=0, compacted_rings=0)
        reachable, ring_nss = self._mark()
        swept, reclaimed = self._sweep(reachable)
        compacted = self._compact(ring_nss)
        return GCReport(
            marked=len(reachable),
            swept=swept,
            reclaimed_bytes=reclaimed,
            compacted_rings=compacted,
        )

    def _safe_to_collect(self) -> bool:
        """Refuse to run while updates are still propagating."""
        network = self._mw.network
        if network is not None and network.in_flight:
            return False
        peers = network.members if network is not None else [self._mw]
        if any(peer.fd_cache.dirty_descriptors() for peer in peers):
            return False
        return self._views_current(peers)

    def _views_current(self, peers) -> bool:
        """Every cached ring view is at least as new as the stored ring.

        In-flight rumors and dirty chains are not the only propagation
        state: a peer that *missed* a rumor (message loss) holds a clean
        but stale descriptor.  Compacting a tombstone -- or sweeping the
        file body it hides -- while such a peer still shows the child as
        live would let the peer's next merge resurrect the name.  The
        sweep and compaction therefore wait until, for every child in
        every stored ring, each peer's cached copy carries an equal or
        newer tuple (anti-entropy guarantees this point is reached).
        """
        store = self._mw.store
        for peer in peers:
            for fd in peer.fd_cache.descriptors():
                if not fd.loaded:
                    continue  # never read: next use loads fresh state
                try:
                    stored = shards.read_stored(store, fd.ns).ring
                except (ObjectNotFound, formatter.FormatError):
                    continue
                for name, child in stored.children.items():
                    ours = fd.ring.children.get(name)
                    if ours is None or ours.timestamp < child.timestamp:
                        return False
        return True

    # ------------------------------------------------------------------
    def _mark(self) -> tuple[set[str], list[Namespace]]:
        store = self._mw.store
        reachable: set[str] = set()
        ring_nss: list[Namespace] = []
        for account in self._accounts:
            stack = [Namespace.root(account)]
            while stack:
                ns = stack.pop()
                dkey, rkey = directory_key(ns), namering_key(ns)
                reachable.update((dkey, rkey))
                ring_nss.append(ns)
                try:
                    loaded = shards.read_stored(store, ns)
                except ObjectNotFound:
                    continue
                if loaded.manifest is not None:
                    # The current epoch's shard payloads are live; any
                    # older epoch left by a torn reshard is garbage.
                    reachable.update(shards.shard_keys(ns, loaded.manifest))
                for child in loaded.ring.live_children():
                    if child.kind == KIND_DIR:
                        stack.append(Namespace(child.ns))
                    else:
                        reachable.add(file_key(ns, child.name))
        return reachable, ring_nss

    def _sweep(self, reachable: set[str]) -> tuple[int, int]:
        store = self._mw.store
        protected = self._protected_patches()
        swept = 0
        reclaimed = 0
        for name in sorted(store.names()):
            if not name.startswith(("dir:", "nr:", "f:", "patch:")):
                continue
            if name in reachable:
                continue
            if name.startswith("patch:") and name in protected:
                continue
            try:
                reclaimed += store.head(name).size
                store.delete(name)
                swept += 1
            except ObjectNotFound:  # pragma: no cover - racing deletes
                continue
        return swept, reclaimed

    def _protected_patches(self) -> set[str]:
        network = self._mw.network
        peers = network.members if network is not None else [self._mw]
        protected: set[str] = set()
        for peer in peers:
            for fd in peer.fd_cache.dirty_descriptors():
                protected.update(p.object_name for p in fd.chain.patches)
        return protected

    # ------------------------------------------------------------------
    def _compact(self, ring_nss: list[Namespace]) -> int:
        """Rewrite stored rings without tombstones (safe: system quiet).

        For sharded rings this is also the manifest-heal point: a
        write-back that raced an outage can leave the manifest's
        digests behind the shard payloads, so whenever the recomputed
        digests disagree with the stored manifest the manifest is
        rewritten -- even if no tombstone needed stripping.
        """
        mw = self._mw
        store = mw.store
        compacted = 0
        for ns in ring_nss:
            try:
                loaded = shards.read_stored(store, ns)
            except ObjectNotFound:
                continue
            if loaded.ring.needs_compaction:
                shards.write_stored(
                    store,
                    ns,
                    loaded.ring.compacted(),
                    mw.shard_policy,
                    loaded.manifest,
                    mw.ring_counters,
                )
                compacted += 1
            else:
                shards.heal_manifest(store, ns, loaded)
        # Caches may still hold tombstoned versions; refresh loaded rings.
        network = self._mw.network
        peers = network.members if network is not None else [self._mw]
        for peer in peers:
            for fd in peer.fd_cache.descriptors():
                if fd.loaded and fd.ring.needs_compaction and not fd.dirty:
                    fd.ring = fd.ring.compacted()
        return compacted
