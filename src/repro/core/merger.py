"""The Background Merger (paper §3.3.2 Phase 2 step 1, §4.5).

Submitted patches accumulate in per-ring patch chains inside each
middleware.  The merger drains a chain by (a) folding the chain
front-to-back into one "big" patch, (b) fetching the ring's stored
version, (c) running the NameRing merging algorithm, and (d) writing
the merged ring back -- after which the node has its local (eventually
consistent) version and the patch objects can be retired.

Steps (b)-(d) are ``H2Middleware.store_ring_merged``, the one
read-merge-write over the stored ring's write units
(:func:`repro.core.shards.merge_write`): a monolithic ring is one unit,
a sharded ring's dirty units are the shards holding a patched name, and
a shard whose digest matches the merger's local view is skipped -- so
draining a one-name patch against a 500k-entry directory moves one
shard's bytes, not the whole ring.

Cost accounting: when a merge runs as *background* work its store
traffic is measured and booked to ``ledger.background_us`` instead of
the foreground clock -- the paper's reported operation times cover the
client-visible path only, with merging asynchronous behind it.  The
``foreground`` flag exists for H2Cloud's write-through configuration
(one middleware, merge inline) and for the sync-vs-async ablation.
"""

from __future__ import annotations

from .descriptor import FileDescriptor
from .namespace import Namespace


class BackgroundMerger:
    """Drains patch chains into NameRings for one middleware node."""

    def __init__(self, middleware):
        self._mw = middleware
        registry = middleware.metrics
        self._merges = registry.counter("maintenance.merges")
        self._patches_applied = registry.counter("maintenance.patches_applied")
        self._single_steps = registry.counter("maintenance.merge_steps")

    @property
    def merges(self) -> int:
        return int(self._merges.value)

    @property
    def patches_applied(self) -> int:
        return int(self._patches_applied.value)

    @property
    def single_steps(self) -> int:
        return int(self._single_steps.value)

    # ------------------------------------------------------------------
    # the merge of one ring
    # ------------------------------------------------------------------
    def merge_ring(self, ns: Namespace, foreground: bool = False) -> bool:
        """Apply the pending chain for ``ns``; True if anything merged.

        Respects the §3.3.3b blocking rule: while a file stream is open
        on this middleware, merging is deferred (chains keep growing
        and drain once the stream's patch has been submitted).
        """
        if self._mw.merge_blocked:
            return False
        fd = self._mw.fd_cache.get_or_create(ns)
        if not fd.chain and fd.group is None:
            return False
        if foreground:
            if fd.group is not None:
                # An open group-commit window is pending dirty state:
                # close it (merge=False -- we fold the chain ourselves)
                # so the merge covers everything the client was acked.
                self._mw.flush_patch_group(fd, merge=False)
            self._apply(fd)
        else:

            def run() -> None:
                if fd.group is not None:
                    self._mw.flush_patch_group(fd, merge=False)
                if fd.chain:
                    self._apply(fd)

            self._mw.background(run)
        return True

    def _apply(self, fd: FileDescriptor) -> None:
        tracer = self._mw.tracer
        # Background merges run with no active span; linking to the
        # first chained patch's carried context stitches the merge (and
        # the gossip announcement it triggers) into the span tree of the
        # operation that submitted it.
        parent = None
        if tracer.current() is None and fd.chain.patches:
            parent = fd.chain.patches[0].trace
        with tracer.span(
            "merge.apply",
            tags={
                "node": self._mw.node_id,
                "ns": str(fd.ns),
                "patches": len(fd.chain),
            },
            parent=parent,
        ):
            big_patch = fd.chain.fold()
            # Read-merge-write via the same monotone path gossip uses
            # (the PR 2 clobber fix): entries the stored ring gained
            # from peers since our last load can no longer be erased by
            # a blind store_ring.  ``strict`` keeps the old outage
            # contract -- a failed GET aborts with the chain intact.
            self._mw.store_ring_merged(fd, extra=big_patch, strict=True)
            fd.loaded = True
            drained = fd.chain.clear()
            self._retire_patches(drained)
            self._merges.inc()
            self._patches_applied.inc(len(drained))
            self._mw.after_merge(fd)

    def _retire_patches(self, patches) -> None:
        """Delete applied patch objects from the store."""
        for patch in patches:
            self._mw.store.delete(patch.object_name, missing_ok=True)

    # ------------------------------------------------------------------
    # node-wide drain
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Merge exactly one dirty ring (oldest first); False if none.

        The single-step entry point the deterministic-simulation
        explorer interleaves between client operations: one background
        merge happens, every other chain keeps waiting.  Descriptor
        insertion order makes the choice reproducible.
        """
        for fd in self._mw.fd_cache.dirty_descriptors():
            if self.merge_ring(fd.ns, foreground=False):
                self._single_steps.inc()
                return True
        return False

    def run_once(self) -> int:
        """One background sweep; returns how many rings actually merged."""
        merged = 0
        for fd in self._mw.fd_cache.dirty_descriptors():
            if self.merge_ring(fd.ns, foreground=False):
                merged += 1
        return merged

    def run_until_clean(self, max_rounds: int = 64) -> int:
        """Sweep until no descriptor is dirty; returns total merges run."""
        total = 0
        for _ in range(max_rounds):
            merged = self.run_once()
            if merged == 0:
                return total
            total += merged
        raise RuntimeError("merger failed to quiesce (patch chains keep growing)")

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def recover_orphaned_patches(self) -> int:
        """Apply patch objects whose submitting middleware is gone.

        Phase 1 makes every patch durable *before* it is applied, so a
        middleware crash between submission and merge loses nothing:
        any node can later list ``patch:`` objects, reconstruct the
        updates, and merge them into the targeted NameRings.  Returns
        the number of patches recovered.  Idempotent -- the LWW merge
        absorbs re-applied patches, and recovered patch objects are
        retired like normally merged ones.
        """
        from .namespace import Namespace
        from .patch import Patch

        tracer = self._mw.tracer
        recovered = 0
        chained = {
            patch.object_name
            for fd in self._mw.fd_cache.descriptors()
            for patch in fd.chain.patches
        }
        by_ns: dict[str, list[tuple[int, int, str]]] = {}
        for name in sorted(self._mw.store.names()):
            if not name.startswith("patch:") or name in chained:
                continue
            # patch:<ns>:Node<NN>.Patch<PPPPPP>
            _, ns_uuid, tail = name.split(":", 2)
            node_part, patch_part = tail.split(".", 1)
            node_id = int(node_part.removeprefix("Node"))
            patch_seq = int(patch_part.removeprefix("Patch"))
            by_ns.setdefault(ns_uuid, []).append((node_id, patch_seq, name))
        for ns_uuid, found in by_ns.items():
            ns = Namespace(ns_uuid)
            with tracer.span(
                "merge.recover",
                tags={
                    "node": self._mw.node_id,
                    "ns": ns_uuid,
                    "patches": len(found),
                },
            ):
                fd = self._mw.fd_cache.get_or_create(ns)
                payload = None
                for node_id, patch_seq, name in sorted(found):
                    record = self._mw.store.get(name)
                    patch = Patch.from_bytes(ns, node_id, patch_seq, record.data)
                    payload = (
                        patch.payload
                        if payload is None
                        else payload.merge(patch.payload)
                    )
                    recovered += 1
                self._mw.store_ring_merged(fd, extra=payload, strict=True)
                fd.loaded = True
                for _, _, name in found:
                    self._mw.store.delete(name, missing_ok=True)
                self._mw.after_merge(fd)
        return recovered
