"""The H2Middleware (paper §4.2): the component that embodies H2.

One middleware wraps one (conceptual) Swift proxy server.  Toward user
clients it exposes the Inbound API -- account, directory and file
operations; toward the object storage cloud it acts as a client issuing
PUT/GET/DELETE/HEAD/COPY (the Outbound API, here simply the
:class:`~repro.simcloud.object_store.ObjectStore` facade).  Internally
it wires together the modules of Figure 6: the H2 Lookup, the
Formatter, and the NameRing Maintenance module (File Descriptor Cache,
Background Merger, Gossip Arrangement).

Cost accounting convention: everything a client waits for runs on the
foreground clock; merger and gossip work is measured and booked to
``store.ledger.background_us`` (the paper reports client-visible
operation time, with NameRing maintenance asynchronous behind it).
With ``auto_merge=True`` (the write-through default used by the
benchmarks) the patch submitted by a mutation is merged inline, so the
client-visible cost of MKDIR et al. includes the merge round trip --
this is what lands H2Cloud's MKDIR in the paper's 150-200 ms band.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass, field

from ..obs.metrics import NULL_REGISTRY, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..simcloud.clock import Timestamp
from ..simcloud.errors import (
    AlreadyExists,
    DirectoryNotEmpty,
    InvalidPath,
    IsADirectory,
    NotADirectory,
    ObjectNotFound,
    PathNotFound,
    PreconditionFailed,
    QuorumError,
)
from ..simcloud.object_store import ObjectStore
from . import formatter, shards
from .descriptor import FileDescriptor, FileDescriptorCache
from .formatter import DirectoryRecord
from .gossip import GossipNetwork, Rumor
from .lookup import H2Lookup, Resolution
from .namering import KIND_DIR, KIND_FILE, Child, NameRing
from .namespace import (
    Namespace,
    NamespaceAllocator,
    directory_key,
    file_key,
    namering_key,
    parse_decorated,
    split_path,
)
from .patch import Patch, PatchCounter, PatchGroup


@dataclass(frozen=True)
class H2Config:
    """Behavioural knobs of one middleware."""

    auto_merge: bool = True  # merge each patch inline (write-through)
    compact_on_use: bool = True  # strip tombstones when a ring is used
    fd_cache_capacity: int = 4096
    degraded_reads: bool = True  # serve stale rings when the store is out
    observe: bool = True  # collect metrics (False => no-op registry)
    # --- traffic-reduction flags (docs/PERFORMANCE.md), all off by
    # default so ablation benchmarks can compare both sides and the
    # committed DST corpus digests stay byte-identical flags-off ---
    negative_cache: bool = False  # remember store-confirmed misses
    group_commit: bool = False  # coalesce same-ring patches per window
    group_commit_window_us: int = 500_000  # sim-clock group window
    gossip_digests: bool = False  # rumor coalescing + digest anti-entropy
    memoize_serialization: bool = False  # elide PUTs of byte-identical rings
    # --- sharded NameRings (docs/PROTOCOL.md §14), default-off so the
    # committed DST corpus digests stay byte-identical flags-off ---
    sharded_rings: bool = False  # split giant rings into hashed shards
    shard_split_threshold: int = 1024  # tuples before a ring splits
    shard_merge_threshold: int = 256  # tuples before shards collapse
    shard_target_entries: int = 512  # aimed-for tuples per shard

    def with_traffic_flags(self) -> "H2Config":
        """This config with every traffic-reduction mechanism enabled."""
        from dataclasses import replace

        return replace(
            self,
            negative_cache=True,
            group_commit=True,
            gossip_digests=True,
            memoize_serialization=True,
        )

    def with_sharded_rings(self) -> "H2Config":
        """This config with sharded NameRings enabled."""
        from dataclasses import replace

        return replace(self, sharded_rings=True)

    def shard_policy(self):
        """The :class:`~repro.core.shards.ShardPolicy` these knobs spell."""
        from .shards import ShardPolicy

        return ShardPolicy(
            enabled=self.sharded_rings,
            split_threshold=self.shard_split_threshold,
            merge_threshold=self.shard_merge_threshold,
            target_entries=self.shard_target_entries,
        )


@dataclass(frozen=True)
class Entry:
    """One child in a directory listing / stat result."""

    name: str
    kind: str
    size: int = 0
    etag: str = ""
    ns: str | None = None
    modified: Timestamp = Timestamp.ZERO


def observed(op_name: str, path_arg: int | None = None):
    """Instrument an Inbound API method: one span + one latency sample.

    ``path_arg`` names the positional argument (0-based, after
    ``self``) whose value is worth tagging on the span -- usually the
    path.  When both tracing and metrics are disabled the wrapper is a
    single extra call frame.
    """

    def decorate(method):
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            # Scope the store's request origin to this middleware for
            # the whole operation, so the partition matrix can judge
            # every node round-trip against *this* node's links.  Saved
            # and restored (not cleared) because operations nest --
            # e.g. COPY calling read+write through the same facade.
            store = self.store
            prev_origin = store.origin
            store.origin = self.node_id
            try:
                tracer = self.tracer
                if tracer.noop and not self.config.observe:
                    return method(self, *args, **kwargs)
                tags: dict[str, object] = {"node": self.node_id}
                if path_arg is not None and len(args) > path_arg:
                    tags["path"] = args[path_arg]
                with tracer.span(f"op.{op_name}", tags=tags):
                    return self.monitor.timed(
                        op_name, lambda: method(self, *args, **kwargs)
                    )
            finally:
                store.origin = prev_origin

        return wrapper

    return decorate


class H2Middleware:
    """One H2 proxy node: Inbound API over the flat object store."""

    def __init__(
        self,
        node_id: int,
        store: ObjectStore,
        config: H2Config | None = None,
        network: GossipNetwork | None = None,
        tracer: Tracer | None = None,
    ):
        self.node_id = node_id
        self.store = store
        self.clock = store.clock
        self.config = config or H2Config()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = MetricsRegistry() if self.config.observe else NULL_REGISTRY
        self.fd_cache = FileDescriptorCache(self.config.fd_cache_capacity)
        self.allocator = NamespaceAllocator(node_id, self.clock)
        self.patch_counter = PatchCounter(node_id)
        self.lookup = H2Lookup(self)
        # Imported here to avoid a circular import at module load.
        from .merger import BackgroundMerger
        from .monitoring import Monitor

        self.merger = BackgroundMerger(self)
        self.network = network
        if network is not None:
            network.join(self)
        self._patches_submitted = self.metrics.counter(
            "maintenance.patches_submitted"
        )
        self._degraded_serves = self.metrics.counter("degraded.serves")
        # Traffic-reduction telemetry (docs/PERFORMANCE.md).  Counters
        # never touch the sim clock, so incrementing them is always
        # digest-safe; ``traffic.revalidations`` in particular counts
        # even with every flag off (it measures the §3.2 double-GET the
        # negative cache exists to elide).
        self._negative_hits = self.metrics.counter("traffic.negative_hits")
        self._revalidations = self.metrics.counter("traffic.revalidations")
        self._group_commits = self.metrics.counter("traffic.group_commits")
        self._patches_coalesced = self.metrics.counter(
            "traffic.patches_coalesced"
        )
        self._digest_skips = self.metrics.counter("traffic.digest_skips")
        # Ring write-back telemetry (docs/PROTOCOL.md §14), GC's layout
        # transitions included; the monolithic ring is not a shard.
        self.shard_policy = self.config.shard_policy()
        self.ring_counters = {
            "split": self.metrics.counter("shard.splits"),
            "collapse": self.metrics.counter("shard.collapses"),
            "reshard": self.metrics.counter("shard.reshards"),
            "get": self.metrics.counter("shard.shard_gets"),
            "put": self.metrics.counter("shard.shard_puts"),
            "skip": self.metrics.counter("shard.shard_skips"),
            "elide": self.metrics.counter("traffic.put_elisions"),
        }
        self.monitor = Monitor(self)
        self._merge_block = 0  # §3.3.3b: >0 while a file stream is open
        # Elastic membership: the cluster epoch this middleware has
        # acted on.  Epoch changes invalidate placement-derived hints
        # (the negative cache); see observe_epoch.
        self._membership = getattr(store, "membership", None)
        self._seen_epoch = self._membership.epoch if self._membership else 0

    @property
    def patches_submitted(self) -> int:
        return int(self._patches_submitted.value)

    @property
    def degraded_serves(self) -> int:
        """Ring loads served stale during outages."""
        return int(self._degraded_serves.value)

    # ==================================================================
    # storage-facing plumbing
    # ==================================================================
    def background(self, thunk):
        """Run maintenance work off the client path; book its cost."""
        result, elapsed = self.clock.run_isolated(thunk)
        self.store.ledger.background_us += elapsed
        return result

    def load_ring(self, ns: Namespace, use_cache: bool = True) -> FileDescriptor:
        """The descriptor for ``ns``, loading the stored ring on a miss.

        **Degraded read mode**: when the ring GET exhausts its retries
        (every replica unreachable -- a :class:`QuorumError`, not a
        clean miss), the last-known ring in the FD cache is served
        flagged ``stale`` instead of failing LIST/resolve outright.
        Stale descriptors re-probe the store on every use, so freshness
        returns the moment the outage ends.
        """
        if self._membership is not None:
            self.observe_epoch(self._membership.epoch)
        fd = self.fd_cache.get_or_create(ns)
        if fd.loaded and use_cache and not fd.stale:
            return fd
        try:
            loaded = shards.read_stored(
                self.store, ns, fan_out=True, counters=self.ring_counters
            )
            stored = loaded.ring
        except ObjectNotFound:
            raise PathNotFound(f"<namespace {ns}>") from None
        except QuorumError:
            if self.config.degraded_reads and fd.loaded:
                fd.stale = True
                self._degraded_serves.inc()
                self.tracer.event(
                    "degraded.read", tags={"node": self.node_id, "ns": str(ns)}
                )
                return fd
            raise
        fd.layout = loaded.manifest
        # Merge, don't replace: local unmerged updates must survive.
        merged = fd.ring.merge(stored)
        if merged is not fd.ring:
            fd.ring = merged
            # Fresh store state arrived: drop cached misses wholesale.
            # (A no-op flag-off -- the set only fills when the negative
            # cache is enabled.)
            if fd.negative:
                fd.negative.clear()
        fd.loaded = True
        fd.stale = False
        return fd

    def store_ring(self, fd: FileDescriptor) -> None:
        """Full-state write of the cached ring, layout-aware.

        With sharding off and a monolithic layout this is the classic
        single PUT; otherwise :func:`repro.core.shards.write_stored`
        splits/collapses/reshards per policy and rewrites only the
        shards whose digest changed.
        """
        fd.layout = shards.write_stored(
            self.store,
            fd.ns,
            fd.ring,
            self.shard_policy,
            fd.layout,
            self.ring_counters,
        )
        fd.merged_version = fd.ring.version
        fd.dirty_names.clear()

    def store_ring_merged(
        self,
        fd: FileDescriptor,
        extra: NameRing | None = None,
        strict: bool = False,
    ) -> None:
        """Read-merge-write a ring whose cached view may lag the store.

        The gossip paths (rumor absorption, anti-entropy pulls) merge a
        *peer's* view into the local cache; writing that result back
        directly would clobber any children only the stored version
        knows about -- e.g. after a cache drop, an absorbed rumor would
        overwrite the stored ring with just the rumor's content, losing
        every other child durably.  Merging the stored version first
        makes the write-back monotone.

        ``extra`` -- the merger's folded patch chain -- rides through
        here so its write lands on the same monotone path, which runs
        over the stored layout's write units
        (:func:`repro.core.shards.merge_write`, docs/PROTOCOL.md §14).
        ``strict`` controls the outage contract: the gossip callers
        swallow a :class:`QuorumError` on a read (the merge stays
        cache-only and a later sweep persists it), the merger must
        *not* drain its chain on a failed read, so it propagates.
        """
        shards.merge_write(
            self.store,
            fd,
            extra,
            self.shard_policy,
            self.store_ring,
            strict=strict,
            elide=self.config.memoize_serialization,
            counters=self.ring_counters,
        )

    def submit_patch(self, ns: Namespace, entries: list[Child]) -> Patch:
        """Phase 1: PUT the patch object and chain it locally.

        With ``auto_merge`` the intra-node merge (Phase 2 step 1) runs
        inline; otherwise it waits for the Background Merger.  Either
        way the gossip announcement happens in :meth:`after_merge`.
        """
        payload = NameRing(children={c.name: c for c in entries})
        if self.config.group_commit:
            return self._submit_grouped(ns, payload)
        with self.tracer.span(
            "patch.submit", tags={"node": self.node_id, "ns": str(ns)}
        ) as span:
            patch = Patch(
                target_ns=ns,
                node_id=self.node_id,
                patch_seq=self.patch_counter.next_seq(ns),
                payload=payload,
                trace=self.tracer.current(),
            )
            span.tag("patch", patch.object_name)
            self.store.put(patch.object_name, patch.to_bytes())
            fd = self.fd_cache.get_or_create(ns)
            fd.chain.append(patch)
            if fd.negative:
                fd.negative.difference_update(payload.children)
            self._patches_submitted.inc()
            if self.config.auto_merge:
                self.merger.merge_ring(ns, foreground=True)
        return patch

    def _submit_grouped(self, ns: Namespace, payload: NameRing) -> Patch:
        """Group-commit submission: coalesce same-ring patches per window.

        The first submission in a window *opens* a group (claiming the
        patch sequence number the eventual object will carry); later
        same-ring submissions inside ``group_commit_window_us`` merge
        their payloads into it -- per-entry timestamps ride along
        unchanged, so the single flushed patch is merge-equivalent to
        the individual patches it replaced.  A submission arriving after
        the window closes flushes the old group first (client-visible:
        the patch PUT amortizes over the whole window).  The group
        counts as dirty state, so the descriptor stays pinned and the
        Background Merger flushes stragglers.
        """
        fd = self.fd_cache.get_or_create(ns)
        if fd.negative:
            fd.negative.difference_update(payload.children)
        now_us = self.clock.now_us
        if (
            fd.group is not None
            and now_us - fd.group.opened_us > self.config.group_commit_window_us
        ):
            self.flush_patch_group(fd)
        with self.tracer.span(
            "patch.submit", tags={"node": self.node_id, "ns": str(ns)}
        ) as span:
            if fd.group is None:
                fd.group = PatchGroup(
                    opened_us=now_us,
                    seq=self.patch_counter.next_seq(ns),
                    payload=payload,
                    trace=self.tracer.current(),
                )
                span.tag("group", "opened")
            else:
                fd.group.payload = fd.group.payload.merge(payload)
                fd.group.absorbed += 1
                self._patches_coalesced.inc()
                span.tag("group", "coalesced")
            self._patches_submitted.inc()
            patch = Patch(
                target_ns=ns,
                node_id=self.node_id,
                patch_seq=fd.group.seq,
                payload=payload,
                trace=self.tracer.current(),
            )
            span.tag("patch", patch.object_name)
        return patch

    def flush_patch_group(
        self, fd: FileDescriptor, merge: bool = True
    ) -> Patch | None:
        """Close an open group: one patch object PUT for the whole window.

        ``merge=False`` is the Background Merger's spelling -- it is
        about to fold the chain itself, so the inline ``auto_merge``
        follow-up would recurse.
        """
        group = fd.group
        if group is None:
            return None
        patch = Patch(
            target_ns=fd.ns,
            node_id=self.node_id,
            patch_seq=group.seq,
            payload=group.payload,
            trace=group.trace,
        )
        with self.tracer.span(
            "patch.group_flush",
            tags={
                "node": self.node_id,
                "ns": str(fd.ns),
                "absorbed": group.absorbed,
            },
            parent=group.trace,
        ) as span:
            span.tag("patch", patch.object_name)
            # PUT before popping the group: on a transient store error
            # the window stays open (and dirty), so the acked updates
            # are retried by the next flush instead of vanishing.
            self.store.put(patch.object_name, patch.to_bytes())
            fd.group = None
            fd.chain.append(patch)
            self._group_commits.inc()
        if merge and self.config.auto_merge:
            self.merger.merge_ring(fd.ns, foreground=True)
        return patch

    def flush_patch_groups(self) -> int:
        """Flush every open group (quiesce / explicit-sync entry point)."""
        flushed = 0
        for fd in self.fd_cache.descriptors():
            if fd.group is not None:
                self.flush_patch_group(fd)
                flushed += 1
        return flushed

    def after_merge(self, fd: FileDescriptor) -> None:
        """Called by the merger once a ring version is written back."""
        if self.network is not None:
            if self._membership is not None:
                self.observe_epoch(self._membership.epoch)
            self.network.announce(
                self.node_id,
                Rumor(
                    ns=fd.ns,
                    origin=self.node_id,
                    ts=fd.local_version,
                    trace=self.tracer.current(),
                    epoch=self._seen_epoch,
                ),
            )

    # ------------------------------------------------------------------
    # elastic membership (epoch-aware placement hints)
    # ------------------------------------------------------------------
    def observe_epoch(self, epoch: int) -> None:
        """Act on a cluster-membership epoch change.

        Negative-cache entries are conservative placement-era hints: an
        absence confirmed under the old epoch's replica set may be
        served from different nodes now, so every cached miss is
        dropped the first time a newer epoch is observed -- whether it
        arrived via a store access or rode in on a gossip rumor.  A
        same-or-older epoch returns immediately (one integer compare,
        so the hot path stays flat).
        """
        if epoch <= self._seen_epoch:
            return
        self._seen_epoch = epoch
        for fd in self.fd_cache.descriptors():
            if fd.negative:
                fd.negative.clear()
        if not self.tracer.noop:
            self.tracer.event(
                "membership.epoch_observed",
                tags={"node": self.node_id, "epoch": epoch},
            )

    # ------------------------------------------------------------------
    # the §3.3.3b blocking rule (used by streaming writes)
    # ------------------------------------------------------------------
    @property
    def merge_blocked(self) -> bool:
        return self._merge_block > 0

    def block_merging(self) -> None:
        self._merge_block += 1

    def unblock_merging(self) -> None:
        if self._merge_block <= 0:
            raise RuntimeError("unbalanced unblock_merging")
        self._merge_block -= 1

    def open_write(self, account: str, path: str):
        """Open an I/O stream for a (large) file write (paper §3.3.3b)."""
        from .streams import FileWriter

        return FileWriter(self, account, path)

    def next_timestamp(self) -> Timestamp:
        # One logical timestamp source per deployment keeps LWW sane:
        # the store's factory is shared by all middlewares on a cluster.
        return self.store.timestamps.next()

    # ==================================================================
    # gossip handlers (Phase 2 step 2)
    # ==================================================================
    def on_gossip(self, rumor: Rumor) -> bool:
        """Merge the origin's version of the ring; True => forward.

        Loopback avoidance: when our local version timestamp is already
        >= the rumor's, our view is at least as new -- abort forwarding.

        Invalidation rumors (account teardown) drop the local descriptor
        instead; forwarding continues only while there was something to
        drop, so the broadcast dies out once every cache is clean.
        """
        # The fetch-and-merge below hits the object store on *this*
        # node's behalf; scope the request origin so a middleware
        # partitioned from the cloud cannot absorb rumors through it.
        store = self.store
        prev_origin = store.origin
        store.origin = self.node_id
        try:
            return self._on_gossip(rumor)
        finally:
            store.origin = prev_origin

    def _on_gossip(self, rumor: Rumor) -> bool:
        if rumor.epoch > self._seen_epoch:
            # The announcer saw a newer cluster epoch than we have:
            # learn it from the rumor rather than waiting for our next
            # store access.
            self.observe_epoch(rumor.epoch)
        if rumor.invalidate:
            with self.tracer.span(
                "gossip.invalidate",
                tags={"node": self.node_id, "ns": str(rumor.ns)},
                parent=rumor.trace,
            ):
                return self.fd_cache.purge(rumor.ns)
        fd = self.fd_cache.get_or_create(rumor.ns)
        if fd.local_version >= rumor.ts:
            return False

        def absorb() -> bool:
            origin = self.network.peer(rumor.origin)
            remote = origin.local_ring_copy(rumor.ns)
            from_store = remote is None
            if from_store:
                # The origin evicted the ring after announcing; the
                # stored version is at least as new (the merger writes
                # back before announcing), so absorb from the store.
                try:
                    loaded = shards.read_stored(
                        self.store,
                        rumor.ns,
                        fan_out=True,
                        counters=self.ring_counters,
                    )
                except (ObjectNotFound, QuorumError):
                    return False  # ring gone or unreachable: rumor dies
                remote = loaded.ring
                fd.layout = loaded.manifest
            merged, changed_names = fd.ring.merge_changes(remote)
            changed = bool(changed_names)
            fd.ring = merged
            fd.loaded = True
            if changed and fd.negative:
                # Remote state arrived: cached misses may now be stale.
                fd.negative.clear()
            if changed and not from_store:
                # Track which names the peer advanced so a sharded
                # write-back touches only their shards.
                fd.dirty_names.update(changed_names)
                self.store_ring_merged(fd)
            return changed

        # Forward only if the rumor taught us something.  Comparing
        # timestamps alone livelocks: ring versions are not monotone
        # (compaction strips tombstones, which can *lower* the max child
        # timestamp), so a node could chase an unreachable ``rumor.ts``
        # and reflood the same rumor forever.  Requiring strict progress
        # bounds every rumor's life; anti-entropy backstops convergence.
        with self.tracer.span(
            "gossip.apply",
            tags={
                "node": self.node_id,
                "ns": str(rumor.ns),
                "origin": rumor.origin,
            },
            parent=rumor.trace,
        ) as span:
            changed = self.background(absorb)
            span.tag("changed", changed)
        return changed

    def local_ring_copy(self, ns: Namespace) -> NameRing | None:
        """Our local version of a ring, for a peer's gossip fetch."""
        fd = self.fd_cache.lookup(ns)
        if fd is None or not fd.loaded:
            return None
        return fd.ring

    def pull_state_from(self, source: "H2Middleware") -> int:
        """Anti-entropy: merge every loaded ring of ``source``; count changes.

        With ``gossip_digests`` on, the pull is digest-first: for each
        of the source's rings the local ``(version, crc)`` pair is
        compared (CRC-32C of the canonical wire form, memoized per ring
        instance) and only *differing* rings are actually shipped and
        merged -- the full-state transfer degenerates to a digest
        exchange when the peers already agree, which after convergence
        is almost always.
        """
        changed = 0
        store = self.store
        prev_origin = store.origin
        store.origin = self.node_id  # write-backs ride this node's links
        try:
            return self._pull_state_from(source)
        finally:
            store.origin = prev_origin

    def _pull_state_from(self, source: "H2Middleware") -> int:
        changed = 0
        with self.tracer.span(
            "gossip.anti_entropy",
            tags={"node": self.node_id, "source": source.node_id},
        ) as span:
            for src_fd in source.fd_cache.descriptors():
                if not src_fd.loaded:
                    continue
                if self.config.gossip_digests:
                    local = self.fd_cache.peek(src_fd.ns)
                    if (
                        local is not None
                        and local.loaded
                        and local.ring.version == src_fd.ring.version
                        and formatter.ring_crc(local.ring)
                        == formatter.ring_crc(src_fd.ring)
                    ):
                        self._digest_skips.inc()
                        continue
                fd = self.fd_cache.get_or_create(src_fd.ns)
                merged, changed_names = fd.ring.merge_changes(src_fd.ring)
                if changed_names:
                    fd.ring = merged
                    fd.loaded = True
                    fd.dirty_names.update(changed_names)
                    if fd.negative:
                        fd.negative.clear()
                    self.background(lambda fd=fd: self.store_ring_merged(fd))
                    changed += 1
            span.tag("refreshed", changed)
        return changed

    # ==================================================================
    # Inbound API: accounts
    # ==================================================================
    @observed("create_account")
    def create_account(self, account: str) -> Namespace:
        root = Namespace.root(account)
        if self.store.exists(directory_key(root)):
            raise AlreadyExists(f"account {account!r}")
        record = DirectoryRecord(
            name="/", ns=root.uuid, parent_ns=None, created=self.next_timestamp()
        )
        self.store.put(directory_key(root), formatter.dumps_directory(record))
        self.store.put(namering_key(root), formatter.dumps_ring(NameRing.empty()))
        self.store.accounts.add(account)
        return root

    @observed("account_exists")
    def account_exists(self, account: str) -> bool:
        return self.store.exists(directory_key(Namespace.root(account)))

    @observed("delete_account")
    def delete_account(self, account: str, force: bool = False) -> None:
        """Remove an account: its root record and ring disappear, the
        tree becomes unreachable, and GC reclaims the objects.

        Refuses to delete a non-empty account unless ``force`` -- the
        web API's guard against fat-fingered tenancy removal.
        """
        root = Namespace.root(account)
        if not self.store.exists(directory_key(root)):
            raise PathNotFound(f"<account {account}>")
        if not force:
            fd = self.load_ring(root, use_cache=False)
            if len(fd.view()) > 0:
                raise DirectoryNotEmpty(f"<account {account}>")
        # Delete by the stored layout, not this node's config: a root
        # ring sharded by another middleware drops its payloads too.
        shards.delete_stored(self.store, root)
        self.store.delete(directory_key(root), missing_ok=True)
        self.store.accounts.discard(account)
        self.fd_cache.purge(root)
        if self.network is not None:
            # Peer middlewares may hold the dead ring in their FD caches;
            # without this broadcast a later LIST on a peer would serve a
            # descriptor for an account that no longer exists.
            self.network.announce(
                self.node_id,
                Rumor(
                    ns=root,
                    origin=self.node_id,
                    ts=self.next_timestamp(),
                    invalidate=True,
                    trace=self.tracer.current(),
                ),
            )

    # ==================================================================
    # Inbound API: directory operations
    # ==================================================================
    @observed("mkdir", path_arg=1)
    def mkdir(self, account: str, path: str) -> Namespace:
        parent_ns, name = self.lookup.resolve_parent(account, path)
        parent_fd = self.load_ring(parent_ns)
        if parent_fd.view().get(name) is not None:
            raise AlreadyExists(path)
        ns = self.allocator.next()
        created = self.next_timestamp()
        record = DirectoryRecord(
            name=name, ns=ns.uuid, parent_ns=parent_ns.uuid, created=created
        )
        self.store.put(directory_key(ns), formatter.dumps_directory(record))
        self.store.put(namering_key(ns), formatter.dumps_ring(NameRing.empty()))
        self.submit_patch(
            parent_ns,
            [Child(name=name, timestamp=created, kind=KIND_DIR, ns=ns.uuid)],
        )
        return ns

    @observed("rmdir", path_arg=1)
    def rmdir(self, account: str, path: str, recursive: bool = True) -> None:
        """Fake-delete a directory: one patch to the parent ring, O(1).

        The subtree becomes unreachable immediately; physical removal
        is the garbage collector's job (paper §3.3.3a).  With
        ``recursive=False`` an emptiness check (one ring load) guards
        the operation first.
        """
        resolution = self.lookup.resolve(account, path)
        if resolution.is_root:
            raise InvalidPath(path, "cannot remove the root")
        child = resolution.child
        if child.kind != KIND_DIR:
            raise NotADirectory(path)
        if not recursive:
            target_fd = self.load_ring(Namespace(child.ns))
            if len(target_fd.view()) > 0:
                raise DirectoryNotEmpty(path)
        self.submit_patch(
            resolution.parent_ns, [child.tombstone(self.next_timestamp())]
        )

    @observed("move", path_arg=1)
    def move(self, account: str, src: str, dst: str) -> None:
        """MOVE/RENAME: two NameRing patches, O(1) in n (paper Table 1).

        For directories the namespace travels with the entry, so the
        subtree is untouched.  For files the content object is keyed by
        parent namespace, so a same-size server-side copy re-homes it.
        """
        src_res = self.lookup.resolve(account, src)
        if src_res.is_root:
            raise InvalidPath(src, "cannot move the root")
        child = src_res.child
        dst_parent_ns, dst_name = self.lookup.resolve_parent(account, dst)
        dst_parent_fd = self.load_ring(dst_parent_ns)
        if dst_parent_fd.view().get(dst_name) is not None:
            raise AlreadyExists(dst)
        if child.kind == KIND_DIR:
            self._guard_cycle(account, child, dst)
        ts = self.next_timestamp()
        if child.kind == KIND_FILE:
            # The cached tuple may predate an overwrite another
            # middleware made; the copied object's own info cannot.
            info = self.store.copy(
                file_key(src_res.parent_ns, child.name),
                file_key(dst_parent_ns, dst_name),
            )
            moved = Child(
                name=dst_name,
                timestamp=ts,
                kind=KIND_FILE,
                size=info.size,
                etag=info.etag,
            )
        else:
            record = DirectoryRecord(
                name=dst_name,
                ns=child.ns,
                parent_ns=dst_parent_ns.uuid,
                created=ts,
            )
            self.store.put(
                directory_key(Namespace(child.ns)),
                formatter.dumps_directory(record),
            )
            moved = Child(
                name=dst_name, timestamp=ts, kind=KIND_DIR, ns=child.ns
            )
        if dst_parent_ns == src_res.parent_ns:
            # RENAME: one ring, one patch carrying tombstone + insert.
            self.submit_patch(
                src_res.parent_ns, [child.tombstone(ts), moved]
            )
        else:
            self.submit_patch(src_res.parent_ns, [child.tombstone(ts)])
            self.submit_patch(dst_parent_ns, [moved])

    def rename(self, account: str, src: str, dst: str) -> None:
        """RENAME "is in fact a special case of MOVE" (paper §5.3)."""
        self.move(account, src, dst)

    def _guard_cycle(self, account: str, src_child: Child, dst: str) -> None:
        """Refuse to move a directory underneath itself."""
        parent_path = "/" + "/".join(split_path(dst)[:-1])
        if parent_path == "/":
            return
        resolution = self.lookup.resolve(account, parent_path)
        ancestor_uuids = {ns.uuid for ns in resolution.ns_chain}
        if resolution.child is not None and resolution.child.ns:
            ancestor_uuids.add(resolution.child.ns)
        if src_child.ns in ancestor_uuids:
            raise InvalidPath(dst, "destination is inside the moved directory")

    @observed("list", path_arg=1)
    def list_dir(
        self,
        account: str,
        path: str,
        detailed: bool = False,
        marker: str | None = None,
        limit: int | None = None,
    ) -> list[Entry]:
        """LIST: O(1) ring fetch for names, +O(m) HEADs for details.

        ``marker``/``limit`` paginate like Swift's container listings:
        entries strictly after ``marker``, at most ``limit`` of them.
        The ring is fetched whole (one object, or the manifest plus its
        shard payloads when the directory is sharded); the sorted live
        view is memoized per ring instance, so paging through a giant
        directory re-sorts nothing -- each page is a binary search plus
        a slice, and pagination bounds the detailed HEAD fan-out.
        """
        dir_ns = self.lookup.resolve_dir(account, path)
        fd = self.load_ring(dir_ns)
        self._compact_in_use(fd)
        view = fd.view()
        children = view.live_children()
        start = 0
        if marker is not None:
            start = bisect_right(view.live_names(), marker)
        if limit is not None:
            if limit < 0:
                raise InvalidPath(path, "limit must be >= 0")
            children = children[start : start + limit]
        elif start:
            children = children[start:]
        if not detailed:
            return [
                Entry(
                    name=c.name,
                    kind=c.kind,
                    size=c.size,
                    etag=c.etag,
                    ns=c.ns,
                    modified=c.timestamp,
                )
                for c in children
            ]

        def head_of(child: Child):
            if child.kind == KIND_DIR:
                key = directory_key(Namespace(child.ns))
            else:
                key = file_key(dir_ns, child.name)
            try:
                return self.store.head(key)
            except ObjectNotFound:
                return None

        infos = self.store.parallel([lambda c=c: head_of(c) for c in children])
        entries = []
        for child, info in zip(children, infos):
            entries.append(
                Entry(
                    name=child.name,
                    kind=child.kind,
                    size=info.size if info and child.kind == KIND_FILE else child.size,
                    etag=info.etag if info and child.kind == KIND_FILE else child.etag,
                    ns=child.ns,
                    modified=child.timestamp,
                )
            )
        return entries

    @observed("usage", path_arg=1)
    def usage(self, account: str, path: str = "/") -> tuple[int, int, int]:
        """(directories, files, logical bytes) under ``path``.

        File sizes ride in the NameRing tuples, so `du` walks only the
        ring objects -- O(directories), never touching file content.
        """
        dir_ns = self.lookup.resolve_dir(account, path)
        dirs = files = nbytes = 0
        stack = [dir_ns]
        while stack:
            ns = stack.pop()
            fd = self.load_ring(ns)
            for child in fd.view().live_children():
                if child.kind == KIND_DIR:
                    dirs += 1
                    stack.append(Namespace(child.ns))
                else:
                    files += 1
                    nbytes += child.size
        return dirs, files, nbytes

    @observed("copy", path_arg=1)
    def copy(self, account: str, src: str, dst: str) -> int:
        """COPY: O(n) object copies; returns the number of objects copied.

        Directories get fresh namespaces (a copy is a new subtree);
        file bodies move with server-side COPY over the data lanes.
        """
        src_res = self.lookup.resolve(account, src)
        dst_parent_ns, dst_name = self.lookup.resolve_parent(account, dst)
        dst_parent_fd = self.load_ring(dst_parent_ns)
        if dst_parent_fd.view().get(dst_name) is not None:
            raise AlreadyExists(dst)
        ts = self.next_timestamp()
        if src_res.child is not None and src_res.child.kind == KIND_FILE:
            info = self.store.copy(
                file_key(src_res.parent_ns, src_res.child.name),
                file_key(dst_parent_ns, dst_name),
            )
            self.submit_patch(
                dst_parent_ns,
                [
                    Child(
                        name=dst_name,
                        timestamp=ts,
                        kind=KIND_FILE,
                        size=info.size,
                        etag=info.etag,
                    )
                ],
            )
            return 1
        if src_res.is_root:
            raise InvalidPath(src, "cannot copy the root onto a child")
        copied = self._copy_tree(src_res.dir_ns, dst_parent_ns, dst_name, ts)
        return copied

    def _copy_tree(
        self,
        src_ns: Namespace,
        dst_parent_ns: Namespace,
        dst_name: str,
        ts: Timestamp,
    ) -> int:
        new_ns = self.allocator.next()
        record = DirectoryRecord(
            name=dst_name, ns=new_ns.uuid, parent_ns=dst_parent_ns.uuid, created=ts
        )
        self.store.put(directory_key(new_ns), formatter.dumps_directory(record))
        src_fd = self.load_ring(src_ns)
        children = src_fd.view().live_children()
        files: list[str] = []
        copied = 1  # the directory record itself
        for child in children:
            if child.kind == KIND_FILE:
                files.append(child.name)
            else:
                copied += self._copy_tree(
                    Namespace(child.ns), new_ns, child.name, ts
                )
                # _copy_tree patched new_ns's ring via submit_patch below;
                # fetch the allocated namespace from our own ring instead
                # of tracking return values: simpler to re-read after.
        new_children: dict[str, Child] = {}
        if files:
            infos = self.store.parallel(
                [
                    lambda n=name: self.store.copy(
                        file_key(src_ns, n), file_key(new_ns, n)
                    )
                    for name in files
                ],
                lanes=self.store.latency.data_concurrency,
            )
            # Size and etag come from the copied objects, not from the
            # source ring's tuples, which may be stale.
            for name, info in zip(files, infos):
                new_children[name] = Child(
                    name=name,
                    timestamp=ts,
                    kind=KIND_FILE,
                    size=info.size,
                    etag=info.etag,
                )
            copied += len(files)
        # Write the new ring in one shot: a fresh subtree has no
        # concurrent writers, so a direct PUT (not a patch per child)
        # is both faithful and O(1) in ring round trips.
        new_fd = self.fd_cache.get_or_create(new_ns)
        new_fd.ring = new_fd.ring.merge(NameRing(children=new_children))
        new_fd.loaded = True
        self.store_ring(new_fd)
        self.submit_patch(
            dst_parent_ns,
            [Child(name=dst_name, timestamp=ts, kind=KIND_DIR, ns=new_ns.uuid)],
        )
        return copied

    def _compact_in_use(self, fd: FileDescriptor) -> None:
        """Paper §3.3.2: really remove Deleted tuples when the ring is used.

        Guarded so compaction never races an in-flight rumor or a dirty
        chain that still references the ring (resurrection hazard).
        """
        if not self.config.compact_on_use or not fd.ring.needs_compaction:
            return
        if fd.stale:
            # Degraded serve: the store is unreachable for this ring, so
            # the write-back would fail (and the view may lag anyway).
            return
        if self.network is not None:
            if not self.network.quiet_for(fd.ns):
                return
            for peer in self.network.members:
                peer_fd = peer.fd_cache.lookup(fd.ns)
                if peer is not self and peer_fd is not None and peer_fd.dirty:
                    return
            if not self._peer_views_current(fd):
                return
        if fd.dirty:
            return
        # The store still holds the dropped tombstones: their units are
        # what the write-back rewrites.
        fd.dirty_names.update(
            name for name, child in fd.ring.children.items() if child.deleted
        )
        fd.ring = fd.ring.compacted()
        self.background(lambda: self._write_back_compacted(fd))

    def _peer_views_current(self, fd: FileDescriptor) -> bool:
        """No peer's loaded view holds an older tuple for a tombstone.

        Paper §3.3.2 drops a tombstone only once gossip has shown every
        node the delete.  A peer that missed the rumor (a cut kept it
        away, or gossip lost it) holds a clean but stale view with the
        name live; dropping the tombstone would let that view, merged
        back after the heal, resurrect the name -- a hinted
        sloppy-quorum write can carry the compacted ring past the cut.  GC refuses to
        compact on the same condition store-wide
        (``GarbageCollector._views_current``); this is its in-memory
        check for one ring.
        """
        tombstones = fd.ring.tombstones()
        for peer in self.network.members:
            peer_fd = peer.fd_cache.lookup(fd.ns)
            if peer is self or peer_fd is None or not peer_fd.loaded:
                continue
            for tomb in tombstones:
                theirs = peer_fd.ring.children.get(tomb.name)
                if theirs is not None and theirs.timestamp < tomb.timestamp:
                    return False
        return True

    def _write_back_compacted(self, fd: FileDescriptor) -> None:
        """Persist a compaction without clobbering unseen stored entries.

        The guards in :meth:`_compact_in_use` prove no rumor or dirty
        chain is *in flight*, but they cannot prove the cached ring ever
        *saw* everything the store holds: after message loss, a peer's
        merge may have landed children in the stored ring that this
        node's cache never absorbed.  Blindly PUTting the cached
        compacted ring would durably erase them (the DST corpus case
        pinned by ``tests.dst.tweaks:blind_compaction_write``).  So the
        write-back is read-merge-write like every other background
        write, over the units that hold the dropped tombstones: each is
        merged with its stored copy, compacted and PUT if its bytes
        changed (:func:`repro.core.shards.merge_write`).  The cached
        ring stays as the guards left it -- the served view is
        unchanged either way.
        """
        shards.merge_write(
            self.store,
            fd,
            extra=None,
            policy=self.shard_policy,
            write_full=None,
            strict=True,
            counters=self.ring_counters,
            compact=True,
        )

    # ==================================================================
    # Inbound API: file content operations
    # ==================================================================
    @observed("write", path_arg=1)
    def write_file(
        self, account: str, path: str, data: bytes, if_match: str | None = None
    ) -> Child:
        """WRITE: stream the object, then patch the parent ring.

        Ordering is the paper's §3.3.3b blocking rule: the patch is not
        submitted until the object is fully written, so a ring never
        references bytes that are not durably stored.

        ``if_match`` enables optimistic concurrency for sync clients:
        the write only proceeds if the current entry's etag matches
        (pass ``""`` to require the file not to exist yet).  On
        mismatch :class:`PreconditionFailed` is raised and nothing is
        stored -- the caller re-reads, reconciles, and retries.
        """
        parent_ns, name = self.lookup.resolve_parent(account, path)
        parent_fd = self.load_ring(parent_ns)
        existing = parent_fd.view().get(name)
        if existing is not None and existing.kind == KIND_DIR:
            raise IsADirectory(path)
        if if_match is not None:
            actual = existing.etag if existing is not None else ""
            if actual != if_match:
                raise PreconditionFailed(path, if_match, actual)
        info = self.store.put(
            file_key(parent_ns, name), data, meta={"account": account}
        )
        child = Child(
            name=name,
            timestamp=self.next_timestamp(),
            kind=KIND_FILE,
            size=info.size,
            etag=info.etag,
        )
        self.submit_patch(parent_ns, [child])
        return child

    @observed("write_many", path_arg=1)
    def write_files(
        self, account: str, dir_path: str, items: list[tuple[str, object]]
    ) -> list[Child]:
        """Bulk WRITE: many files into one directory, one patch.

        The protocol allows a patch to carry any number of tuples, so a
        bulk loader (migration, initial sync) streams every object over
        the data lanes and then submits a single patch -- n object PUTs
        plus O(1) ring round trips, instead of n full patch cycles.
        Ordering still honours §3.3.3b: content first, ring second.
        """
        dir_ns = self.lookup.resolve_dir(account, dir_path)
        dir_fd = self.load_ring(dir_ns)
        for name, _ in items:
            existing = dir_fd.view().get(name)
            if existing is not None and existing.kind == KIND_DIR:
                raise IsADirectory(f"{dir_path.rstrip('/')}/{name}")
        infos = self.store.parallel(
            [
                lambda n=name, d=data: self.store.put(
                    file_key(dir_ns, n), d, meta={"account": account}
                )
                for name, data in items
            ],
            lanes=self.store.latency.data_concurrency,
        )
        children = [
            Child(
                name=name,
                timestamp=self.next_timestamp(),
                kind=KIND_FILE,
                size=info.size,
                etag=info.etag,
            )
            for (name, _), info in zip(items, infos)
        ]
        if children:
            self.submit_patch(dir_ns, children)
        return children

    @observed("read", path_arg=1)
    def read_file(self, account: str, path: str) -> bytes:
        """Regular (full-path) file access: O(d) walk then one GET."""
        resolution = self.lookup.resolve(account, path)
        child = resolution.child
        if child is None or child.kind != KIND_FILE:
            raise IsADirectory(path)
        return self.store.get(file_key(resolution.parent_ns, child.name)).data

    @observed("read_range", path_arg=1)
    def read_file_range(
        self, account: str, path: str, offset: int, length: int
    ):
        """Ranged READ: resolve once, transfer only the window."""
        resolution = self.lookup.resolve(account, path)
        child = resolution.child
        if child is None or child.kind != KIND_FILE:
            raise IsADirectory(path)
        return self.store.get_range(
            file_key(resolution.parent_ns, child.name), offset, length
        )

    @observed("read_relative", path_arg=0)
    def read_file_relative(self, rel_path: str) -> bytes:
        """Quick access (paper §3.2): hash ``N02::file1`` directly, O(1)."""
        ns, name = parse_decorated(rel_path)
        try:
            return self.store.get(file_key(ns, name)).data
        except ObjectNotFound:
            raise PathNotFound(rel_path) from None

    def relative_path_of(self, account: str, path: str) -> str:
        """The namespace-decorated relative path for a full file path."""
        resolution = self.lookup.resolve(account, path)
        if resolution.child is None or resolution.child.kind != KIND_FILE:
            raise IsADirectory(path)
        from .namespace import decorate

        return decorate(resolution.parent_ns, resolution.child.name)

    @observed("delete", path_arg=1)
    def delete_file(self, account: str, path: str) -> None:
        """Fake deletion: tombstone the ring tuple; bytes go at GC time."""
        resolution = self.lookup.resolve(account, path)
        child = resolution.child
        if child is None or child.kind != KIND_FILE:
            raise IsADirectory(path)
        self.submit_patch(
            resolution.parent_ns, [child.tombstone(self.next_timestamp())]
        )

    @observed("stat", path_arg=1)
    def stat(self, account: str, path: str) -> Resolution:
        """Pure lookup (Fig 13's measured quantity): resolve, no data I/O."""
        return self.lookup.resolve(account, path)

    @observed("exists", path_arg=1)
    def exists(self, account: str, path: str) -> bool:
        return self.lookup.try_resolve(account, path) is not None
