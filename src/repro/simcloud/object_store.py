"""The flat object storage cloud: PUT/GET/DELETE over a replicated ring.

This is the reproduction's stand-in for OpenStack Swift's object tier
(proxy + eight storage nodes, three replicas -- the paper's §5.1
deployment).  It exposes exactly the primitive vocabulary the paper
says object clouds offer -- PUT, GET, DELETE "and other primitives"
(HEAD, server-side COPY) -- and charges the simulated clock what each
primitive would cost on the rack:

    request_overhead + LAN RTT + wire transfer + disk service time

with replica fan-out in parallel (a write costs the *max* of its
replica disk times, not the sum) and quorum semantics on both paths.

It deliberately has **no** directory concept.  The only listing aid is
:meth:`scan`, a full key-space enumeration priced per examined key --
this is what condemns the plain consistent-hash baseline to O(N)
LIST/COPY in Table 1, and what the per-account file-path DB
(:mod:`repro.simcloud.container_db`) and H2's NameRings both exist to
avoid.
"""

from __future__ import annotations

import functools
import hashlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from ..obs.trace import NULL_TRACER
from .clock import SimClock, Timestamp, TimestampFactory
from .errors import (
    CircuitOpenError,
    CorruptObjectError,
    LinkDown,
    NodeDown,
    ObjectAlreadyExists,
    ObjectNotFound,
    QuorumError,
    RequestTimeout,
    RingError,
    SimCloudError,
    TransientIOError,
)
from .failures import mw_endpoint, node_endpoint
from .hashring import HashRing
from .integrity import checksum_of, verify_record
from .latency import CostLedger, Jitter, LatencyModel
from .node import ObjectRecord, StorageNode
from .resilience import (
    BreakerConfig,
    CircuitBreaker,
    ResilienceStats,
    RetryPolicy,
)

# Everything that makes one node unusable for one request without
# proving anything about the object itself.  LinkDown is scoped to one
# middleware's view: the node may be perfectly healthy for everyone else.
_UNREACHABLE = (
    NodeDown,
    CircuitOpenError,
    TransientIOError,
    RequestTimeout,
    LinkDown,
)

T = TypeVar("T")


def _store_span(op: str):
    """Wrap a store primitive in a ``store.<op>`` span when tracing.

    The span brackets everything the primitive charges to the clock --
    replica fan-out, retries, backoff waits -- so the critical-path
    analyzer can attribute an operation's time to individual store
    round trips.  With the null tracer the wrapper is one extra call
    frame and a truthiness check.
    """

    def decorate(method):
        @functools.wraps(method)
        def wrapper(self, name, *args, **kwargs):
            tracer = self.tracer
            if tracer.noop:
                return method(self, name, *args, **kwargs)
            with tracer.span(f"store.{op}", tags={"object": name}):
                return method(self, name, *args, **kwargs)

        return wrapper

    return decorate


@dataclass(frozen=True)
class ObjectInfo:
    """What HEAD returns: everything about an object except its bytes."""

    name: str
    size: int
    etag: str
    meta: dict[str, str]
    timestamp: Timestamp


def _etag(data) -> str:
    from .sparse import SparseData

    if isinstance(data, SparseData):
        return hashlib.md5(data.identity().encode()).hexdigest()
    return hashlib.md5(data).hexdigest()


class ObjectStore:
    """Client-facing facade over the ring and the storage nodes."""

    def __init__(
        self,
        ring: HashRing,
        nodes: dict[int, StorageNode],
        latency: LatencyModel,
        clock: SimClock,
        write_quorum: int | None = None,
        read_quorum: int = 1,
        retry_policy: RetryPolicy | None = None,
        breaker_config: BreakerConfig | None = None,
    ):
        missing = ring.node_ids - set(nodes)
        if missing:
            raise RingError(f"ring references unknown nodes: {sorted(missing)}")
        self.ring = ring
        self.nodes = nodes
        self.latency = latency
        self.clock = clock
        # Swift's defaults: write to all, succeed on majority; read one.
        self.write_quorum = write_quorum or (ring.replicas // 2 + 1)
        self.read_quorum = read_quorum
        self.ledger = CostLedger()
        self.jitter = Jitter(latency)
        self.timestamps = TimestampFactory(clock, node_id=0)
        # Fault masking: per-request retry policy, per-node breakers.
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker_config = breaker_config or BreakerConfig()
        self.breakers: dict[int, CircuitBreaker] = {
            nid: CircuitBreaker(nid, self.breaker_config) for nid in nodes
        }
        self.resilience = ResilienceStats()
        self.fault_plan = None  # installed via SwiftCluster.install_fault_plan
        # Elastic membership (set by SwiftCluster): while a migration
        # window is open, reads and writes consult the dual-ownership
        # view (current epoch union the previous epoch's owners).
        self.membership = None
        # Network partitions (set by SwiftCluster): the link-level
        # reachability matrix the request path consults.  ``origin``
        # names the middleware whose request is currently in flight
        # (None = cluster-internal maintenance plane, which repairs
        # over the rack's internal network and ignores the matrix).
        self.partitions = None
        self.origin: int | None = None
        # Hinted handoff (set by SwiftCluster.enable_hinted_handoff):
        # while armed, PUTs facing unreachable owners complete against
        # a sloppy quorum with durable hints on fallback nodes.
        self.hints = None
        # Observability: a deployment with tracing enabled swaps in its
        # shared Tracer so retry/breaker events join the span trees.
        self.tracer = NULL_TRACER
        self._retry_rng = self.retry_policy.rng()
        self._names: set[str] = set()  # authoritative key registry
        # Integrity state (see repro.simcloud.integrity).  verify_reads
        # gates checksum verification on payload-serving reads; the
        # quarantine maps object name -> node ids whose replica failed
        # verification (demoted, pending repair); unrecoverable holds
        # names a scrub found with *no* verified replica anywhere.
        self.verify_reads = True
        self.quarantine: dict[str, set[int]] = {}
        self.unrecoverable: set[str] = set()
        # Accounts hosted on this deployment (filesystem frontends
        # register here so maintenance like GC can scope itself safely).
        self.accounts: set[str] = set()

    # ------------------------------------------------------------------
    # cost plumbing
    # ------------------------------------------------------------------
    def _charge(self, cost_us: int) -> None:
        self.clock.advance(self.jitter.apply(cost_us))

    def _base_cost(self, nbytes: int = 0) -> int:
        return (
            self.latency.request_overhead_us
            + self.latency.lan_rtt_us
            + self.latency.transfer_us(nbytes)
        )

    # ------------------------------------------------------------------
    # fault masking: one node primitive under breaker + retry policy
    # ------------------------------------------------------------------
    def _breaker(self, node_id: int) -> CircuitBreaker:
        breaker = self.breakers.get(node_id)
        if breaker is None:
            breaker = self.breakers[node_id] = CircuitBreaker(
                node_id, self.breaker_config
            )
        return breaker

    def _link_ok(self, node_id: int) -> bool:
        """Can the middleware behind the current request reach ``node_id``?

        Always True on the maintenance plane (``origin`` is None: repair,
        scrub and rebalance traffic rides the rack's internal network)
        and whenever no partition cut is active -- the steady-state cost
        is one attribute check plus one dict lookup.
        """
        if self.origin is None or self.partitions is None:
            return True
        return self.partitions.reachable(
            mw_endpoint(self.origin), node_endpoint(node_id)
        )

    def _attempt(self, node: StorageNode, thunk: Callable[[], T]) -> T:
        """Run one node primitive, masking transient faults.

        A severed middleware->node link fails first with
        :class:`LinkDown` -- before the breaker is consulted and without
        feeding it, because partition-induced unreachability is scoped
        to *this* middleware's link: the node stays eligible (and its
        breaker stays closed) for every other middleware.

        The breaker is consulted next (an open breaker fails fast with
        :class:`CircuitOpenError` at zero latency cost -- that is its
        point).  Retryable faults are retried up to the policy's
        ``max_attempts`` with exponential backoff; every backoff wait
        and every timed-out request's wait is charged to the simulated
        clock so fault-masking's latency price is visible.  Node-level
        outcomes feed the breaker: any failure counts against the
        consecutive-failure threshold, a success resets it.
        """
        if not self._link_ok(node.node_id):
            self.partitions.blocked_requests += 1
            if not self.tracer.noop:
                self.tracer.event(
                    "partition.blocked",
                    tags={"store_node": node.node_id, "origin": self.origin},
                )
            raise LinkDown(mw_endpoint(self.origin), node.node_id)
        breaker = self._breaker(node.node_id)
        policy = self.retry_policy
        if not breaker.allow(self.clock.now_us):
            self.resilience.fast_failures += 1
            self.tracer.event(
                "breaker.fast_fail", tags={"store_node": node.node_id}
            )
            raise CircuitOpenError(node.node_id)
        attempt = 0
        while True:
            attempt += 1
            try:
                result = thunk()
            except policy.retryable as exc:
                if isinstance(exc, RequestTimeout):
                    # The client waited the timeout out before failing.
                    self.clock.advance(exc.waited_us)
                    self.resilience.timeouts += 1
                    self.tracer.event(
                        "store.timeout",
                        tags={
                            "store_node": node.node_id,
                            "waited_us": exc.waited_us,
                        },
                    )
                if isinstance(exc, TransientIOError):
                    self.resilience.io_errors += 1
                trips_before = breaker.trips
                breaker.record_failure(self.clock.now_us)
                if breaker.trips > trips_before:
                    self.tracer.event(
                        "breaker.trip", tags={"store_node": node.node_id}
                    )
                if attempt >= policy.max_attempts or not breaker.allow(
                    self.clock.now_us
                ):
                    raise
                wait_us = policy.backoff_us(attempt, self._retry_rng)
                self.resilience.retries += 1
                self.resilience.backoff_us += wait_us
                self.clock.advance(wait_us)
                self.tracer.event(
                    "store.retry",
                    tags={
                        "store_node": node.node_id,
                        "attempt": attempt,
                        "error": type(exc).__name__,
                        "wait_us": wait_us,
                    },
                )
                continue
            except NodeDown:
                # Binary death is not transient: don't burn retries, but
                # let the breaker learn so later requests fail fast.
                breaker.record_failure(self.clock.now_us)
                raise
            breaker.record_success(self.clock.now_us)
            return result

    def _suspended_faults(self):
        """Context manager suppressing fault injection (cleanup paths)."""
        if self.fault_plan is None:
            return nullcontext()
        return self.fault_plan.suspended()

    # ------------------------------------------------------------------
    # placement: owners, then open-window old owners, then hint holders
    # ------------------------------------------------------------------
    def _migration_extras(self, name: str, owners: Sequence[int]) -> tuple[int, ...]:
        """Old-epoch owners of ``name`` not in the current replica set.

        Empty in steady state (no membership controller, or no open
        window), so every placement-sensitive path below degenerates to
        the classic single-ring behaviour at zero cost.
        """
        m = self.membership
        if m is None or m.plan is None:
            return ()
        return tuple(
            nid for nid in m.old_owners_for(name) if nid not in owners
        )

    def placement_for(self, name: str, dual_read: bool = False) -> list[int]:
        """Every node that may hold ``name``, in read-preference order.

        The ring's owners first; while a migration window is open, the
        old epoch's owners (the new ones may not hold the object until
        its handoff completes); last, live nodes holding a hinted copy
        under the real name.  Reads, deletes, repair and scrub all walk
        this one list -- stray copies that healing writes on old owners
        are dropped at handoff finalize.  ``dual_read`` counts and
        traces a read that reached into the old epoch.
        """
        nodes = list(self.ring.nodes_for(name))
        extras = self._migration_extras(name, nodes)
        if extras:
            nodes.extend(extras)
            if dual_read:
                self.membership.dual_reads += 1
                if not self.tracer.noop:
                    self.tracer.event(
                        "membership.dual_read", tags={"object": name}
                    )
        if self.hints is not None:
            # A holder that has since departed the cluster is skipped:
            # its hint is dropped at the next drain.  The dedup matters
            # when a hint holder is also an owner or an old owner -- one
            # node must not be attempted (or counted) twice.
            nodes.extend(
                nid
                for nid in self.hints.holders_for(name)
                if nid not in nodes and nid in self.nodes
            )
        return nodes

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    @_store_span("put")
    def put(
        self,
        name: str,
        data: bytes,
        meta: dict[str, str] | None = None,
        overwrite: bool = True,
    ) -> ObjectInfo:
        """Store an object on its replica set (parallel fan-out, quorum).

        Three roles receive the record, in this order, each through the
        one local write step below: the ring's owners (counted toward
        the quorum); while a migration window is open, the old epoch's
        owners (write-through, best effort, not counted); and with
        hinted handoff armed, one fallback per missed owner (counted).
        A PUT short of quorum is undone on every node it reached.
        """
        if not overwrite and name in self._names:
            raise ObjectAlreadyExists(name)
        record = ObjectRecord(
            name=name,
            data=data,
            meta=dict(meta or {}),
            timestamp=self.timestamps.next(),
            etag=_etag(data),
            checksum=checksum_of(data),
        )
        previous: dict[int, ObjectRecord | None] = {}  # node -> what it held
        disk_costs: list[int] = []

        def write_replica(node_id: int) -> bool:
            """Write the record to one node and remember what it held."""
            node = self.nodes[node_id]
            if node.is_down:
                return False
            old = node.peek(name)
            try:
                disk_costs.append(
                    self._attempt(node, lambda: node.write(record))
                )
            except _UNREACHABLE:
                # Replica skipped: retries exhausted, node died mid-PUT,
                # its breaker is open, or the link to it is partitioned.
                return False
            previous[node_id] = old
            return True

        # Owners: a missed one is restored later by a repair sweep, or
        # by a hint drain when a fallback below covers for it.
        owners = self.ring.nodes_for(name)
        missed = [nid for nid in owners if not write_replica(nid)]
        written = len(owners) - len(missed)
        # Migration window: write through to the old epoch's owners so
        # a dual read served by either epoch observes this write.
        for node_id in self._migration_extras(name, owners):
            if write_replica(node_id):
                self.membership.write_throughs += 1
                if not self.tracer.noop:
                    self.tracer.event(
                        "membership.write_through",
                        tags={"object": name, "store_node": node_id},
                    )
        # Sloppy quorum: each missed owner's payload is parked on the
        # next reachable fallback clockwise past the owner set.  Hints
        # are only registered after the quorum verdict -- an undone PUT
        # parks nothing.
        pending_hints: list[tuple[int, int]] = []  # (home, fallback)
        if self.hints is not None and missed:
            fallbacks = iter(
                self.ring.fallbacks_for(name, set(owners) | set(previous))
            )
            for home in missed:
                for fb_id in fallbacks:
                    if self._link_ok(fb_id) and write_replica(fb_id):
                        pending_hints.append((home, fb_id))
                        break
            written += len(pending_hints)
        if written < min(self.write_quorum, len(self.ring.node_ids)):
            # Failed write: undo the partial replicas so a quorum
            # failure is atomic from the client's point of view
            # (readers must never observe an unacknowledged object).
            # Best-effort and fault-free: the undo must not itself be
            # starved by injected faults.
            with self._suspended_faults():
                for node_id, old in previous.items():
                    node = self.nodes[node_id]
                    try:
                        if old is None:
                            node.delete(name)
                        else:
                            node.write(old)
                    except (NodeDown, ObjectNotFound):
                        pass
            raise QuorumError(name, self.write_quorum, written)
        self._names.add(name)
        if self.hints is not None:
            if pending_hints:
                epoch = self.membership.epoch if self.membership else 0
                self.hints.sloppy_writes += 1
                for home, fb_id in pending_hints:
                    self.hints.add(
                        name,
                        home,
                        fb_id,
                        record.timestamp,
                        epoch,
                        origin=self.origin,
                    )
                    if not self.tracer.noop:
                        self.tracer.event(
                            "hints.parked",
                            tags={
                                "object": name,
                                "home": home,
                                "store_node": fb_id,
                            },
                        )
            # Every acknowledgement joins the V8 audit log: after heal
            # + quiesce some owner must hold this write (or newer).
            self.hints.record_ack(name, record.timestamp)
        # The acknowledged write put verified bytes on every replica it
        # reached; old integrity verdicts about this name are void.
        self.quarantine.pop(name, None)
        self.unrecoverable.discard(name)
        self.ledger.puts += 1
        self.ledger.bytes_in += len(data)
        self._charge(self._base_cost(len(data)) + max(disk_costs))
        return ObjectInfo(
            name=name,
            size=record.size,
            etag=record.etag,
            meta=dict(record.meta),
            timestamp=record.timestamp,
        )

    @_store_span("get")
    def get(self, name: str) -> ObjectRecord:
        """Fetch an object from the first healthy *verified* replica."""
        record, disk_cost, retries = self._read_replica(
            name, want_data=True, verify=True
        )
        self.ledger.gets += 1
        self.ledger.bytes_out += record.size
        self._charge(
            self._base_cost(record.size) + disk_cost
            + retries * self.latency.lan_rtt_us
        )
        return record

    @_store_span("get_range")
    def get_range(self, name: str, offset: int, length: int):
        """Ranged GET: fetch ``length`` bytes starting at ``offset``.

        Pays the seek and request overhead of a full GET but only the
        wire/disk transfer of the requested window -- how real object
        stores serve video seeks and Cumulus-style segment slicing.
        Returns bytes (or a SparseData window for sparse payloads).
        """
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be >= 0")
        # want_data=False prices the seek, but the whole record is
        # verified before any window of it is served.
        record, _seek_cost, retries = self._read_replica(
            name, want_data=False, verify=True
        )
        window = max(0, min(length, record.size - offset))
        from .sparse import SparseData

        if isinstance(record.data, SparseData):
            payload = SparseData(size=window, tag=f"{record.data.tag}@{offset}")
        else:
            payload = record.data[offset : offset + window]
        self.ledger.gets += 1
        self.ledger.bytes_out += window
        self._charge(
            self._base_cost(window)
            + self.latency.disk_read_us(window)
            + retries * self.latency.lan_rtt_us
        )
        return payload

    @_store_span("head")
    def head(self, name: str) -> ObjectInfo:
        """Metadata-only fetch (no payload transfer)."""
        record, disk_cost, retries = self._read_replica(name, want_data=False)
        self.ledger.heads += 1
        self._charge(
            self._base_cost(0) + disk_cost + retries * self.latency.lan_rtt_us
        )
        return ObjectInfo(
            name=record.name,
            size=record.size,
            etag=record.etag,
            meta=dict(record.meta),
            timestamp=record.timestamp,
        )

    @_store_span("delete")
    def delete(self, name: str, missing_ok: bool = False) -> None:
        """Remove an object from every healthy replica."""
        if name not in self._names:
            if missing_ok:
                return
            raise ObjectNotFound(name)
        disk_costs = [0]
        # During a migration window the tombstone must reach both
        # epochs' owners, or a dual read could resurrect the object.
        for node_id in self.placement_for(name):
            node = self.nodes[node_id]
            if node.is_down or not node.peek(name):
                continue
            try:
                disk_costs.append(
                    self._attempt(node, lambda node=node: node.delete(name))
                )
            except (*_UNREACHABLE, ObjectNotFound):
                # Replica left behind; it is unregistered garbage now
                # (never resurrected: repair walks the key registry).
                continue
        self._names.discard(name)
        if self.hints is not None:
            # The walk above already covered hint holders (they are in
            # the placement list); whatever it could not reach is
            # unregistered garbage, not a deliverable hint.
            self.hints.drop_name(name)
        self.quarantine.pop(name, None)
        self.unrecoverable.discard(name)
        self.ledger.deletes += 1
        self._charge(self._base_cost(0) + max(disk_costs))

    def copy(
        self, src: str, dst: str, meta: dict[str, str] | None = None
    ) -> ObjectInfo:
        """Server-side copy: one GET plus one replicated PUT inside the rack."""
        record = self.get(src)
        new_meta = dict(record.meta)
        if meta:
            new_meta.update(meta)
        info = self.put(dst, record.data, meta=new_meta)
        self.ledger.copies += 1
        # get()+put() above already charged the data path; copy adds no RTT
        # beyond those because the proxy pipelines the two transfers.
        return info

    def exists(self, name: str) -> bool:
        """HEAD-priced existence check."""
        try:
            self.head(name)
            return True
        except ObjectNotFound:
            return False

    def _read_replica(
        self, name: str, want_data: bool, verify: bool = False
    ) -> tuple[ObjectRecord, int, int]:
        """Try replicas healthiest-first; return (record, disk_us, failovers).

        :meth:`placement_for` order is the baseline, but replicas
        demoted to last resort come after: nodes whose circuit breaker
        is in quarantine, and replicas of *this object* quarantined for
        failing checksum verification.  Each per-node attempt runs under
        the retry policy, so transient faults are masked before a
        failover to the next replica happens at all.

        With ``verify`` (payload-serving reads), every returned record
        is checked against its write-time checksum: a mismatch
        quarantines that replica, feeds the node's breaker, and fails
        over -- corrupt bytes are never returned.  A verified read that
        follows corruption finishes with an inline read-repair rewriting
        the bad copies; if *no* located replica verifies, the caller
        gets :class:`CorruptObjectError` rather than garbage.
        """
        now_us = self.clock.now_us
        placement = self.placement_for(name, dual_read=True)
        bad = self.quarantine.get(name, set())
        preferred = [
            nid
            for nid in placement
            if not self._breaker(nid).is_quarantined(now_us)
            and nid not in bad
            and self._link_ok(nid)
        ]
        demoted = [nid for nid in placement if nid not in preferred]
        failovers = 0
        corrupt_nodes: list[int] = []
        last_error: Exception = ObjectNotFound(name)
        for node_id in preferred + demoted:
            node = self.nodes[node_id]
            try:
                if want_data:
                    result = self._attempt(node, lambda node=node: node.read(name))
                else:
                    result = self._attempt(node, lambda node=node: node.head(name))
            except (*_UNREACHABLE, ObjectNotFound) as exc:
                last_error = exc
                failovers += 1
                continue
            record, disk_cost = result
            if verify and self.verify_reads and not verify_record(record):
                corrupt_nodes.append(node_id)
                self.quarantine.setdefault(name, set()).add(node_id)
                self.resilience.corrupt_replicas += 1
                self._breaker(node_id).record_failure(self.clock.now_us)
                self.tracer.event(
                    "store.corrupt_replica",
                    tags={"store_node": node_id, "object": name},
                )
                failovers += 1
                continue
            if corrupt_nodes:
                self._read_repair(name, record, corrupt_nodes)
            elif verify and node_id in bad:
                # A formerly quarantined replica verified clean again
                # (healed by repair/scrub/overwrite behind our back).
                self._unquarantine(name, node_id)
            return record, disk_cost, failovers
        if corrupt_nodes:
            raise CorruptObjectError(name, tuple(corrupt_nodes))
        if isinstance(last_error, ObjectNotFound):
            raise ObjectNotFound(name)
        raise QuorumError(name, self.read_quorum, 0)

    def _unquarantine(self, name: str, node_id: int) -> None:
        nodes = self.quarantine.get(name)
        if nodes is not None:
            nodes.discard(node_id)
            if not nodes:
                del self.quarantine[name]

    def _read_repair(
        self, name: str, source: ObjectRecord, bad_nodes: list[int]
    ) -> int:
        """Rewrite corrupt replicas from a verified copy.

        Runs off the client's critical path (background-accounted, fault
        injection suspended): the read that detected the rot already
        paid its failovers; healing is the replicator's time.  Returns
        how many replicas were rewritten.
        """
        healed = 0
        with self._suspended_faults():
            for node_id in bad_nodes:
                node = self.nodes[node_id]
                if node.is_down:
                    continue
                try:
                    self.ledger.background_us += node.write(source)
                except SimCloudError:
                    continue
                healed += 1
                self.resilience.read_repairs += 1
                self._unquarantine(name, node_id)
        if healed:
            self.unrecoverable.discard(name)
            self.tracer.event(
                "store.read_repair", tags={"object": name, "healed": healed}
            )
        return healed

    @property
    def quarantined_replica_count(self) -> int:
        """Replicas currently quarantined for checksum failure."""
        return sum(len(nodes) for nodes in self.quarantine.values())

    # ------------------------------------------------------------------
    # enumeration (the expensive path flat stores are stuck with)
    # ------------------------------------------------------------------
    def scan(self, prefix: str = "") -> list[str]:
        """Enumerate every object name, keep those matching ``prefix``.

        Costs one row-examination per object *in the whole store* --
        the O(N) tax that Table 1 assigns to directory traversal on a
        plain consistent-hash layout.
        """
        names = sorted(self._names)
        matched = [n for n in names if n.startswith(prefix)]
        self.ledger.scans += 1
        self._charge(
            self._base_cost(0) + len(names) * self.latency.db_row_us
        )
        return matched

    # ------------------------------------------------------------------
    # client-side parallelism
    # ------------------------------------------------------------------
    def parallel(
        self, thunks: Iterable[Callable[[], T]], lanes: int | None = None
    ) -> list[T]:
        """Issue a batch of requests over a connection pool of ``lanes``."""
        return self.clock.parallel(thunks, lanes or self.latency.meta_concurrency)

    # ------------------------------------------------------------------
    # maintenance & introspection (cost-free: operator tooling)
    # ------------------------------------------------------------------
    def repair(self) -> int:
        """Reconcile replica sets: fill holes, refresh stale copies.

        Models Swift's background replicator: for every object the
        newest reachable replica is pushed to peers that miss it *or*
        hold an older timestamp (a node that crashed across an
        overwrite comes back with yesterday's bytes -- without the
        staleness pass a read hitting it first would travel back in
        time).  Returns the number of replicas written.  Free of
        foreground cost; background time lands in
        ``ledger.background_us``.

        Thin wrapper over :class:`~repro.simcloud.repair.RepairSweeper`,
        which additionally reports what it found and fixed.
        """
        from .repair import RepairSweeper

        return RepairSweeper(self).sweep().replicas_written

    def scrub(self):
        """Verify every replica's checksum; heal from verified copies.

        Models Swift's background object auditor / ZFS scrub: corrupt
        replicas are rewritten from the newest verified copy, objects
        with no verified reachable copy are recorded in
        :attr:`unrecoverable`.  Background-accounted.  Returns the
        :class:`~repro.simcloud.scrub.ScrubReport`.
        """
        from .scrub import Scrubber

        return Scrubber(self).scrub()

    def replica_health(self, name: str) -> tuple[int, int]:
        """(healthy replicas present, expected replicas) for an object."""
        expected = self.ring.nodes_for(name)
        present = sum(
            1
            for node_id in expected
            if not self.nodes[node_id].is_down
            and self.nodes[node_id].peek(name) is not None
        )
        return present, len(expected)

    def census(self, prefix: str = "") -> tuple[int, int]:
        """(object count, logical bytes) under ``prefix`` -- Fig 14/15 data."""
        count = 0
        nbytes = 0
        for name in self._names:
            if not name.startswith(prefix):
                continue
            count += 1
            for node_id in self.ring.nodes_for(name):
                record = self.nodes[node_id].peek(name)
                if record is not None:
                    nbytes += record.size
                    break
        return count, nbytes

    @property
    def object_count(self) -> int:
        return len(self._names)

    def names(self) -> frozenset[str]:
        """Cost-free view of the key registry (tests and audits only)."""
        return frozenset(self._names)
