"""Cluster assembly: the paper's nine-server rack in one object.

:class:`SwiftCluster` wires together the consistent-hash ring, the
storage nodes, the object-store facade, the simulated clock and the
failure schedule -- everything below the filesystem layer.  Both
H2Cloud and every baseline build on a cluster, so experiments construct
one cluster per system under test and the harness compares like with
like.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clock import SimClock
from .failures import FailureSchedule, FaultPlan, PartitionPlan
from .hashring import HashRing
from .hints import HintDeliverySweeper, HintStore
from .latency import LatencyModel
from .membership import ClusterMembership
from .node import StorageNode
from .object_store import ObjectStore
from .repair import RepairReport, RepairSweeper
from .resilience import BreakerConfig, RetryPolicy


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for one simulated deployment."""

    storage_nodes: int = 8  # the paper's rack: 8 storage + 1 proxy
    replicas: int = 3  # paper: "three replicas are kept"
    vnodes: int = 128
    node_capacity_bytes: int | None = None
    write_quorum: int | None = None  # default: majority of replicas

    def __post_init__(self) -> None:
        if self.storage_nodes < 1:
            raise ValueError("need at least one storage node")
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        # An out-of-range quorum used to be accepted here and only blow
        # up (or silently never be met) deep inside the first PUT.
        if self.write_quorum is not None and not (
            1 <= self.write_quorum <= self.replicas
        ):
            raise ValueError(
                f"write_quorum must satisfy 1 <= q <= replicas "
                f"({self.write_quorum} vs {self.replicas} replicas)"
            )


class SwiftCluster:
    """A ready-to-use simulated object storage deployment."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        latency: LatencyModel | None = None,
        clock: SimClock | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker_config: BreakerConfig | None = None,
    ):
        self.config = config or ClusterConfig()
        self.latency = latency or LatencyModel.rack_scale()
        self.clock = clock or SimClock()
        self.ring = HashRing(
            replicas=self.config.replicas, vnodes=self.config.vnodes
        )
        self.nodes: dict[int, StorageNode] = {}
        for node_id in range(1, self.config.storage_nodes + 1):
            self.nodes[node_id] = StorageNode(
                node_id,
                latency=self.latency,
                capacity_bytes=self.config.node_capacity_bytes,
            )
            self.ring.add_node(node_id)
        self.store = ObjectStore(
            ring=self.ring,
            nodes=self.nodes,
            latency=self.latency,
            clock=self.clock,
            write_quorum=self.config.write_quorum,
            retry_policy=retry_policy,
            breaker_config=breaker_config,
        )
        self.failures = FailureSchedule(self.clock, self.nodes)
        self.fault_plan: FaultPlan | None = None
        if fault_plan is not None:
            self.install_fault_plan(fault_plan)
        # Elastic membership: epoch-versioned join/drain/remove with
        # live rebalancing, the only way nodes join or leave the ring
        # after construction.  The store holds a back-reference so its
        # read/write paths can honour an open migration window.
        self.membership = ClusterMembership(self)
        self.store.membership = self.membership
        # Link-level network partitions: the matrix is always present
        # (the store's reachability check is one dict lookup when no
        # cut is active) but cuts only exist when a test schedules them.
        self.partitions = PartitionPlan(clock=self.clock)
        self.store.partitions = self.partitions

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def rack_scale(cls) -> "SwiftCluster":
        """The paper's §5.1 deployment (8 storage nodes, 3 replicas)."""
        return cls(ClusterConfig(), LatencyModel.rack_scale())

    @classmethod
    def fast(cls) -> "SwiftCluster":
        """Zero-latency cluster for pure-semantics unit tests."""
        return cls(ClusterConfig(vnodes=16), LatencyModel.zero())

    # ------------------------------------------------------------------
    # fault tolerance
    # ------------------------------------------------------------------
    def install_fault_plan(self, plan: FaultPlan) -> FaultPlan:
        """Arm per-request fault injection on every storage node.

        The plan is shared: the store keeps a reference so maintenance
        paths (repair, quorum undo) can run with faults suspended, and
        the plan gets the cluster clock so time-windowed fault storms
        know what time it is.
        """
        plan.clock = self.clock
        self.fault_plan = plan
        self.store.fault_plan = plan
        for node in self.nodes.values():
            node.fault_plan = plan
        return plan

    def enable_auto_repair(self) -> RepairSweeper:
        """Sweep for under-replicated objects after every node recovery.

        Turns the schedule's ``recover``/``wipe`` events into healing:
        as soon as :meth:`FailureSchedule.pump` applies one, the sweeper
        re-replicates everything the outage left short or stale.
        """
        sweeper = RepairSweeper(self.store)
        self.repair_reports: list[RepairReport] = []
        self.failures.on_recover = lambda node_id: self.repair_reports.append(
            sweeper.sweep()
        )
        return sweeper

    def enable_hinted_handoff(self) -> HintDeliverySweeper:
        """Arm sloppy-quorum writes with durable hints on fallbacks.

        While a replica owner is unreachable (crashed, breaker-open or
        partitioned away from the writing middleware), PUTs complete
        against a *sloppy* quorum: the payload lands on a reachable
        fallback node together with a hint naming the home replica.  The
        returned sweeper drains hints to their homes; it is also hooked
        to the partition plan so every heal triggers a drain immediately
        (mirrors :meth:`enable_auto_repair`).
        """
        if self.store.hints is None:
            self.store.hints = HintStore()
        sweeper = HintDeliverySweeper(self.store)
        self.hint_sweeper = sweeper
        self.partitions.on_heal = lambda cut: sweeper.drain()
        return sweeper

    # ------------------------------------------------------------------
    # simulation stepping
    # ------------------------------------------------------------------
    def step(self, delta_us: int = 0) -> list:
        """Advance simulated time and apply any due failure events.

        The single-step entry point the deterministic-simulation harness
        drives: explorer-chosen ``advance`` points move the clock, and
        every scheduled crash/recover/wipe whose time has come is applied
        in order.  Returns the events that fired.
        """
        if delta_us:
            self.clock.advance(delta_us)
        self.partitions.pump()
        return self.failures.pump()

    # ------------------------------------------------------------------
    # cluster-wide operations
    # ------------------------------------------------------------------
    def storage_stats(self) -> dict[int, tuple[int, int]]:
        """Per-node (object replicas held, bytes used)."""
        return {
            nid: (node.object_count, node.used_bytes)
            for nid, node in sorted(self.nodes.items())
        }
