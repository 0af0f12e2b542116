"""Elastic cluster membership: versioned ring epochs with live rebalance.

The paper's H2 protocol assumes a static nine-server rack; a
production-scale deployment (ROADMAP item 2) must grow and shrink
without downtime or data loss.  :class:`ClusterMembership` is the
controller that takes a :class:`~repro.simcloud.cluster.SwiftCluster`
through **versioned ring epochs**:

* :meth:`add_node` -- scale out (optionally weighted);
* :meth:`drain_node` -- graceful decommission: the node leaves the
  ring immediately but keeps serving its replicas until every one has
  been handed off, then leaves the cluster;
* :meth:`remove_node` -- crash-style departure: the node and its data
  vanish at once, and the survivors re-replicate from the remaining
  copies.

Each call opens a **migration window** (one at a time -- a second
transition while one is open raises
:class:`~repro.simcloud.errors.MembershipError`).  The window freezes a
copy of the old ring, bumps the epoch, and computes a *move-minimal
transition plan*: only the object names whose replica set actually
differs between the two epochs are scheduled to move, which by the
consistent-hashing construction is the
:meth:`~repro.simcloud.hashring.HashRing.moved_fraction`-sized sliver
adjacent to the changed tokens, not the whole key space.

While the window is open the system stays live under **dual
ownership**:

* reads consult the new owners first, then fall back to old owners not
  yet released (verified replicas preferred, exactly like steady
  state) -- counted as ``dual_reads``;
* writes target the new owners (quorum is judged against them) and
  **write through** to the old owners, so a read served by either
  epoch observes acknowledged data -- counted as ``write_throughs``;
* repair and scrub sweep the union, so verify-quarantine-repair and
  the circuit breakers keep working mid-rebalance.

:class:`RebalanceSweeper` drains the plan in bounded batches on the
simulated clock (background-accounted, like repair).  It tolerates
faults: a copy that fails -- target down, injected transient error,
no verified source replica reachable -- simply stays pending and is
retried on a later batch.  When the plan drains, :meth:`finalize`
drops the replicas the old epoch no longer owns, retires a drained
node, and records the handoff latency.

The deterministic-simulation oracle V7 checks the end state: after
quiesce no object is lost, unreadable, or held by a node outside its
current replica set (double-owned).  See docs/MEMBERSHIP.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MembershipError, SimCloudError
from .hashring import HashRing
from .integrity import verify_record
from .node import ObjectRecord, StorageNode


@dataclass
class TransitionPlan:
    """One epoch transition's outstanding work.

    ``pending`` maps each object name whose replica set changed to its
    frozen (old owners, new owners) pair.  Names are removed as the
    sweeper hands them off; the window closes when the map drains.
    """

    kind: str  # "add" | "drain" | "remove"
    node_id: int
    epoch_from: int
    epoch_to: int
    opened_us: int
    pending: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=dict
    )

    def describe(self) -> str:
        return (
            f"{self.kind} node {self.node_id}: epoch "
            f"{self.epoch_from}->{self.epoch_to}, "
            f"{len(self.pending)} partitions pending"
        )


class ClusterMembership:
    """Epoch-versioned membership controller for one simulated cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.epoch = 1
        self.plan: TransitionPlan | None = None
        self.old_ring: HashRing | None = None
        self.draining: int | None = None  # node id leaving gracefully
        self.sweeper = RebalanceSweeper(self)
        # Plain-int accounting (never touches the clock: digest-safe).
        self.transitions = 0
        self.partitions_moved = 0
        self.bytes_migrated = 0
        self.dual_reads = 0
        self.write_throughs = 0
        self.handoff_us: list[int] = []  # window-open -> finalize, per epoch

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def store(self):
        return self.cluster.store

    @property
    def in_transition(self) -> bool:
        return self.plan is not None

    @property
    def pending_moves(self) -> int:
        return len(self.plan.pending) if self.plan else 0

    def old_owners_for(self, name: str) -> tuple[int, ...]:
        """The previous epoch's replica set, pruned to surviving nodes."""
        if self.old_ring is None:
            return ()
        return tuple(
            nid
            for nid in self.old_ring.nodes_for(name)
            if nid in self.store.nodes
        )

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def add_node(self, weight: float = 1.0) -> StorageNode:
        """Scale out by one (optionally weighted) node, live.

        The node joins the ring immediately; it owns its share of the
        key space from this moment, and the open migration window backs
        every read with the old owners until its replicas arrive.
        """
        self._require_idle()
        cluster = self.cluster
        node_id = max(cluster.nodes) + 1 if cluster.nodes else 1
        node = StorageNode(
            node_id,
            latency=cluster.latency,
            capacity_bytes=cluster.config.node_capacity_bytes,
        )
        node.fault_plan = cluster.fault_plan
        old = cluster.ring.copy()
        cluster.nodes[node_id] = node
        cluster.ring.add_node(node_id, weight=weight)
        self._open_window("add", node_id, old)
        return node

    def drain_node(self, node_id: int) -> None:
        """Gracefully decommission ``node_id``.

        The node leaves the ring now (no new data lands on it except
        write-through) but keeps serving the replicas it holds until
        the sweeper has re-homed every one; :meth:`finalize` then
        retires it from the cluster.
        """
        self._require_idle()
        self._require_departable(node_id)
        old = self.cluster.ring.copy()
        self.cluster.ring.remove_node(node_id)
        self.draining = node_id
        self._open_window("drain", node_id, old)

    def remove_node(self, node_id: int) -> None:
        """Crash-style departure: node and its replicas vanish at once.

        Models pulling a dead server out of the rack.  Every object it
        held is now under-replicated; the migration window re-replicates
        from the surviving copies (a later repair sweep can also heal
        stragglers whose sources were temporarily unreachable).
        """
        self._require_idle()
        self._require_departable(node_id)
        old = self.cluster.ring.copy()
        self.cluster.ring.remove_node(node_id)
        self._retire(node_id)
        self._open_window("remove", node_id, old)

    def _require_idle(self) -> None:
        if self.plan is not None:
            raise MembershipError(
                f"transition in progress ({self.plan.describe()})"
            )

    def _require_departable(self, node_id: int) -> None:
        if node_id not in self.cluster.nodes:
            raise MembershipError(f"unknown node {node_id}")
        if len(self.cluster.ring) <= 1:
            raise MembershipError("cannot remove the last ring node")

    def _open_window(self, kind: str, node_id: int, old: HashRing) -> None:
        store = self.store
        self.old_ring = old
        ring = self.cluster.ring
        pending: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for name in store.names():
            old_owners = tuple(old.nodes_for(name))
            new_owners = tuple(ring.nodes_for(name))
            if set(old_owners) != set(new_owners):
                pending[name] = (old_owners, new_owners)
        self.plan = TransitionPlan(
            kind=kind,
            node_id=node_id,
            epoch_from=self.epoch,
            epoch_to=self.epoch + 1,
            opened_us=store.clock.now_us,
            pending=pending,
        )
        self.epoch += 1
        self.transitions += 1
        tracer = store.tracer
        if not tracer.noop:
            tracer.event(
                "membership.transition",
                tags={
                    "kind": kind,
                    "node": node_id,
                    "epoch": self.epoch,
                    "pending": len(pending),
                },
            )

    def _retire(self, node_id: int) -> None:
        """Remove every trace of a departed node from the cluster."""
        self.cluster.nodes.pop(node_id, None)
        self.store.breakers.pop(node_id, None)
        self.cluster.failures.discard_node(node_id)

    # ------------------------------------------------------------------
    # window completion
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Close a fully migrated window: drop old copies, retire drains.

        Only callable once the plan has drained; the sweeper calls it
        automatically.  The release pass is maintenance (fault-free,
        background-accounted).
        """
        plan = self.plan
        if plan is None:
            return
        if plan.pending:
            raise MembershipError(
                f"cannot finalize: {len(plan.pending)} partitions pending"
            )
        store = self.store
        self.release_stray_replicas()
        if self.draining is not None:
            self._retire(self.draining)
            self.draining = None
        self.handoff_us.append(store.clock.now_us - plan.opened_us)
        tracer = store.tracer
        if not tracer.noop:
            tracer.event(
                "membership.handoff",
                tags={
                    "kind": plan.kind,
                    "node": plan.node_id,
                    "epoch": plan.epoch_to,
                    "latency_us": self.handoff_us[-1],
                },
            )
        self.plan = None
        self.old_ring = None

    def release_stray_replicas(self) -> int:
        """Drop replicas held by nodes outside the current replica set.

        Covers both the just-migrated old owners and any node that a
        crash/recover cycle left holding data it no longer owns.  Skips
        down nodes (their strays are caught on a later pass or at
        quiesce, once they recover) and nodes holding hinted copies --
        a parked sloppy-quorum payload may be the only replica of an
        acked write until its hint drains home, so it is never a stray.
        Returns how many were dropped.
        """
        store = self.store
        dropped = 0
        with store._suspended_faults():
            for name in sorted(store.names()):
                responsible = set(store.ring.nodes_for(name))
                if store.hints is not None:
                    responsible.update(store.hints.holders_for(name))
                for node_id, node in store.nodes.items():
                    if node_id in responsible or node.is_down:
                        continue
                    if node.peek(name) is not None:
                        store.ledger.background_us += node.delete(name)
                        dropped += 1
        return dropped

    def quiesce(self, max_rounds: int = 10_000) -> None:
        """Drive any open window to completion (DST quiesce hook).

        Runs the sweeper with fault injection suspended until the plan
        drains and finalizes, then drops stray replicas left by windows
        that finalized while some node was down.  Deterministic: by the
        time the harness quiesces, every node is up and storms are
        closed, so each round makes progress.
        """
        store = self.store
        with store._suspended_faults():
            rounds = 0
            while self.plan is not None:
                rounds += 1
                if rounds > max_rounds:
                    raise MembershipError(
                        f"quiesce stuck: {self.plan.describe()}"
                    )
                self.sweeper.step()
            self.release_stray_replicas()


class RebalanceSweeper:
    """Migrates a transition plan's partitions in bounded batches.

    The elastic-membership counterpart of
    :class:`~repro.simcloud.repair.RepairSweeper`: disk time lands in
    ``ledger.background_us``, never on the foreground clock.  Unlike
    repair it runs *with* fault injection live -- mid-rebalance faults
    are exactly the scenario under test -- and simply leaves a
    partition pending when its copy fails, retrying on a later batch.
    """

    def __init__(self, membership: ClusterMembership):
        self.membership = membership

    def step(self, max_objects: int = 64) -> int:
        """Migrate up to ``max_objects`` pending partitions.

        Returns how many were handed off this batch.  Automatically
        finalizes the window when the plan drains.
        """
        m = self.membership
        plan = m.plan
        if plan is None:
            return 0
        store = m.store
        moved = 0
        for name in sorted(plan.pending):
            if moved >= max_objects:
                break
            if name not in store.names():
                # Deleted mid-window: nothing left to hand off.
                del plan.pending[name]
                continue
            if self._migrate(name, *plan.pending[name]):
                del plan.pending[name]
                moved += 1
                m.partitions_moved += 1
        if not plan.pending:
            m.finalize()
        return moved

    def _migrate(
        self,
        name: str,
        old_owners: tuple[int, ...],
        new_owners: tuple[int, ...],
    ) -> bool:
        """Copy ``name``'s newest verified replica to its new owners.

        True when every reachable new owner holds the newest version
        (the partition is handed off); False leaves it pending.
        """
        m = self.membership
        store = m.store
        source = self._newest_verified(name, old_owners, new_owners)
        if source is None:
            return False  # all holders down or rotten; retry later
        done = True
        for node_id in new_owners:
            node = store.nodes.get(node_id)
            if node is None:
                continue
            record = node.peek(name)
            if (
                record is not None
                and record.timestamp >= source.timestamp
                and verify_record(record)
            ):
                continue
            if node.is_down:
                done = False  # can't place this copy yet
                continue
            try:
                cost = node.write(source)
            except SimCloudError:
                done = False  # injected fault: stays pending
                continue
            store.ledger.background_us += cost
            m.bytes_migrated += source.size
            store._unquarantine(name, node_id)
            tracer = store.tracer
            if not tracer.noop:
                tracer.event(
                    "membership.rebalance",
                    tags={"object": name, "store_node": node_id},
                )
        return done

    def _newest_verified(
        self,
        name: str,
        old_owners: tuple[int, ...],
        new_owners: tuple[int, ...],
    ) -> ObjectRecord | None:
        """Newest checksum-verified replica among both epochs' holders.

        Migration must not fan corruption out, so an unverified replica
        is never a source -- the partition waits for repair/scrub (or a
        recovering holder) to produce a clean copy.
        """
        store = self.membership.store
        source = None
        seen: set[int] = set()
        for node_id in (*new_owners, *old_owners):
            if node_id in seen:
                continue
            seen.add(node_id)
            node = store.nodes.get(node_id)
            if node is None or node.is_down:
                continue
            record = node.peek(name)
            if record is None or not verify_record(record):
                continue
            if source is None or record.timestamp > source.timestamp:
                source = record
        return source
