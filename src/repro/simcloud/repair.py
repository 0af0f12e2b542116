"""Replica repair: the sweep that makes node recovery actually heal.

A crash/recover cycle leaves a node holding yesterday's replicas; a
wipe/recover cycle leaves it holding nothing.  Writes accepted while
the node was down landed on the surviving replicas only, so after
recovery the cluster is *under-replicated* (objects with fewer live
copies than the ring expects) and *stale-replicated* (copies whose
timestamp predates the newest one).  :class:`RepairSweeper` walks the
key registry, finds both, and pushes the newest reachable replica to
every reachable peer that misses it -- Swift's background replicator,
with a report.

The sweep is background-accounted (disk time lands in
``ledger.background_us``) and runs with any installed
:class:`~repro.simcloud.failures.FaultPlan` suspended: healing must not
be starved by the transient faults it coexists with.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from .integrity import verify_record


@dataclass
class RepairReport:
    """What one repair sweep found and fixed."""

    objects_scanned: int = 0
    under_replicated: int = 0  # objects missing >=1 reachable replica
    stale_replicas: int = 0  # replicas older than the newest copy
    corrupt_replicas: int = 0  # replicas failing checksum verification
    replicas_written: int = 0  # holes filled + stale/corrupt copies refreshed
    unrecoverable: list[str] = field(default_factory=list)  # no verified source

    @property
    def clean(self) -> bool:
        return self.replicas_written == 0 and not self.unrecoverable

    def summary(self) -> str:
        status = "CLEAN" if self.clean else f"{self.replicas_written} REPAIRED"
        return (
            f"repair: {status} -- {self.objects_scanned} objects scanned, "
            f"{self.under_replicated} under-replicated, "
            f"{self.stale_replicas} stale replicas, "
            f"{self.corrupt_replicas} corrupt replicas, "
            f"{len(self.unrecoverable)} unrecoverable"
        )


class RepairSweeper:
    """Walks the ring and re-replicates under-replicated/stale objects."""

    def __init__(self, store):
        self._store = store

    def sweep(self, prefix: str = "") -> RepairReport:
        """One full pass; returns the :class:`RepairReport`.

        For every registered object name the newest reachable *verified*
        replica is pushed to reachable peers that miss it, hold an older
        timestamp, or fail checksum verification.  A replica that does
        not verify is never used as a source -- repair must not fan
        corruption out -- and objects with no verified reachable replica
        at all (holders wiped, down, or rotten) are reported as
        unrecoverable; they may heal on a later sweep once a clean
        holder comes back.
        """
        store = self._store
        report = RepairReport()
        plan = getattr(store, "fault_plan", None)
        guard = plan.suspended() if plan is not None else nullcontext()
        with guard:
            for name in sorted(store.names()):
                if prefix and not name.startswith(prefix):
                    continue
                report.objects_scanned += 1
                source = None
                reachable = []
                corrupt = []
                # Both epochs' owners during a migration window, so
                # mid-rebalance healing also refreshes the old owners
                # still serving dual reads.
                for node_id in store.placement_for(name):
                    node = store.nodes[node_id]
                    if node.is_down:
                        continue
                    record = node.peek(name)
                    if record is not None and not verify_record(record):
                        corrupt.append(node)
                        report.corrupt_replicas += 1
                        continue
                    reachable.append((node, record))
                    if record is not None and (
                        source is None or record.timestamp > source.timestamp
                    ):
                        source = record
                if source is None:
                    report.unrecoverable.append(name)
                    continue
                missing = [n for n, r in reachable if r is None]
                stale = [
                    n
                    for n, r in reachable
                    if r is not None and r.timestamp < source.timestamp
                ]
                if missing:
                    report.under_replicated += 1
                report.stale_replicas += len(stale)
                for node in missing + stale + corrupt:
                    cost = node.write(source)
                    store.ledger.background_us += cost
                    report.replicas_written += 1
                    quarantine = getattr(store, "quarantine", None)
                    if quarantine is not None:
                        store._unquarantine(name, node.node_id)
                if corrupt and hasattr(store, "unrecoverable"):
                    store.unrecoverable.discard(name)
        store.resilience.repaired_replicas += report.replicas_written
        return report
