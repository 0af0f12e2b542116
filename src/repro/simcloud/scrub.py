"""The background scrubber: find silent corruption before clients do.

Verified reads (:meth:`~repro.simcloud.object_store.ObjectStore.get`)
only catch rot on objects somebody asks for; a replica of a cold object
can sit rotten for months and be the *source* the next repair copies
from.  Every serious storage system therefore walks its disks in the
background re-verifying checksums -- Swift's object auditor, ZFS
``scrub``, HDFS's block scanner.  :class:`Scrubber` is that walk for
the simulated rack:

* every present replica of every registered object is re-read and
  verified against its write-time checksum
  (:mod:`repro.simcloud.integrity`);
* replicas that fail are rewritten from the newest replica that *does*
  verify, and their quarantine entries are cleared;
* objects with **no** verified reachable replica are reported (and
  recorded in ``store.unrecoverable``) distinctly from repairable ones:
  the data may still exist on a crashed node, so a later scrub can
  rescue it, but right now every copy the cluster can read is garbage
  and serving the object would mean serving garbage.

The scrub is maintenance: it runs with fault injection suspended, and
its disk time lands in ``ledger.background_us`` on the simulated clock
rather than stalling any client.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from .integrity import verify_record


@dataclass
class ScrubReport:
    """What one scrub pass found and healed."""

    objects_scanned: int = 0
    replicas_checked: int = 0
    corrupt_replicas: int = 0  # replicas failing checksum verification
    repaired_replicas: int = 0  # bad copies rewritten from a verified one
    unrecoverable: list[str] = field(default_factory=list)  # no verified copy

    @property
    def clean(self) -> bool:
        return self.corrupt_replicas == 0 and not self.unrecoverable

    def summary(self) -> str:
        if self.clean:
            status = "CLEAN"
        else:
            status = (
                f"{self.repaired_replicas} REPAIRED, "
                f"{len(self.unrecoverable)} UNRECOVERABLE"
            )
        return (
            f"scrub: {status} -- {self.objects_scanned} objects, "
            f"{self.replicas_checked} replicas checked, "
            f"{self.corrupt_replicas} corrupt"
        )


class Scrubber:
    """Walks every replica of every object, verifying and healing."""

    def __init__(self, store):
        self._store = store

    def scrub(self, prefix: str = "") -> ScrubReport:
        """One full pass; returns the :class:`ScrubReport`.

        For each object every reachable replica is verified; corrupt
        copies are rewritten from the newest verified replica.  When no
        reachable replica verifies, the object is reported unrecoverable
        and all its bad copies are quarantined so the read path won't
        prefer them -- nothing is rewritten (there is no trustworthy
        source), and the verdict is revisited on every later scrub.
        """
        store = self._store
        report = ScrubReport()
        plan = getattr(store, "fault_plan", None)
        guard = plan.suspended() if plan is not None else nullcontext()
        with store.tracer.span("scrub") as span, guard:
            for name in sorted(store.names()):
                if prefix and not name.startswith(prefix):
                    continue
                report.objects_scanned += 1
                self._scrub_object(name, report)
            span.tag("objects", report.objects_scanned)
            span.tag("corrupt", report.corrupt_replicas)
            span.tag("repaired", report.repaired_replicas)
            span.tag("unrecoverable", len(report.unrecoverable))
        return report

    def _scrub_object(self, name: str, report: ScrubReport) -> None:
        store = self._store
        source = None
        corrupt: list[tuple[int, object]] = []
        # Union of both epochs' owners while a migration window is open.
        for node_id in store.placement_for(name):
            node = store.nodes[node_id]
            if node.is_down:
                continue
            record = node.peek(name)
            if record is None:
                continue
            report.replicas_checked += 1
            # The auditor pays to read every replica it verifies.
            store.ledger.background_us += store.latency.disk_read_us(
                record.size
            )
            if verify_record(record):
                if source is None or record.timestamp > source.timestamp:
                    source = record
            else:
                corrupt.append((node_id, node))
                report.corrupt_replicas += 1
                store.tracer.event(
                    "scrub.corrupt_replica",
                    tags={"store_node": node_id, "object": name},
                )
        if not corrupt:
            # Nothing rotten among the reachable copies; a previous
            # unrecoverable verdict stands only while a bad copy exists.
            if source is not None:
                store.unrecoverable.discard(name)
            return
        if source is None:
            report.unrecoverable.append(name)
            store.unrecoverable.add(name)
            for node_id, _ in corrupt:
                store.quarantine.setdefault(name, set()).add(node_id)
            store.tracer.event("scrub.unrecoverable", tags={"object": name})
            return
        for node_id, node in corrupt:
            store.ledger.background_us += node.write(source)
            report.repaired_replicas += 1
            store.resilience.scrub_repairs += 1
            store._unquarantine(name, node_id)
            store.tracer.event(
                "scrub.repair", tags={"store_node": node_id, "object": name}
            )
        store.unrecoverable.discard(name)
