"""Shared measurement machinery for the repo benchmark.

One *episode* is: build a fresh deployment and load the workload's
initial tree (timed as set-up), then replay the workload's pre-generated
trace through the public ``H2CloudFS`` API (the timed phase), including
the workload's scheduled maintenance and a closing ``pump()``.  Every
client call is timed on both clocks: ``time.perf_counter`` for how fast
the Python harness replays work, and the deployment's ``SimClock`` for
the paper's operation time (excluding Internet RTT).

Load is one client in a closed loop with no think time, in one process
and one thread: the next op is issued as soon as the previous returns.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

from repro.obs.metrics import percentile_of
from repro.simcloud.errors import SimCloudError

#: op kinds that leave the namespace and the stored bytes unchanged
READ_KINDS = frozenset({"read", "stat", "exists", "list", "lookup"})
#: op kinds that change the namespace or the stored bytes
WRITE_KINDS = frozenset(
    {"write", "insert", "mkdir", "delete", "move", "rename", "copy", "rmdir"}
)


class OpLog:
    """Both clocks around every client op of one timed phase.

    Only :class:`~repro.simcloud.errors.SimCloudError` counts as an op
    failure: it is the program's whole error taxonomy (filesystem
    errors, quorum loss, unreachable replicas).  Anything else is a
    defect and propagates, failing the run.
    """

    def __init__(self, clock, spans=None):
        self.clock = clock
        self.spans = spans  # layers.SpanRecorder on the traced pass
        self.kinds: list[str] = []
        self.wall_us: list[float] = []
        self.sim_us: list[int] = []
        self.failed = 0
        self.maintenance_errors = 0

    def call(self, kind: str, fn, *args):
        """Run one client op; returns ``(ok, result)``."""
        spans = self.spans
        clock = self.clock
        sim0 = clock.now_us
        t0 = perf_counter()
        if spans is not None:
            span = spans.open("middleware", t0)
        try:
            result = fn(*args)
            ok = True
        except SimCloudError:
            result = None
            ok = False
        t1 = perf_counter()
        if spans is not None:
            spans.close(span, t1)
        self.kinds.append(kind)
        self.wall_us.append((t1 - t0) * 1e6)
        self.sim_us.append(clock.now_us - sim0)
        if not ok:
            self.failed += 1
        return ok, result

    def maintain(self, fn, *args):
        """Run one piece of scheduled maintenance (not a client op).

        A maintenance step that loses its quorum under injected faults
        is counted and skipped; later rounds and the closing pump (run
        fault-free) catch up on its work.
        """
        spans = self.spans
        if spans is not None:
            span = spans.open("maintenance", perf_counter())
        try:
            return fn(*args)
        except SimCloudError:
            self.maintenance_errors += 1
            return None
        finally:
            if spans is not None:
                spans.close(span, perf_counter())

    @property
    def attempted(self) -> int:
        return len(self.kinds)


@dataclass
class Episode:
    """What one set-up + timed phase produced."""

    setup_s: float
    timed_s: float
    log: OpLog
    digest: str
    space_amp: float
    sim_fingerprint: tuple
    failures: list[str]
    layer_counts: dict


def state_digest(fs) -> str:
    """SHA-256 over the deployment's whole final state.

    Covers the simulated clock, the store's cost ledger and every
    replica on every node (name, etag, timestamp, size, checksum), so
    two runs agree on it only if they issued the same primitives and
    left the same bytes behind.  Pure inspection: no clock, no traffic.
    """
    h = hashlib.sha256()
    h.update(f"clock={fs.clock.now_us}\n".encode())
    for key, value in sorted(fs.store.ledger.snapshot().items()):
        h.update(f"{key}={value}\n".encode())
    for node_id, node in sorted(fs.cluster.nodes.items()):
        h.update(f"node {node_id} down={node.is_down}\n".encode())
        for name in sorted(node.object_names()):
            rec = node.peek(name)
            h.update(
                f"{name}|{rec.etag}|{rec.timestamp}|{rec.size}|{rec.checksum}\n"
                .encode("utf-8", "surrogatepass")
            )
    return h.hexdigest()


def stored_bytes(fs) -> int:
    """Bytes held on every storage node: all replicas of everything."""
    return sum(node.used_bytes for node in fs.cluster.nodes.values())


def percentile(values, q: float) -> float:
    return percentile_of(sorted(values), q)


def timed(fn, *args):
    """``(result, wall seconds)`` of one call."""
    t0 = perf_counter()
    result = fn(*args)
    return result, perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_fingerprint(log: OpLog) -> tuple:
    """Everything simulated about a timed phase, for equality checks."""
    return (tuple(log.kinds), tuple(log.sim_us), log.failed, log.maintenance_errors)


def end_to_end(episodes: list[Episode], setup_times: list[float]) -> dict:
    """The end-to-end metrics of one untraced run.

    Every episode replays identical inputs (the caller checks that they
    simulate identically), so op ``i`` does the same work in each: its
    wall time is its median over the episodes, which keeps a burst of
    host noise in one episode out of the percentiles.  ``ops_per_s``
    divides the ops that succeeded by the median timed phase.
    Simulated metrics, ``space_amp`` and the success rate come from the
    first episode.
    """
    first = episodes[0].log
    wall = [
        statistics.median(times) for times in zip(*(ep.log.wall_us for ep in episodes))
    ]
    read_wall = [us for kind, us in zip(first.kinds, wall) if kind in READ_KINDS]
    write_wall = [us for kind, us in zip(first.kinds, wall) if kind in WRITE_KINDS]
    timed_s = statistics.median(ep.timed_s for ep in episodes)
    sim_ms = [us / 1000.0 for us in first.sim_us]
    sim_read = [ms for kind, ms in zip(first.kinds, sim_ms) if kind in READ_KINDS]
    sim_write = [ms for kind, ms in zip(first.kinds, sim_ms) if kind in WRITE_KINDS]
    return {
        "ops_per_s": ((first.attempted - first.failed) / timed_s, "ops/s"),
        "wall_p50_us": (percentile(wall, 0.50), "us"),
        "wall_p99_us": (percentile(wall, 0.99), "us"),
        "read_wall_p50_us": (percentile(read_wall, 0.50), "us"),
        "write_wall_p50_us": (percentile(write_wall, 0.50), "us"),
        "sim_p50_ms": (percentile(sim_ms, 0.50), "ms"),
        "sim_p99_ms": (percentile(sim_ms, 0.99), "ms"),
        "sim_read_p50_ms": (percentile(sim_read, 0.50), "ms"),
        "sim_write_p50_ms": (percentile(sim_write, 0.50), "ms"),
        "space_amp": (episodes[0].space_amp, "ratio"),
        "op_success_rate": (
            (first.attempted - first.failed) / first.attempted,
            "ratio",
        ),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
