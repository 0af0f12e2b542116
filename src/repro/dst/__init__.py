"""`repro.dst` -- deterministic simulation testing for H2Cloud.

A seeded schedule explorer drives N concurrent client sessions against
a simulated deployment while interleaving single gossip deliveries,
merger steps, GC passes, cache drops, node crash/recover cycles and
transient-fault storms at explorer-chosen points -- all on the
simulated clock, bit-reproducible from the seed.  A :class:`Layers`
set (``faulty+partitions``, ...) picks which failure layers a run
arms.  After quiesce an oracle checks model equivalence, view
convergence, structural integrity (fsck), garbage accounting and
replica agreement; failing schedules are shrunk with delta debugging
and persisted to a seed corpus for replay.  See ``docs/TESTING.md``.
"""

from .explorer import DstConfig, ScheduleExplorer, interleave_sessions
from .layers import Layers
from .ops import ClientOp, HOSTILE_NAMES, ILLEGAL_NAMES, OpGenerator, payload_for
from .oracle import InvariantViolation, check_invariants
from .runner import RunResult, run_schedule, run_seed
from .schedule import Schedule, Step
from .shrink import shrink

__all__ = [
    "ClientOp",
    "DstConfig",
    "HOSTILE_NAMES",
    "ILLEGAL_NAMES",
    "InvariantViolation",
    "Layers",
    "OpGenerator",
    "RunResult",
    "Schedule",
    "ScheduleExplorer",
    "Step",
    "check_invariants",
    "interleave_sessions",
    "payload_for",
    "run_schedule",
    "run_seed",
    "shrink",
]
