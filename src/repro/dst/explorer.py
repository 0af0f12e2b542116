"""Seeded schedule exploration: turning a seed into one full history.

The :class:`ScheduleExplorer` owns every random decision of a DST run
*up front*: it draws the per-session operation streams, then weaves
them into a single total order interspersed with background-protocol
steps (single gossip deliveries, merger steps, GC passes, cache drops,
anti-entropy rounds), node crash/recover cycles and fault-plan storm
windows, and explicit clock advances.  The output is a plain
:class:`~repro.dst.schedule.Schedule`; the runner that executes it
makes no random choices of its own, which is what makes the pair
(seed -> schedule -> run) bit-reproducible.

The environment steps come from one :class:`EnvironmentWeaver`, which
the scenario explorer (:mod:`repro.workloads.scenarios`) shares, and
the background steps from one :func:`weave_background`.  Crash
scheduling respects ``max_down`` so a replica-3 cluster never loses
quorum entirely; recovery is always re-injected before the stream runs
dry, and the runner's quiesce phase recovers any node a shrunk
schedule leaves down.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from .ops import ClientOp, OpGenerator
from .schedule import Schedule, Step


@dataclass(frozen=True)
class DstConfig:
    """Knobs of one DST run; serialised into the schedule verbatim."""

    sessions: int = 3
    middlewares: int = 3
    ops_per_session: int = 25
    storage_nodes: int = 6
    replicas: int = 3
    vnodes: int = 16
    latency: str = "rack"  # "rack" | "zero"
    message_loss: float = 0.0
    io_error_rate: float = 0.0
    timeout_rate: float = 0.0
    slow_rate: float = 0.0
    max_down: int = 1
    crash_rate: float = 0.0  # per-step probability of starting a crash cycle
    storm_rate: float = 0.0  # per-step probability of opening a fault window
    # Silent-corruption regime (all default off so pre-integrity corpus
    # schedules replay bit-identically):
    bitrot_rate: float = 0.0  # per-read replica rot inside storm windows
    torn_write_rate: float = 0.0  # p(crash event tears the last write)
    corrupt_rate: float = 0.0  # per-step probability of a corrupt event
    scrub_rate: float = 0.0  # per-step probability of a scrub pass
    hostile_name_rate: float = 0.15
    check_model: bool = True
    # Traffic-reduction flags (all default off so pre-traffic corpus
    # schedules replay bit-identically; ``from_json`` drops unknown
    # keys, so old schedule files stay loadable either way):
    negative_cache: bool = False
    group_commit: bool = False
    group_commit_window_us: int = 200_000
    gossip_digests: bool = False
    memoize_serialization: bool = False
    flush_rate: float = 0.0  # per-step probability of a group flush
    # Elastic membership (all default off so pre-membership corpus
    # schedules replay bit-identically -- same rate-guard idiom as the
    # corruption and traffic knobs above):
    membership_rate: float = 0.0  # per-step p(open an epoch transition)
    rebalance_rate: float = 0.0  # per-step p(one bounded migration batch)
    max_membership: int = 3  # cap on transitions per schedule
    # Network partitions (all default off so pre-partition corpus
    # schedules replay bit-identically -- rate-guard idiom again):
    partition_rate: float = 0.0  # per-step p(opening a partition cut)
    max_partitions: int = 2  # cap on concurrently open cuts
    hinted_handoff: bool = False  # arm the sloppy-quorum hint store
    # Sharded NameRings (default off so pre-shard corpus schedules
    # replay bit-identically -- rate-guard idiom again).  The DST
    # thresholds are tiny so ordinary op counts cross the split point.
    sharded_rings: bool = False
    shard_split_threshold: int = 1024
    shard_merge_threshold: int = 256
    shard_target_entries: int = 512

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "DstConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in doc.items() if k in known})


# Background-protocol steps the explorer weaves between ops.
# Probabilities are per inter-op gap, evaluated independently.
_BG_WEIGHTS = (
    ("gossip_one", 0.30),
    ("merge", 0.25),
    ("advance", 0.20),
    ("gossip_round", 0.10),
    ("drop_caches", 0.08),
    ("gc", 0.05),
    ("anti_entropy", 0.02),
)


def weave_background(
    steps: list[Step],
    rng: random.Random,
    weights: tuple[tuple[str, float], ...],
    middlewares: int,
) -> None:
    """Append the background-protocol steps drawn for one gap."""
    for kind, p in weights:
        if rng.random() >= p:
            continue
        if kind in ("merge", "gc", "drop_caches"):
            steps.append(Step(kind, args={"mw": rng.randrange(middlewares)}))
        elif kind == "advance":
            steps.append(
                Step("advance", args={"delta_us": rng.randint(500, 50_000)})
            )
        else:
            steps.append(Step(kind))


class EnvironmentWeaver:
    """The environment steps a config arms, drawn gap by gap.

    Both the DST and the scenario explorer call :meth:`weave` once per
    gap between ops and :meth:`tail` at the end.  Every draw sits
    behind its rate, so a config with a knob at 0 leaves the rng stream
    untouched: schedules from configs predating a knob re-explore
    bit-identically.  ``batches`` (rebalance batch sizes) and
    ``heal_gaps`` (how many gaps a cut stays open) are the only two
    things the explorers draw differently.
    """

    def __init__(
        self,
        rng: random.Random,
        cfg: DstConfig,
        batches: tuple[int, ...] = (4, 8, 16),
        heal_gaps: tuple[int, int] = (4, 15),
    ):
        self.rng, self.cfg = rng, cfg
        self.batches, self.heal_gaps = batches, heal_gaps
        self.down: list[int] = []  # crashed nodes, with a recovery due
        self.recover_after = 0  # gaps until the pending recovery
        # Which node ids the weaver believes exist (the runner
        # re-validates -- a drain aimed at an already-departed node
        # deterministically reports ``busy`` or ``no_such_node``).
        self.population = list(range(1, cfg.storage_nodes + 1))
        self.next_node = cfg.storage_nodes + 1
        self.transitions = 0
        self.open_cuts: list[list] = []  # [cut_id, gaps_until_heal]
        self.next_cut = 0

    def weave(self, steps: list[Step]) -> None:
        cfg, rng = self.cfg, self.rng
        # Crash/recover cycles never exceed max_down, so quorum survives.
        if self.down:
            self.recover_after -= 1
            if self.recover_after <= 0:
                steps.append(
                    Step("recover", args={"node": self.down.pop(0), "delay_us": 0})
                )
        elif cfg.crash_rate and rng.random() < cfg.crash_rate:
            node = rng.randrange(cfg.storage_nodes) + 1  # node ids are 1-based
            if len(self.down) < cfg.max_down:
                steps.append(Step("crash", args={"node": node, "delay_us": 0}))
                self.down.append(node)
                self.recover_after = rng.randint(3, 12)
        if cfg.storm_rate and rng.random() < cfg.storm_rate:
            steps.append(
                Step(
                    "storm_on",
                    args={"duration_us": rng.randint(20_000, 200_000)},
                )
            )
        if cfg.corrupt_rate and rng.random() < cfg.corrupt_rate:
            steps.append(
                Step(
                    "corrupt",
                    args={
                        "node": rng.randrange(cfg.storage_nodes) + 1,
                        "mode": rng.choice(["bitflip", "truncate"]),
                    },
                )
            )
        if cfg.scrub_rate and rng.random() < cfg.scrub_rate:
            steps.append(Step("scrub"))
        if cfg.flush_rate and rng.random() < cfg.flush_rate:
            steps.append(
                Step("flush_groups", args={"mw": rng.randrange(cfg.middlewares)})
            )
        if cfg.membership_rate and rng.random() < cfg.membership_rate:
            if self.transitions < cfg.max_membership:
                self._transition(steps)
        if cfg.rebalance_rate and rng.random() < cfg.rebalance_rate:
            steps.append(
                Step("rebalance", args={"max": rng.choice(self.batches)})
            )
        if cfg.partition_rate:
            self._partition(steps)

    def _transition(self, steps: list[Step]) -> None:
        rng, population = self.rng, self.population
        roll = rng.random()
        if roll < 0.45 or len(population) <= self.cfg.replicas:
            steps.append(Step("add_node"))
            population.append(self.next_node)
            self.next_node += 1
        else:
            victim = population[rng.randrange(len(population))]
            kind = "drain_node" if roll < 0.80 else "remove_node"
            steps.append(Step(kind, args={"node": victim}))
            population.remove(victim)
        self.transitions += 1

    def _partition(self, steps: list[Step]) -> None:
        cfg, rng, open_cuts = self.cfg, self.rng, self.open_cuts
        for entry in open_cuts:
            entry[1] -= 1
        while open_cuts and open_cuts[0][1] <= 0:
            cut_id, _ = open_cuts.pop(0)
            steps.append(Step("heal", args={"cut": cut_id}))
        if rng.random() < cfg.partition_rate:
            if len(open_cuts) < cfg.max_partitions:
                mw = rng.randrange(cfg.middlewares)
                pool = sorted(self.population)
                # Minority cuts only: the majority side keeps quorum, so
                # sloppy writes can park hints.
                count = rng.randint(1, max(1, len(pool) // 2))
                nodes = sorted(rng.sample(pool, min(count, len(pool))))
                cut = f"c{self.next_cut}"
                self.next_cut += 1
                steps.append(
                    Step(
                        "partition",
                        args={
                            "cut": cut,
                            "mw": mw,
                            "nodes": nodes,
                            "gossip": rng.random() < 0.35,
                            "mode": rng.choice(("both", "both", "in", "out")),
                        },
                    )
                )
                open_cuts.append([cut, rng.randint(*self.heal_gaps)])

    def tail(self, steps: list[Step]) -> None:
        """Leave no node down, no cut open and no storm window open.

        The runner's quiesce enforces this too, but an explicit tail
        keeps hand-read schedules honest.
        """
        for node in self.down:
            steps.append(Step("recover", args={"node": node, "delay_us": 0}))
        for cut_id, _ in self.open_cuts:
            steps.append(Step("heal", args={"cut": cut_id}))
        steps.append(Step("storm_off"))


class ScheduleExplorer:
    """Expands ``(seed, config)`` into one deterministic schedule."""

    def __init__(self, seed: int, config: DstConfig | None = None):
        self.seed = seed
        self.config = config or DstConfig()

    def explore(self) -> Schedule:
        cfg = self.config
        rng = random.Random(f"{self.seed}:schedule")
        streams = OpGenerator(
            self.seed, hostile_name_rate=cfg.hostile_name_rate
        ).streams(cfg.sessions, cfg.ops_per_session)
        return Schedule(
            seed=self.seed,
            config=cfg.to_json(),
            steps=_interleave(streams, rng, cfg, EnvironmentWeaver(rng, cfg)),
        )


def _interleave(
    streams: list[list[ClientOp]],
    rng: random.Random,
    cfg: DstConfig,
    weaver: EnvironmentWeaver | None,
) -> list[Step]:
    """One total order: per-session order kept, the rest drawn by ``rng``."""
    steps: list[Step] = []
    cursors = [0] * len(streams)
    while True:
        live = [k for k in range(len(streams)) if cursors[k] < len(streams[k])]
        if not live:
            break
        if weaver is not None:
            weaver.weave(steps)
        weave_background(steps, rng, _BG_WEIGHTS, cfg.middlewares)
        k = rng.choice(live)
        steps.append(Step("op", session=k, op=streams[k][cursors[k]]))
        cursors[k] += 1
    if weaver is not None:
        weaver.tail(steps)
    return steps


def interleave_sessions(
    ops_by_session: list[list[ClientOp]],
    seed: int,
    config: DstConfig | None = None,
) -> Schedule:
    """Weave explicit per-session op lists into a DST schedule.

    The integration tests use this to run hand-written concurrency
    scenarios (the old fixed interleavings) under many explorer-chosen
    interleavings: per-session order is preserved, the cross-session
    order and the background steps vary with ``seed``.
    """
    cfg = config or DstConfig(sessions=len(ops_by_session), check_model=False)
    if cfg.sessions != len(ops_by_session):
        raise ValueError("config.sessions must match ops_by_session")
    rng = random.Random(f"{seed}:interleave")
    steps = _interleave(ops_by_session, rng, cfg, None)
    return Schedule(seed=seed, config=cfg.to_json(), steps=steps)
