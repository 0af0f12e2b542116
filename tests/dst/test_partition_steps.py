"""DST coverage for network partitions + hinted handoff (V8).

The nightly DST matrix runs hundreds of seeds with ``--layers
partitions``; these are the fast PR-tier slices: the V1-V8 oracle
stays green with cuts woven in (alone and layered with every other
regime), partition/heal steps round-trip through JSON and replay
bit-identically, the layer plumbing is intact, and -- the digest-safety
satellite -- the per-link MessageLoss refactor and the armed-but-idle
partition plan leave every pre-partition corpus digest byte-identical.
"""

import json
import pathlib

from repro.dst.cli import sweep_config
from repro.dst.explorer import DstConfig, ScheduleExplorer
from repro.dst.layers import Layers
from repro.dst.runner import run_schedule, run_seed
from repro.dst.schedule import Schedule, Step
from repro.simcloud.failures import MessageLoss

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "dst_corpus"

PARTITION_KINDS = {"partition", "heal"}


def _cutty_seed(config: DstConfig, limit: int = 50) -> int:
    """First seed whose schedule actually opens a partition cut."""
    for seed in range(limit):
        schedule = ScheduleExplorer(seed, config).explore()
        if any(s.kind == "partition" for s in schedule.steps):
            return seed
    raise AssertionError("no seed produced a partition cut")


class TestPartitionRuns:
    def test_clean_seed_passes_with_partitions(self):
        config = Layers.parse("partitions").config(sessions=2, ops_per_session=15)
        result = run_seed(_cutty_seed(config), config)
        assert result.ok, [v.detail for v in result.violations]
        assert result.model_checked

    def test_faulty_seed_passes_with_partitions(self):
        config = Layers.parse("faulty+partitions").config(
            sessions=2, ops_per_session=15
        )
        result = run_seed(_cutty_seed(config), config)
        assert result.ok, [v.detail for v in result.violations]

    def test_corruption_seed_passes_with_partitions(self):
        config = Layers.parse("corruption+partitions").config(
            sessions=2, ops_per_session=15
        )
        result = run_seed(_cutty_seed(config), config)
        assert result.ok, [v.detail for v in result.violations]

    def test_partitions_layer_with_membership_churn(self):
        config = Layers.parse("faulty+membership+partitions").config(
            sessions=2, ops_per_session=12
        )
        result = run_seed(_cutty_seed(config), config)
        assert result.ok, [v.detail for v in result.violations]

    def test_partitions_layer_with_traffic_flags(self):
        config = Layers.parse("faulty+traffic+partitions").config(
            sessions=2, ops_per_session=12
        )
        result = run_seed(_cutty_seed(config), config)
        assert result.ok, [v.detail for v in result.violations]


class TestScheduleWeave:
    def test_partition_on_schedules_contain_cut_steps(self):
        config = Layers.parse("partitions").config(sessions=3, ops_per_session=25)
        seed = _cutty_seed(config)
        kinds = {s.kind for s in ScheduleExplorer(seed, config).explore().steps}
        assert kinds & PARTITION_KINDS

    def test_partition_off_schedules_do_not(self):
        schedule = ScheduleExplorer(
            1, Layers.parse("faulty").config(sessions=3, ops_per_session=25)
        ).explore()
        assert all(s.kind not in PARTITION_KINDS for s in schedule.steps)

    def test_every_cut_is_healed_by_the_tail(self):
        config = Layers.parse("partitions").config(sessions=3, ops_per_session=40)
        for seed in range(10):
            schedule = ScheduleExplorer(seed, config).explore()
            opened = [
                s.args["cut"] for s in schedule.steps if s.kind == "partition"
            ]
            healed = [
                s.args["cut"] for s in schedule.steps if s.kind == "heal"
            ]
            assert sorted(opened) == sorted(healed)

    def test_cuts_target_a_minority_of_storage_nodes(self):
        config = Layers.parse("partitions").config(sessions=3, ops_per_session=40)
        for seed in range(10):
            for step in ScheduleExplorer(seed, config).explore().steps:
                if step.kind == "partition":
                    assert 1 <= len(step.args["nodes"]) <= config.storage_nodes // 2

    def test_partition_knobs_leave_legacy_schedules_identical(self):
        """Rate-guard regression: knobs at 0 must not shift the rng."""
        before = ScheduleExplorer(
            9, Layers.parse("faulty").config(sessions=2, ops_per_session=20)
        ).explore()
        again = ScheduleExplorer(
            9,
            Layers.parse("faulty").config(
                sessions=2, ops_per_session=20, max_partitions=99
            ),
        ).explore()
        assert [s.to_json() for s in before.steps] == [
            s.to_json() for s in again.steps
        ]


class TestStepSemantics:
    def test_steps_round_trip_and_replay_bit_identically(self):
        config = Layers.parse("faulty+partitions").config(
            sessions=2, ops_per_session=12
        )
        schedule = ScheduleExplorer(_cutty_seed(config), config).explore()
        first = run_schedule(schedule)
        second = run_schedule(Schedule.loads(schedule.dumps()))
        assert first.digest == second.digest
        assert first.ok == second.ok

    def test_partition_and_heal_outcomes(self):
        config = Layers.parse("partitions").config(sessions=1, ops_per_session=3)
        schedule = ScheduleExplorer(0, config).explore()
        schedule.steps.insert(
            0,
            Step(
                "partition",
                args={"cut": "t0", "mw": 0, "nodes": [1, 2], "mode": "both"},
            ),
        )
        schedule.steps.insert(1, Step("heal", args={"cut": "t0"}))
        result = run_schedule(schedule)
        assert result.outcomes[0] == "partition:t0:4"  # 2 nodes x 2 dirs
        assert result.outcomes[1] == "heal:t0:4"
        assert result.ok, [v.detail for v in result.violations]

    def test_heal_of_unknown_cut_is_a_noop(self):
        """Shrunk schedules may keep a heal whose partition step was
        deleted; it must replay as a deterministic no-op."""
        config = Layers.parse("partitions").config(sessions=1, ops_per_session=3)
        schedule = ScheduleExplorer(0, config).explore()
        schedule.steps.insert(0, Step("heal", args={"cut": "never-opened"}))
        result = run_schedule(schedule)
        assert result.outcomes[0] == "heal:never-opened:0"
        assert result.ok

    def test_quiesce_heals_cuts_a_schedule_left_open(self):
        """A shrunk schedule may drop the heal; V8 still requires a
        whole network and an empty hint store, so quiesce must heal."""
        config = Layers.parse("partitions").config(sessions=1, ops_per_session=5)
        schedule = ScheduleExplorer(0, config).explore()
        schedule.steps.insert(
            len(schedule.steps) // 2,
            Step(
                "partition",
                args={
                    "cut": "open-ended",
                    "mw": 0,
                    "nodes": [1, 2, 3],
                    "gossip": True,
                    "mode": "both",
                },
            ),
        )
        result = run_schedule(schedule)
        assert result.ok, [v.detail for v in result.violations]


class TestSweepPlumbing:
    def test_sweep_config_layers_partitions(self):
        config = sweep_config(4, Layers.parse("partitions"))
        assert config.partition_rate > 0
        assert config.hinted_handoff

    def test_sweep_config_default_is_partitions_off(self):
        config = sweep_config(seed=4)
        assert config.partition_rate == 0.0
        assert not config.hinted_handoff

    def test_partitions_layer_over_every_mix(self):
        odd = sweep_config(5, Layers.parse("partitions"))  # odd seed: faulty
        assert odd.crash_rate > 0 and odd.partition_rate > 0
        storm = sweep_config(6, Layers.parse("corruption+partitions"))
        assert storm.bitrot_rate > 0 and storm.partition_rate > 0
        churn = sweep_config(7, Layers.parse("membership+partitions"))
        assert churn.membership_rate > 0 and churn.partition_rate > 0


class TestDigestSafety:
    """The satellite pin: refactoring MessageLoss onto per-link streams
    and arming the (idle) partition plan must not move one bit of any
    pre-partition corpus digest."""

    def test_corpus_cases_still_reproduce_recorded_digests(self):
        cases = sorted(
            p
            for p in CORPUS.glob("seed*.json")
            if not p.name.endswith((".trace.json", ".critpath.json"))
        )
        assert cases, "corpus is empty?"
        for path in cases:
            doc = json.loads(path.read_text())
            result = run_schedule(Schedule.from_json(doc["schedule"]))
            assert result.digest == doc["digest"], path.name

    def test_per_link_off_matches_legacy_stream(self):
        """per_link=False (the default) must draw from the one shared
        stream even when link coordinates are supplied."""
        legacy = MessageLoss(0.4, seed=11)
        refactored = MessageLoss(0.4, seed=11)
        a = [legacy.should_drop() for _ in range(200)]
        b = [refactored.should_drop(src=1, dst=2) for _ in range(200)]
        assert a == b

    def test_per_link_streams_are_independent_per_link(self):
        loss = MessageLoss(0.4, seed=11, per_link=True)
        ab = [loss.should_drop(src=1, dst=2) for _ in range(50)]
        # Replaying the same link from scratch reproduces its stream
        # regardless of interleaved draws on other links.
        fresh = MessageLoss(0.4, seed=11, per_link=True)
        interleaved = []
        for _ in range(50):
            interleaved.append(fresh.should_drop(src=1, dst=2))
            fresh.should_drop(src=2, dst=1)
            fresh.should_drop(src=1, dst=3)
        assert ab == interleaved
