"""Schedules and their explorer: deterministic, serialisable, honest."""

import pytest

from repro.dst import ClientOp, DstConfig, Schedule, ScheduleExplorer, Step
from repro.dst.explorer import interleave_sessions
from repro.dst.layers import Layers


class TestStepAndSchedule:
    def test_unknown_step_kind_rejected(self):
        with pytest.raises(ValueError):
            Step("reboot")

    def test_op_step_requires_an_op(self):
        with pytest.raises(ValueError):
            Step("op", session=0)

    def test_json_round_trip_with_unicode_ops(self):
        schedule = Schedule(
            seed=9,
            config=DstConfig().to_json(),
            steps=[
                Step("op", session=0, op=ClientOp("write", "/s0/日本語", tag=3)),
                Step("crash", args={"node": 2, "delay_us": 0}),
                Step("advance", args={"delta_us": 1000}),
            ],
            tweak="tests.dst.tweaks:drop_tombstones_on_store",
        )
        assert Schedule.loads(schedule.dumps()) == schedule

    def test_subset_preserves_order_and_config(self):
        schedule = Schedule(
            seed=1,
            config=DstConfig().to_json(),
            steps=[Step("advance", args={"delta_us": i}) for i in range(6)],
        )
        sub = schedule.subset([0, 3, 5])
        assert [s.args["delta_us"] for s in sub.steps] == [0, 3, 5]
        assert sub.seed == schedule.seed and sub.config == schedule.config


class TestExplorer:
    def test_same_seed_same_schedule(self):
        cfg = Layers.parse("faulty").config()
        assert (
            ScheduleExplorer(13, cfg).explore().to_json()
            == ScheduleExplorer(13, cfg).explore().to_json()
        )

    def test_all_ops_are_scheduled_exactly_once(self):
        cfg = DstConfig(sessions=3, ops_per_session=20)
        schedule = ScheduleExplorer(5, cfg).explore()
        assert schedule.op_count() == 3 * 20
        per_session = {}
        for step in schedule.steps:
            if step.kind == "op":
                per_session.setdefault(step.session, []).append(step.op)
        from repro.dst import OpGenerator

        assert per_session == {
            k: stream
            for k, stream in enumerate(OpGenerator(5).streams(3, 20))
        }

    def test_faulty_schedules_contain_fault_machinery(self):
        cfg = Layers.parse("faulty").config(ops_per_session=50)
        kinds = {s.kind for s in ScheduleExplorer(19, cfg).explore().steps}
        assert {"crash", "recover", "storm_on", "storm_off"} <= kinds

    def test_every_crash_gets_a_recover(self):
        cfg = Layers.parse("faulty").config(ops_per_session=60)
        for seed in range(6):
            steps = ScheduleExplorer(seed, cfg).explore().steps
            crashes = sum(1 for s in steps if s.kind == "crash")
            recovers = sum(1 for s in steps if s.kind == "recover")
            assert recovers >= crashes

    def test_max_down_never_exceeded(self):
        cfg = Layers.parse("faulty").config(ops_per_session=80, crash_rate=0.3)
        down = 0
        for step in ScheduleExplorer(23, cfg).explore().steps:
            if step.kind == "crash":
                down += 1
            elif step.kind == "recover":
                down -= 1
            assert down <= cfg.max_down

    def test_crash_targets_are_real_node_ids(self):
        cfg = Layers.parse("faulty").config(ops_per_session=80, crash_rate=0.3)
        for seed in range(4):
            for step in ScheduleExplorer(seed, cfg).explore().steps:
                if step.kind == "crash":
                    assert 1 <= step.args["node"] <= cfg.storage_nodes


class TestInterleave:
    def test_per_session_order_is_preserved(self):
        ops = [
            [ClientOp("write", "/s0/a", tag=1), ClientOp("delete", "/s0/a")],
            [ClientOp("mkdir", "/s1/d"), ClientOp("write", "/s1/d/f", tag=2)],
        ]
        for seed in range(8):
            schedule = interleave_sessions(ops, seed)
            seen = {0: [], 1: []}
            for step in schedule.steps:
                if step.kind == "op":
                    seen[step.session].append(step.op)
            assert seen[0] == ops[0] and seen[1] == ops[1]

    def test_interleavings_vary_with_seed(self):
        ops = [
            [ClientOp("write", f"/s0/f{i}", tag=i) for i in range(5)],
            [ClientOp("write", f"/s1/f{i}", tag=i) for i in range(5)],
        ]
        orders = {
            tuple(
                (s.session, s.op.path)
                for s in interleave_sessions(ops, seed).steps
                if s.kind == "op"
            )
            for seed in range(10)
        }
        assert len(orders) > 1

    def test_session_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interleave_sessions([[]], 0, DstConfig(sessions=3))
