"""DST coverage for elastic membership (PR 6).

The nightly DST matrix runs hundreds of seeds with ``--layers
membership``; these are the fast PR-tier slices: the V1-V7 oracle
stays green with churn woven in, the membership steps round-trip
through JSON and replay bit-identically, and the layer plumbing
(CLI -> DstConfig -> explorer weave) is intact.
"""

from repro.dst.cli import sweep_config
from repro.dst.explorer import DstConfig, ScheduleExplorer
from repro.dst.layers import Layers
from repro.dst.runner import run_schedule, run_seed
from repro.dst.schedule import Schedule, Step

MEMBERSHIP_KINDS = {"add_node", "drain_node", "remove_node", "rebalance"}


def _churny_seed(config: DstConfig, limit: int = 50) -> int:
    """First seed whose schedule actually contains a transition step."""
    for seed in range(limit):
        schedule = ScheduleExplorer(seed, config).explore()
        if any(
            s.kind in ("add_node", "drain_node", "remove_node")
            for s in schedule.steps
        ):
            return seed
    raise AssertionError("no seed produced membership churn")


class TestChurnRuns:
    def test_clean_seed_passes_with_membership_churn(self):
        config = Layers.parse("membership").config(sessions=2, ops_per_session=15)
        result = run_seed(_churny_seed(config), config)
        assert result.ok, [v.detail for v in result.violations]
        assert result.model_checked

    def test_faulty_seed_passes_with_membership_churn(self):
        config = Layers.parse("faulty+membership").config(
            sessions=2, ops_per_session=15
        )
        result = run_seed(_churny_seed(config), config)
        assert result.ok, [v.detail for v in result.violations]

    def test_corruption_seed_passes_with_membership_churn(self):
        config = Layers.parse("corruption+membership").config(
            sessions=2, ops_per_session=15
        )
        result = run_seed(_churny_seed(config), config)
        assert result.ok, [v.detail for v in result.violations]

    def test_traffic_and_membership_layer_together(self):
        config = Layers.parse("faulty+traffic+membership").config(
            sessions=2, ops_per_session=12
        )
        result = run_seed(_churny_seed(config), config)
        assert result.ok, [v.detail for v in result.violations]


class TestScheduleWeave:
    def test_churn_on_schedules_contain_membership_steps(self):
        config = Layers.parse("membership").config(sessions=3, ops_per_session=25)
        seed = _churny_seed(config)
        kinds = {
            s.kind for s in ScheduleExplorer(seed, config).explore().steps
        }
        assert kinds & MEMBERSHIP_KINDS

    def test_churn_off_schedules_do_not(self):
        schedule = ScheduleExplorer(
            1, DstConfig(sessions=3, ops_per_session=25)
        ).explore()
        assert all(s.kind not in MEMBERSHIP_KINDS for s in schedule.steps)

    def test_transitions_capped_per_schedule(self):
        config = Layers.parse("membership").config(sessions=3, ops_per_session=60)
        for seed in range(10):
            schedule = ScheduleExplorer(seed, config).explore()
            transitions = sum(
                1
                for s in schedule.steps
                if s.kind in ("add_node", "drain_node", "remove_node")
            )
            assert transitions <= config.max_membership

    def test_churn_knobs_leave_legacy_schedules_identical(self):
        """Rate-guard regression: knobs at 0 must not shift the rng."""
        before = ScheduleExplorer(
            9, DstConfig(sessions=2, ops_per_session=20)
        ).explore()
        again = ScheduleExplorer(
            9, DstConfig(sessions=2, ops_per_session=20, max_membership=99)
        ).explore()
        # The config itself serialises verbatim; the *step stream* is
        # what must not shift while the rates stay 0.
        assert [s.to_json() for s in before.steps] == [
            s.to_json() for s in again.steps
        ]


class TestStepSemantics:
    def test_steps_round_trip_and_replay_bit_identically(self):
        config = Layers.parse("faulty+membership").config(
            sessions=2, ops_per_session=12
        )
        schedule = ScheduleExplorer(_churny_seed(config), config).explore()
        first = run_schedule(schedule)
        second = run_schedule(Schedule.loads(schedule.dumps()))
        assert first.digest == second.digest
        assert first.ok == second.ok

    def test_second_transition_reports_busy(self):
        config = DstConfig(sessions=1, ops_per_session=3)
        schedule = ScheduleExplorer(0, config).explore()
        schedule.steps.insert(0, Step("add_node"))
        schedule.steps.insert(1, Step("add_node"))
        result = run_schedule(schedule)
        outcomes = [o for o in result.outcomes if o.startswith(("add", "busy"))]
        assert outcomes[0].startswith("add:")
        assert outcomes[1] == "busy"
        assert result.ok, [v.detail for v in result.violations]

    def test_departure_of_unknown_node_reports_no_such_node(self):
        config = DstConfig(sessions=1, ops_per_session=3)
        schedule = ScheduleExplorer(0, config).explore()
        schedule.steps.insert(0, Step("drain_node", args={"node": 77}))
        result = run_schedule(schedule)
        assert "no_such_node" in result.outcomes
        assert result.ok

    def test_rebalance_without_a_window_is_idle(self):
        config = DstConfig(sessions=1, ops_per_session=3)
        schedule = ScheduleExplorer(0, config).explore()
        schedule.steps.insert(0, Step("rebalance", args={"max": 8}))
        result = run_schedule(schedule)
        assert "idle" in result.outcomes
        assert result.ok

    def test_quiesce_closes_windows_a_schedule_left_open(self):
        """A shrunk schedule may drop every rebalance step; the V7
        oracle still requires a closed window, so quiesce must drain."""
        config = DstConfig(sessions=1, ops_per_session=5)
        schedule = ScheduleExplorer(0, config).explore()
        schedule.steps.insert(len(schedule.steps) // 2, Step("add_node"))
        result = run_schedule(schedule)
        assert result.ok, [v.detail for v in result.violations]


class TestSweepPlumbing:
    def test_sweep_config_layers_membership(self):
        config = sweep_config(4, Layers.parse("membership"))
        assert config.membership_rate > 0
        assert config.rebalance_rate > 0

    def test_sweep_config_default_is_churn_off(self):
        config = sweep_config(seed=4)
        assert config.membership_rate == 0.0
        assert config.rebalance_rate == 0.0

    def test_membership_layers_over_faulty_and_corruption(self):
        odd = sweep_config(5, Layers.parse("membership"))  # odd seed: faulty
        assert odd.crash_rate > 0 and odd.membership_rate > 0
        storm = sweep_config(6, Layers.parse("corruption+membership"))
        assert storm.bitrot_rate > 0 and storm.membership_rate > 0
