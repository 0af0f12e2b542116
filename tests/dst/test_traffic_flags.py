"""DST coverage for the traffic-reduction flags (PR 5).

The nightly DST matrix runs hundreds of seeds with ``--layers
traffic``; these are the fast PR-tier slices of that: the oracle stays
green with the whole layer on, the ``flush_groups`` step round-trips, and the layer plumbing
(CLI -> DstConfig -> H2Config) is intact.
"""

from repro.dst.cli import sweep_config
from repro.dst.explorer import DstConfig, ScheduleExplorer
from repro.dst.layers import Layers
from repro.dst.runner import run_schedule, run_seed
from repro.dst.schedule import Schedule, Step


class TestFlagsOnRuns:
    def test_clean_seed_passes_with_traffic_flags(self):
        config = Layers.parse("traffic").config(sessions=2, ops_per_session=10)
        result = run_seed(3, config)
        assert result.ok, [v.detail for v in result.violations]
        assert result.model_checked

    def test_faulty_seed_passes_with_traffic_flags(self):
        config = Layers.parse("faulty+traffic").config(sessions=2, ops_per_session=10)
        result = run_seed(7, config)
        assert result.ok, [v.detail for v in result.violations]

    def test_flags_on_schedules_contain_flush_steps(self):
        config = Layers.parse("traffic").config(sessions=2, ops_per_session=25)
        schedule = ScheduleExplorer(1, config).explore()
        kinds = {step.kind for step in schedule.steps}
        assert "flush_groups" in kinds

    def test_flags_off_schedules_do_not(self):
        schedule = ScheduleExplorer(
            1, DstConfig(sessions=2, ops_per_session=25)
        ).explore()
        assert all(s.kind != "flush_groups" for s in schedule.steps)


class TestFlushGroupsStep:
    def test_step_is_replayable_and_deterministic(self):
        config = Layers.parse("traffic").config(sessions=2, ops_per_session=8)
        schedule = ScheduleExplorer(11, config).explore()
        first = run_schedule(schedule)
        second = run_schedule(Schedule.loads(schedule.dumps()))
        assert first.digest == second.digest

    def test_flushed_group_leaves_nothing_for_the_next_flush(self):
        config = Layers.parse("traffic").config(sessions=1, ops_per_session=1)
        schedule = ScheduleExplorer(0, config).explore()
        schedule.steps.append(Step("flush_groups", args={"mw": 0}))
        schedule.steps.append(Step("flush_groups", args={"mw": 0}))
        result = run_schedule(schedule)
        assert result.outcomes[-1] == "flushed:0"  # second flush: no-op


class TestSweepPlumbing:
    def test_sweep_config_layers_traffic_flags(self):
        config = sweep_config(4, Layers.parse("traffic"))
        assert config.negative_cache
        assert config.group_commit
        assert config.gossip_digests
        assert config.memoize_serialization
        assert config.flush_rate > 0

    def test_sweep_config_default_is_flags_off(self):
        config = sweep_config(seed=4)
        assert not config.negative_cache
        assert not config.group_commit
        assert config.flush_rate == 0.0

    def test_traffic_layers_over_the_faulty_mix(self):
        config = sweep_config(5, Layers.parse("traffic"))  # odd seed: faulty
        assert config.crash_rate > 0  # the base mix survives layering
        assert config.group_commit
