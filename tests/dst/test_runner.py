"""The deterministic runner: bit-reproducible, invariant-clean runs."""

import pytest

from repro.dst import DstConfig, Layers, ScheduleExplorer, run_schedule, run_seed
from repro.dst.cli import sweep_config
from repro.dst.runner import resolve_tweak
from repro.dst.schedule import Schedule
from repro.testing import snapshot_of

SMALL = dict(sessions=2, ops_per_session=12)


class TestDeterminism:
    def test_same_seed_identical_digest_clean(self):
        a = run_seed(4, DstConfig(**SMALL))
        b = run_seed(4, DstConfig(**SMALL))
        assert a.digest == b.digest
        assert a.tree_hash == b.tree_hash
        assert a.outcomes == b.outcomes

    def test_same_seed_identical_digest_faulty(self):
        cfg = Layers.parse("faulty").config(**SMALL)
        a = run_seed(7, cfg)
        b = run_seed(7, cfg)
        assert a.digest == b.digest
        assert a.makespan_us == b.makespan_us

    def test_serialised_schedule_replays_identically(self):
        config = Layers.parse("faulty").config(**SMALL)
        schedule = ScheduleExplorer(3, config).explore()
        direct = run_schedule(schedule)
        replayed = run_schedule(Schedule.loads(schedule.dumps()))
        assert replayed.digest == direct.digest

    def test_different_seeds_diverge(self):
        cfg = DstConfig(**SMALL)
        assert run_seed(1, cfg).digest != run_seed(2, cfg).digest


class TestInvariants:
    def test_clean_runs_check_the_model(self):
        result = run_seed(0, DstConfig(**SMALL))
        assert result.ok, [str(v) for v in result.violations]
        assert result.model_checked
        assert result.counters["ops"] == 2 * 12

    def test_smoke_sweep_is_violation_free(self):
        """The tier-1 slice of the nightly 200-seed sweep."""
        for seed in range(12):
            result = run_seed(seed, sweep_config(seed, sessions=2, ops=10))
            assert result.ok, (seed, [str(v) for v in result.violations])

    def test_faulty_runs_quiesce_to_full_health(self):
        config = Layers.parse("faulty").config(**SMALL)
        result = run_schedule(ScheduleExplorer(9, config).explore(), keep_fs=True)
        assert result.ok, [str(v) for v in result.violations]
        assert all(not n.is_down for n in result.fs.store.nodes.values())

    def test_final_tree_matches_tree_hash(self):
        from repro.testing.model import tree_hash

        result = run_seed(6, DstConfig(**SMALL))
        rerun = run_schedule(
            ScheduleExplorer(6, DstConfig(**SMALL)).explore(), keep_fs=True
        )
        assert tree_hash(snapshot_of(rerun.fs)) == result.tree_hash


class TestTweaks:
    def test_resolve_tweak_rejects_malformed_specs(self):
        with pytest.raises(ValueError):
            resolve_tweak("no-colon-here")

    def test_injected_bug_is_caught_by_the_oracle(self):
        schedule = ScheduleExplorer(2, DstConfig(**SMALL)).explore()
        schedule.tweak = "tests.dst.tweaks:drop_tombstones_on_store"
        result = run_schedule(schedule)
        assert not result.ok
        assert {v.check for v in result.violations} & {"V1", "V2", "read"}

    def test_tweaked_runs_are_still_deterministic(self):
        schedule = ScheduleExplorer(2, DstConfig(**SMALL)).explore()
        schedule.tweak = "tests.dst.tweaks:drop_tombstones_on_store"
        assert run_schedule(schedule).digest == run_schedule(schedule).digest
