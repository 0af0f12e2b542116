"""Tests for the multi-tenant scenario suite's building blocks.

Property tests (hypothesis) pin the generator laws the replay digests
depend on: same seed => identical schedule, bounded burst windows,
diurnal rates inside [trough, peak] and periodic, the tenant pseudo-
shuffle a bijection, the Zipf CDF monotone.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dst.explorer import DstConfig
from repro.dst.layers import Layers
from repro.workloads import ZipfSampler
from repro.workloads.scenarios import (
    HOTSPOT_DIR,
    SCENARIOS,
    SIM_DAY_US,
    TIERS,
    ArrivalProcess,
    BurstModel,
    DiurnalCurve,
    ScaleTier,
    ScenarioExplorer,
    ScenarioSpec,
    TenantMix,
    account_of,
    build_scenario,
    scenario_env,
    seed_layout,
)


class TestDiurnalCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalCurve(trough=0.0)
        with pytest.raises(ValueError):
            DiurnalCurve(trough=2.0, peak=1.0)
        with pytest.raises(ValueError):
            DiurnalCurve(period_us=0)

    @given(
        trough=st.floats(0.05, 1.0),
        spread=st.floats(0.0, 3.0),
        phase=st.floats(-1.0, 1.0),
        t=st.integers(0, 10 * SIM_DAY_US),
    )
    @settings(max_examples=80, deadline=None)
    def test_rate_bounded_and_periodic(self, trough, spread, phase, t):
        curve = DiurnalCurve(trough=trough, peak=trough + spread, phase=phase)
        rate = curve.rate_at(t)
        assert curve.trough - 1e-9 <= rate <= curve.peak + 1e-9
        assert math.isclose(
            rate, curve.rate_at(t + curve.period_us), rel_tol=1e-9, abs_tol=1e-9
        )

    def test_peak_to_trough_swing(self):
        curve = DiurnalCurve(trough=0.25, peak=1.75, phase=0.0)
        assert math.isclose(curve.rate_at(0), 0.25, abs_tol=1e-9)
        assert math.isclose(curve.rate_at(SIM_DAY_US // 2), 1.75, abs_tol=1e-9)


class TestBurstsAndArrivals:
    def test_burst_validation(self):
        with pytest.raises(ValueError):
            BurstModel(rate=1.5)
        with pytest.raises(ValueError):
            BurstModel(min_ops=0)
        with pytest.raises(ValueError):
            BurstModel(min_ops=9, max_ops=3)
        with pytest.raises(ValueError):
            BurstModel(squeeze=0.0)

    @given(seed=st.integers(0, 10_000), max_ops=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_burst_windows_bounded(self, seed, max_ops):
        burst = BurstModel(rate=0.3, min_ops=1, max_ops=max_ops)
        arrivals = ArrivalProcess(
            random.Random(seed), 1000.0, DiurnalCurve(), burst
        )
        now, window = 0, 0
        for _ in range(300):
            gap, opened = arrivals.next_gap(now)
            now += gap
            assert gap >= 1
            if opened:
                window = 1
            elif arrivals.in_burst:
                window += 1
            else:
                window = 0
            assert window <= max_ops  # a window never outlives its cap

    def test_diurnal_density(self):
        """Mid-day arrivals are denser than the 3am trough."""
        curve = DiurnalCurve(trough=0.2, peak=2.0, phase=0.0)
        quiet = ArrivalProcess(
            random.Random(1), 1000.0, curve, BurstModel(rate=0.0)
        )
        busy = ArrivalProcess(
            random.Random(1), 1000.0, curve, BurstModel(rate=0.0)
        )
        trough_gaps = sum(quiet.next_gap(0)[0] for _ in range(400))
        peak_gaps = sum(busy.next_gap(SIM_DAY_US // 2)[0] for _ in range(400))
        assert peak_gaps * 3 < trough_gaps

    def test_mean_gap_positive(self):
        with pytest.raises(ValueError):
            ArrivalProcess(random.Random(0), 0, DiurnalCurve(), BurstModel())


class TestTenantMix:
    @given(tenants=st.integers(1, 500), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rank_shuffle_is_bijection(self, tenants, seed):
        mix = TenantMix(tenants, 0.1, seed)
        assert {mix.tenant_at_rank(r) for r in range(tenants)} == set(
            range(tenants)
        )

    def test_anchor_is_heavy_and_stable(self):
        mix = TenantMix(1000, 0.1, seed=42)
        assert mix.is_heavy(mix.anchor_index)
        assert mix.anchor_index == TenantMix(1000, 0.1, seed=42).anchor_index

    def test_heavy_fraction_roughly_respected(self):
        mix = TenantMix(5000, 0.1, seed=7)
        heavy = sum(1 for i in range(5000) if mix.is_heavy(i))
        assert 0.05 < heavy / 5000 < 0.16

    def test_popular_tenants_dominate(self):
        mix = TenantMix(200, 0.1, seed=3, alpha=1.2)
        rng = random.Random(9)
        draws = [mix.pick(rng) for _ in range(4000)]
        assert draws.count(mix.anchor_index) > len(draws) * 0.05

    def test_zipf_cdf_monotone(self):
        cdf = ZipfSampler(n=300, alpha=1.1)._cdf
        assert all(a < b for a, b in zip(cdf, cdf[1:]))
        assert math.isclose(cdf[-1], 1.0, abs_tol=1e-9)


class TestSeedLayout:
    def test_deterministic(self):
        tier = TIERS["micro"]
        assert seed_layout(7, 3, True, False, tier) == seed_layout(
            7, 3, True, False, tier
        )

    def test_heavy_is_deeper_than_light(self):
        tier = TIERS["micro"]
        heavy_dirs, heavy_files = seed_layout(1, 0, True, False, tier)
        light_dirs, light_files = seed_layout(1, 1, False, False, tier)
        assert len(heavy_dirs) > len(light_dirs)
        assert len(heavy_files) > len(light_files)
        assert max(d.count("/") for d in heavy_dirs) == tier.heavy_depth

    def test_anchor_gets_hotspot_dir(self):
        tier = TIERS["micro"]
        dirs, files = seed_layout(1, 0, True, True, tier)
        assert HOTSPOT_DIR in dirs
        assert not any(f.startswith(HOTSPOT_DIR + "/") for f, _ in files)

    def test_files_live_in_seeded_dirs(self):
        tier = TIERS["smoke"]
        dirs, files = seed_layout(5, 9, True, False, tier)
        for path, size in files:
            assert path.rsplit("/", 1)[0] in dirs
            assert size > 0


class TestScenarioSpec:
    def test_mix_is_validated(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="bad", seed=0, tier=TIERS["micro"], mix={"explode": 1.0}
            )

    def test_json_round_trip(self):
        spec = build_scenario("sync-storm", tier="micro", seed=9)
        doc = spec.to_json()
        back = ScenarioSpec.from_json(doc, env=spec.env)
        assert back == spec

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="x", seed=0, tier=TIERS["micro"],
                mix={"read": 1.0}, storm_rate=1.5,
            )
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="x", seed=0, tier=TIERS["micro"],
                mix={"read": 1.0}, span_days=0,
            )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("does-not-exist")

    def test_tier_validation(self):
        with pytest.raises(ValueError):
            ScaleTier("bad", tenants=0, ops=1, heavy_fraction=0.1,
                      hotspot_files=1, storm_fanout=1, light_files=1,
                      heavy_files=1, heavy_depth=1)
        with pytest.raises(ValueError):
            ScaleTier("bad", tenants=1, ops=1, heavy_fraction=1.5,
                      hotspot_files=1, storm_fanout=1, light_files=1,
                      heavy_files=1, heavy_depth=1)


class TestScenarioEnv:
    def test_clean_env_has_no_faults(self):
        env = scenario_env()
        assert env.crash_rate == 0.0
        assert env.corrupt_rate == 0.0
        assert env.membership_rate == 0.0
        assert not env.check_model

    def test_flags_arm_their_subsystems(self):
        assert scenario_env(Layers.parse("faulty")).crash_rate > 0
        assert scenario_env(Layers.parse("corruption")).corrupt_rate > 0
        assert scenario_env(Layers.parse("corruption")).scrub_rate > 0
        assert scenario_env(Layers.parse("membership")).membership_rate > 0
        assert scenario_env(Layers.parse("traffic")).negative_cache
        assert scenario_env(Layers.parse("partitions")).hinted_handoff

    def test_layers_take_scenario_rates(self):
        env = scenario_env(Layers.parse("faulty+partitions"))
        dst = Layers.parse("faulty+partitions").config()
        assert 0 < env.crash_rate < dst.crash_rate
        assert 0 < env.partition_rate < dst.partition_rate

    def test_sharded_has_no_scenario_form(self):
        with pytest.raises(ValueError, match="sharded"):
            scenario_env(Layers.parse("sharded"))

    def test_split_brain_storm_takes_the_partition_layer(self):
        spec = build_scenario("split-brain-storm", tier="micro")
        expected = scenario_env(Layers.parse("faulty+partitions"))
        assert spec.env == expected


class TestExplorer:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_catalog_explores_to_budget(self, name):
        spec = build_scenario(name, tier="micro", seed=11)
        schedule = ScenarioExplorer(spec).explore()
        ops = schedule.op_count()
        assert ops >= spec.tier.ops  # batches may overshoot, never under
        assert schedule.config["scenario"]["name"] == name

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_schedule(self, seed):
        spec = build_scenario("sync-storm", tier="micro", seed=seed)
        a = ScenarioExplorer(spec).explore()
        b = ScenarioExplorer(spec).explore()
        assert a.steps == b.steps
        assert a.dumps() == b.dumps()

    def test_different_seed_different_schedule(self):
        a = ScenarioExplorer(
            build_scenario("steady-mix", tier="micro", seed=1)
        ).explore()
        b = ScenarioExplorer(
            build_scenario("steady-mix", tier="micro", seed=2)
        ).explore()
        assert a.steps != b.steps

    def test_ops_carry_tenant_accounts(self):
        schedule = ScenarioExplorer(
            build_scenario("steady-mix", tier="micro", seed=4)
        ).explore()
        op_steps = [s for s in schedule.steps if s.kind == "op"]
        accounts = {s.op.account for s in op_steps}
        assert all(a and a.startswith("t") for a in accounts)
        assert len(accounts) > 1  # genuinely multi-tenant
        for step in op_steps:
            assert step.op.account == account_of(step.session)

    def test_schedule_round_trips_json(self):
        schedule = ScenarioExplorer(
            build_scenario("hotspot-read", tier="micro", seed=6)
        ).explore()
        from repro.dst.schedule import Schedule

        assert Schedule.loads(schedule.dumps()).dumps() == schedule.dumps()

    def test_embedded_config_parses_as_dst_config(self):
        schedule = ScenarioExplorer(
            build_scenario("burst-rush", tier="micro", seed=8)
        ).explore()
        cfg = DstConfig.from_json(schedule.config)
        assert cfg.middlewares == 3
        assert not cfg.check_model

    def test_storms_fan_out_and_rename(self):
        spec = build_scenario("sync-storm", tier="micro", seed=13)
        schedule = ScenarioExplorer(spec).explore()
        kinds = [s.op.kind for s in schedule.steps if s.kind == "op"]
        writes = [
            s.op
            for s in schedule.steps
            if s.kind == "op" and s.op.kind == "write"
        ]
        assert any(op.path.endswith(".part") for op in writes)
        assert "rename" in kinds
