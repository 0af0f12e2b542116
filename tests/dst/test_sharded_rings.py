"""DST coverage for sharded NameRings, as fast tier-1 slices.

The nightly DST matrix sweeps hundreds of seeds with ``--layers
sharded``.  These slices keep the same ground covered on every run: V1-V8
stay green with sharding armed on a fault-free and on a faulty seed, a
fixed run of seeds crosses every layout transition (split, reshard,
and the collapse GC's compaction makes), and the ``sharded`` layer
arms the DST-sized thresholds on top of the fault mix.
"""

from dataclasses import replace

from repro.dst.cli import sweep_config
from repro.dst.explorer import ScheduleExplorer
from repro.dst.layers import Layers
from repro.dst.runner import run_schedule, run_seed

#: Seeds 10-21 of the sharded sweep split 16 times and reshard 3 times;
#: both of their collapses happen in GC's compaction pass.
TRANSITION_SEEDS = range(10, 22)


class TestShardedRuns:
    def test_fault_free_seed_passes(self):
        config = sweep_config(0, Layers.parse("sharded"))
        assert config.crash_rate == 0.0
        result = run_seed(0, config)
        assert result.ok, [v.detail for v in result.violations]
        assert result.model_checked

    def test_faulty_seed_passes(self):
        config = sweep_config(1, Layers.parse("sharded"))
        assert config.crash_rate > 0.0
        result = run_seed(1, config)
        assert result.ok, [v.detail for v in result.violations]

    def test_seeds_cross_every_layout_transition(self):
        totals = dict.fromkeys(("splits", "reshards", "collapses"), 0)
        for seed in TRANSITION_SEEDS:
            config = sweep_config(seed, Layers.parse("sharded"))
            result = run_schedule(
                ScheduleExplorer(seed, config).explore(), keep_fs=True
            )
            assert result.ok, (seed, [v.detail for v in result.violations])
            for key in totals:
                totals[key] += sum(
                    mw.metrics.counter(f"shard.{key}").value
                    for mw in result.fs.middlewares
                )
        assert all(totals.values()), totals


class TestShardedConfig:
    def test_sweep_config_arms_thresholds_over_the_fault_mix(self):
        config = sweep_config(1, Layers.parse("sharded"))
        assert config.sharded_rings
        assert (
            config.shard_split_threshold,
            config.shard_merge_threshold,
            config.shard_target_entries,
        ) == (8, 3, 5)
        faulty = sweep_config(1)
        unsharded = replace(
            config,
            sharded_rings=faulty.sharded_rings,
            shard_split_threshold=faulty.shard_split_threshold,
            shard_merge_threshold=faulty.shard_merge_threshold,
            shard_target_entries=faulty.shard_target_entries,
        )
        assert unsharded == faulty
