"""The tentpole's acceptance thresholds, pinned as tests.

The bench trajectory's traffic sections must keep showing the paper's
traffic wins with the flags on: >= 30% fewer store GETs on the fig 13
cold-walk + ``exists()``-heavy workload, and >= 2x fewer PUTs on the
fig 12 mkdir storm.  Both workloads are deterministic, so these are
exact-behaviour tests, not flaky perf assertions.
"""

from dataclasses import replace

from repro.bench.guard import compare, run_guard
from repro.bench.trajectory import (
    _lookup_workload_traffic,
    _mkdir_storm_traffic,
    headline_trajectory,
    maintenance_trajectory,
)
from repro.core.middleware import H2Config


class TestLookupTraffic:
    def test_get_reduction_meets_threshold(self):
        base = _lookup_workload_traffic(H2Config())
        opt = _lookup_workload_traffic(H2Config().with_traffic_flags())
        assert base["store_gets"] > 0
        reduction = 1.0 - opt["store_gets"] / base["store_gets"]
        assert reduction >= 0.30
        # The win comes from the negative cache absorbing revalidations.
        assert base["negative_hits"] == 0
        assert opt["negative_hits"] > 0
        assert opt["revalidations"] < base["revalidations"]

    def test_read_only_workload(self):
        stats = _lookup_workload_traffic(H2Config())
        assert stats["store_puts"] == 0


class TestMkdirStormTraffic:
    def test_put_ratio_meets_threshold(self):
        base = _mkdir_storm_traffic(H2Config())
        opt = _mkdir_storm_traffic(
            replace(
                H2Config().with_traffic_flags(),
                group_commit_window_us=2_000_000,
            )
        )
        assert base["store_puts"] / opt["store_puts"] >= 2.0
        # Group commit and rumor coalescing both have to fire for the
        # ratio to hold -- pin them so a silent flag-off shows up here.
        assert base["group_commits"] == 0
        assert opt["group_commits"] > 0
        assert opt["patches_coalesced"] > 0
        assert opt["rumors_sent"] < base["rumors_sent"]


class TestArtifactSections:
    def test_headline_embeds_traffic_section(self):
        doc = headline_trajectory()
        traffic = doc["traffic"]
        assert traffic["get_reduction"] >= 0.30
        assert traffic["baseline"]["store_gets"] > traffic["optimized"]["store_gets"]

    def test_maintenance_embeds_traffic_section(self):
        doc = maintenance_trajectory()
        traffic = doc["traffic"]
        assert traffic["put_ratio"] >= 2.0
        assert traffic["baseline"]["store_puts"] > traffic["optimized"]["store_puts"]


class TestGuard:
    def _write_pair(self, directory, headline, maintenance):
        import json

        (directory / "BENCH_headline.json").write_text(json.dumps(headline))
        (directory / "BENCH_maintenance.json").write_text(json.dumps(maintenance))
        # A guard run needs the full artifact set; the rebalance doc is
        # constant across these scenarios.
        rebalance = {
            "scale": headline["scale"],
            "sim_makespan_ms": 300.0,
            "steady": {"read_p99_ms": 5.0, "write_p99_ms": 20.0},
            "migration": {"read_p99_ms": 6.0, "write_p99_ms": 22.0},
        }
        (directory / "BENCH_rebalance.json").write_text(json.dumps(rebalance))
        scale = {
            "scale": headline["scale"],
            "sim_makespan_ms": 400.0,
            "fleet": {
                "ops_per_sec": 1000.0,
                "latency": {"p99_ms": 8.0},
                "classes": {"data_read": {"p99_ms": 4.0}},
            },
            "worst_tenant": {"p99_ms": 12.0},
        }
        (directory / "BENCH_scale.json").write_text(json.dumps(scale))
        partition = {
            "scale": headline["scale"],
            "sim_makespan_ms": 500.0,
            "hints_off": {"ack_rate": 0.8, "write_p99_ms": 50.0},
            "hints_on": {"ack_rate": 1.0, "write_p99_ms": 52.0},
        }
        (directory / "BENCH_partition.json").write_text(json.dumps(partition))
        hugedir = {
            "scale": headline["scale"],
            "sim_makespan_ms": 600.0,
            "sweep": [],
            "hotspot": {},
        }
        (directory / "BENCH_hugedir.json").write_text(json.dumps(hugedir))

    def _docs(self):
        headline = {
            "scale": "quick",
            "sim_makespan_ms": 100.0,
            "ops": {"mkdir": {"mean_ms": 50.0}},
            "traffic": {"optimized": {"store_gets": 100, "store_puts": 0}},
        }
        maintenance = {
            "scale": "quick",
            "sim_makespan_ms": 200.0,
            "background_ms": 40.0,
            "traffic": {"optimized": {"store_gets": 10, "store_puts": 30}},
        }
        return headline, maintenance

    def test_identical_pair_passes(self, tmp_path):
        headline, maintenance = self._docs()
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        self._write_pair(base, headline, maintenance)
        self._write_pair(cand, headline, maintenance)
        assert compare(base, cand) == []
        assert run_guard(base, cand) == 0

    def test_slowdown_past_tolerance_fails(self, tmp_path):
        headline, maintenance = self._docs()
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        self._write_pair(base, headline, maintenance)
        headline["ops"]["mkdir"]["mean_ms"] *= 1.25
        maintenance["traffic"]["optimized"]["store_puts"] *= 2
        self._write_pair(cand, headline, maintenance)
        violations = compare(base, cand)
        assert any("ops.mkdir.mean_ms" in v for v in violations)
        assert any("traffic.optimized.store_puts" in v for v in violations)
        assert run_guard(base, cand) == 1

    def test_any_change_fails(self, tmp_path, capsys):
        # The metrics are deterministic, so even a faster figure or a
        # 0.1% drift is a behavioural change the baseline must record.
        headline, maintenance = self._docs()
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        self._write_pair(base, headline, maintenance)
        headline["ops"]["mkdir"]["mean_ms"] = 40.0  # faster: 50.0 -> 40.0
        maintenance["background_ms"] = 40.04  # +0.1%
        self._write_pair(cand, headline, maintenance)
        assert compare(base, cand) == [
            "BENCH_headline.json: ops.mkdir.mean_ms: 50.0 -> 40.0",
            "BENCH_maintenance.json: background_ms: 40.0 -> 40.04",
        ]
        assert run_guard(base, cand) == 1
        out = capsys.readouterr().out
        assert "ops.mkdir.mean_ms: 50.0 -> 40.0" in out

    def test_missing_artifact_is_usage_error(self, tmp_path):
        headline, maintenance = self._docs()
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        self._write_pair(base, headline, maintenance)
        assert run_guard(base, cand) == 2

    def test_scale_mismatch_is_a_violation(self, tmp_path):
        headline, maintenance = self._docs()
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        self._write_pair(base, headline, maintenance)
        headline["scale"] = maintenance["scale"] = "full"
        self._write_pair(cand, headline, maintenance)
        assert any("scale mismatch" in v for v in compare(base, cand))

    def test_committed_baseline_matches_regenerated(self, bench_trajectory):
        """The repo-root artifacts must stay in sync with the code."""
        from pathlib import Path

        from repro.bench.harness import bench_scale

        repo_root = Path(__file__).resolve().parents[2]
        if not (repo_root / "BENCH_headline.json").exists():
            import pytest

            pytest.skip("no committed baseline at the repo root")
        import json

        committed = json.loads((repo_root / "BENCH_headline.json").read_text())
        if committed.get("scale") != bench_scale():
            import pytest

            pytest.skip("committed baseline generated at a different scale")
        assert bench_trajectory.code == 0
        assert run_guard(repo_root, bench_trajectory.out) == 0
