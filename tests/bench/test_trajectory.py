"""Bench-trajectory artifacts: shape, determinism, CLI plumbing."""

import json

from repro.bench.trajectory import FORMAT, headline_trajectory, maintenance_trajectory


class TestHeadline:
    def test_shape(self):
        doc = headline_trajectory()
        assert doc["format"] == FORMAT
        assert doc["artifact"] == "headline"
        assert doc["sim_makespan_ms"] > 0
        for op in ("mkdir", "write", "read", "list", "move", "delete"):
            stats = doc["ops"][op]
            assert stats["count"] > 0
            assert 0 < stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
            assert stats["p99_ms"] <= stats["max_ms"]
        assert doc["store"]["puts"] > 0
        assert 0 <= doc["fd_cache_hit_rate"] <= 1

    def test_deterministic(self):
        assert headline_trajectory() == headline_trajectory()


class TestMaintenance:
    def test_shape(self):
        doc = maintenance_trajectory()
        assert doc["artifact"] == "maintenance"
        totals = doc["totals"]
        assert totals["patches_submitted"] > 0
        assert totals["merges"] > 0
        assert totals["patches_applied"] >= totals["merges"]
        assert len(doc["per_node"]) == 3
        assert doc["gossip"]["rumors_delivered"] > 0
        assert doc["gc"]["swept"] > 0


class TestArtifacts:
    def test_write_all_files(self, bench_trajectory):
        written = bench_trajectory.written
        assert [p.name for p in written] == [
            "BENCH_headline.json",
            "BENCH_maintenance.json",
            "BENCH_rebalance.json",
            "BENCH_partition.json",
            "BENCH_scale.json",
            "BENCH_hugedir.json",
        ]
        for path in written[:4]:
            doc = json.loads(path.read_text())
            assert doc["format"] == FORMAT
        scale_doc = json.loads(written[4].read_text())
        assert scale_doc["format"] == "h2cloud-bench-scale-v1"
        assert scale_doc["scale"] == "smoke"
        hugedir_doc = json.loads(written[5].read_text())
        assert hugedir_doc["artifact"] == "hugedir"

    def test_bench_cli_trajectory(self, bench_trajectory):
        assert bench_trajectory.code == 0
        assert "BENCH_headline.json" in bench_trajectory.stdout
        assert (bench_trajectory.out / "BENCH_maintenance.json").exists()
        assert (bench_trajectory.out / "BENCH_rebalance.json").exists()
