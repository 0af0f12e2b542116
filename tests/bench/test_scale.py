"""Tests for the scale bench: scenario replay, SLO cards, guard wiring."""

import json
import shutil
from pathlib import Path

import pytest

from repro.bench.guard import _guarded_metrics, run_guard
from repro.bench.scale import (
    OP_CLASSES,
    SCALE_FORMAT,
    TenantCard,
    run_scale_schedule,
    run_scenario,
    scenario_main,
)
from repro.dst.layers import Layers
from repro.dst.schedule import Schedule
from repro.workloads.scenarios import ScenarioExplorer, build_scenario, scenario_env

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def micro_report():
    return run_scenario(build_scenario("sync-storm", tier="micro", seed=7))


class TestScenarioRun:
    def test_clean_run_is_ok(self, micro_report):
        result = micro_report.result
        assert result.ok, result.violations
        assert result.counters["denied"] == 0
        assert result.counters["unavailable"] == 0

    def test_every_op_step_graded(self, micro_report):
        doc = micro_report.document
        assert doc["fleet"]["ops"] == micro_report.result.schedule.op_count()

    def test_deterministic_digest_and_cards(self, micro_report):
        again = run_scenario(build_scenario("sync-storm", tier="micro", seed=7))
        assert again.digest == micro_report.digest
        assert again.cards_text() == micro_report.cards_text()
        assert again.document == micro_report.document

    def test_replay_from_json_matches(self, micro_report):
        schedule = ScenarioExplorer(
            build_scenario("sync-storm", tier="micro", seed=7)
        ).explore()
        replayed = run_scale_schedule(Schedule.loads(schedule.dumps()))
        assert replayed.digest == micro_report.digest

    def test_lazy_materialization(self, micro_report):
        population = micro_report.document["population"]
        assert 0 < population["activated"] <= population["declared"]
        assert population["heavy_activated"] >= 1  # the anchor showed up
        assert population["seeded_files"] > 0

    def test_faulty_run_still_deterministic(self):
        spec = build_scenario(
            "steady-mix",
            tier="micro",
            seed=5,
            env=scenario_env(Layers.parse("faulty+corruption+membership")),
        )
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert a.digest == b.digest
        assert a.cards_text() == b.cards_text()


class TestReportCards:
    def test_card_shape(self, micro_report):
        assert micro_report.cards, "no tenants graded"
        known_classes = set(OP_CLASSES.values())
        for card in micro_report.cards:
            assert card["account"].startswith("t")
            assert card["errors"] == card["denied"] + card["unavailable"]
            assert set(card["classes"]) <= known_classes
            for stats in card["classes"].values():
                assert stats["count"] > 0
                assert stats["p50_ms"] <= stats["p99_ms"] <= stats["max_ms"]

    def test_cards_sorted_by_account(self, micro_report):
        accounts = [card["account"] for card in micro_report.cards]
        assert accounts == sorted(accounts)

    def test_degraded_reads_only_on_read_classes(self):
        card = TenantCard("t000001", heavy=False)
        card.observe("write", 100, degraded=3)  # writes never degrade
        assert int(card.degraded_reads) == 0
        card.observe("read", 50, degraded=2)
        assert int(card.degraded_reads) == 2

    def test_percentiles_match_registry(self):
        card = TenantCard("t000002", heavy=True)
        for us in (100, 200, 300, 400, 1000):
            card.observe("read", us)
        snapshot = card.registry.snapshot()
        assert card.to_json()["latency"]["p99_ms"] == round(
            snapshot["slo.all_us.p99"] / 1000.0, 3
        )


class TestScaleDocument:
    def test_required_fields(self, micro_report):
        doc = micro_report.document
        assert doc["format"] == SCALE_FORMAT
        assert doc["scale"] == "micro"
        assert doc["sim_makespan_ms"] > 0
        fleet = doc["fleet"]
        assert fleet["ops_per_sec"] > 0
        assert fleet["latency"]["p99_ms"] >= fleet["latency"]["p50_ms"]
        assert doc["worst_tenant"]["p99_ms"] > 0
        assert doc["digest"] == micro_report.digest

    def test_guard_reads_scale_metrics(self, micro_report):
        metrics = _guarded_metrics(micro_report.document)
        assert "fleet.ms_per_kop" in metrics
        assert "fleet.p99_ms" in metrics
        assert "worst_tenant.p99_ms" in metrics
        assert any(key.startswith("fleet.data_write") for key in metrics)

    def test_throughput_guarded_as_inverse(self, micro_report):
        """An ops/sec drop must register as a ms-per-kop increase."""
        doc = micro_report.document
        slower = json.loads(json.dumps(doc))
        slower["fleet"]["ops_per_sec"] = doc["fleet"]["ops_per_sec"] / 2
        assert (
            _guarded_metrics(slower)["fleet.ms_per_kop"]
            > _guarded_metrics(doc)["fleet.ms_per_kop"] * 1.2
        )


class TestGuardEndToEnd:
    def _artifact_dir(self, tmp_path, name, scale_doc) -> Path:
        out = tmp_path / name
        out.mkdir()
        for artifact in (
            "BENCH_headline.json",
            "BENCH_maintenance.json",
            "BENCH_rebalance.json",
            "BENCH_partition.json",
            "BENCH_hugedir.json",
        ):
            shutil.copy(REPO_ROOT / artifact, out / artifact)
        (out / "BENCH_scale.json").write_text(
            json.dumps(scale_doc, indent=2, sort_keys=True) + "\n"
        )
        return out

    def test_identical_artifacts_pass(self, tmp_path, micro_report, capsys):
        base = self._artifact_dir(tmp_path, "base", micro_report.document)
        cand = self._artifact_dir(tmp_path, "cand", micro_report.document)
        assert run_guard(base, cand) == 0

    def test_scale_regression_fails(self, tmp_path, micro_report, capsys):
        base = self._artifact_dir(tmp_path, "base", micro_report.document)
        worse = json.loads(json.dumps(micro_report.document))
        worse["fleet"]["ops_per_sec"] /= 2  # throughput halved
        worse["worst_tenant"]["p99_ms"] *= 3  # tail blown up
        cand = self._artifact_dir(tmp_path, "cand", worse)
        assert run_guard(base, cand) == 1
        out = capsys.readouterr().out
        assert "ms_per_kop" in out
        assert "worst_tenant.p99_ms" in out

    def test_missing_scale_artifact_errors(self, tmp_path, micro_report):
        base = self._artifact_dir(tmp_path, "base", micro_report.document)
        cand = self._artifact_dir(tmp_path, "cand", micro_report.document)
        (cand / "BENCH_scale.json").unlink()
        assert run_guard(base, cand) == 2


class TestScenarioCli:
    def test_list_catalog(self, capsys):
        assert scenario_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "sync-storm" in out
        assert "tier micro" in out

    def test_micro_run_writes_artifacts(self, tmp_path, capsys):
        code = scenario_main(
            [
                "sync-storm",
                "--tier",
                "micro",
                "--seed",
                "7",
                "--out",
                str(tmp_path),
                "--cards",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "digest:" in out
        doc = json.loads((tmp_path / "BENCH_scale.json").read_text())
        assert doc["scenario"] == "sync-storm"
        cards = json.loads((tmp_path / "SLO_cards.json").read_text())
        assert cards and all("latency" in card for card in cards)

    def test_save_then_replay_round_trips(self, tmp_path, capsys):
        saved = tmp_path / "schedule.json"
        assert (
            scenario_main(
                ["steady-mix", "--tier", "micro", "--seed", "3",
                 "--save", str(saved)]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert scenario_main(["--replay", str(saved)]) == 0
        second = capsys.readouterr().out
        digest = [l for l in first.splitlines() if l.startswith("digest:")]
        assert digest == [
            l for l in second.splitlines() if l.startswith("digest:")
        ]

    def test_name_required_without_replay(self, capsys):
        with pytest.raises(SystemExit):
            scenario_main([])

    def test_layers_reach_the_saved_schedule(self, tmp_path, capsys):
        saved = tmp_path / "schedule.json"
        scenario_main(
            ["steady-mix", "--tier", "micro", "--layers", "faulty+partitions",
             "--save", str(saved)]
        )
        capsys.readouterr()
        config = Schedule.loads(saved.read_text()).config
        assert config["crash_rate"] > 0
        assert config["partition_rate"] > 0 and config["hinted_handoff"]

    @pytest.mark.parametrize("layers", ["sharded", "faulty+faulty", "bogus"])
    def test_bad_layers_are_usage_errors(self, layers, capsys):
        with pytest.raises(SystemExit) as exc:
            scenario_main(["steady-mix", "--tier", "micro", "--layers", layers])
        assert exc.value.code == 2
        capsys.readouterr()
