"""``python -m repro dst``: exit codes and wiring."""

import json
from pathlib import Path

import pytest

from repro.dst import DstConfig, Layers, ScheduleExplorer, cli
from repro.dst.cli import main as dst_main, sweep_config, sweep_layers
from repro.dst.corpus import corpus_entry, load_case
from repro.dst.runner import run_schedule


class TestRunAndSweep:
    def test_run_clean_seed_exits_zero(self, capsys):
        assert dst_main(["run", "--seed", "0", "--sessions", "2", "--ops", "8"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_sweep_exits_zero_when_all_seeds_pass(self, capsys):
        assert dst_main(["sweep", "--seeds", "4", "--sessions", "2", "--ops", "6"]) == 0
        assert "0 failing" in capsys.readouterr().out

    def test_sweep_config_alternates_fault_profiles(self):
        assert sweep_config(0).crash_rate == 0.0
        assert sweep_config(1).crash_rate > 0.0
        assert sweep_config(0).check_model

    def test_sweep_names_each_seeds_effective_layers(self):
        traffic = Layers.parse("traffic")
        assert str(sweep_layers(4, traffic)) == "traffic"
        assert str(sweep_layers(5, traffic)) == "faulty+traffic"
        assert str(sweep_layers(5, Layers.parse("corruption"))) == "corruption"
        # ``dst run --layers <effective>`` builds the sweep's config.
        assert sweep_config(5, traffic) == Layers.parse("faulty+traffic").config()

    def test_failing_sweep_seed_prints_its_layers(self, monkeypatch, capsys):
        case = Path(__file__).resolve().parents[1] / "dst_corpus" / "seed2-a978d92008ac.json"
        failing, _ = load_case(str(case))
        monkeypatch.setattr(cli, "run_seed", lambda seed, config: run_schedule(failing))
        assert dst_main(["sweep", "--seeds", "2", "--start", "4", "--layers", "traffic"]) == 1
        out = capsys.readouterr().out
        assert "  layers: traffic\n" in out
        assert "  layers: faulty+traffic\n" in out

    @pytest.mark.parametrize("layers", ["bogus", "faulty+faulty", "", "none+faulty"])
    @pytest.mark.parametrize("command", ["run", "sweep", "shrink"])
    def test_bad_layers_are_usage_errors(self, command, layers, capsys):
        with pytest.raises(SystemExit) as exc:
            dst_main([command, "--layers", layers])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            dst_main(["frobnicate"])
        capsys.readouterr()


class TestReplay:
    def _small_schedule(self):
        return ScheduleExplorer(
            0, DstConfig(sessions=2, ops_per_session=6)
        ).explore()

    def test_replay_bare_schedule(self, tmp_path, capsys):
        schedule = self._small_schedule()
        path = tmp_path / "schedule.json"
        path.write_text(schedule.dumps(), encoding="utf-8")
        assert dst_main(["replay", str(path)]) == 0
        capsys.readouterr()

    def test_replay_detects_digest_divergence(self, tmp_path, capsys):
        schedule = self._small_schedule()
        result = run_schedule(schedule)
        doc = corpus_entry(result)
        doc["digest"] = "0" * 64  # claim a different recording
        doc["violations"] = [{"check": "V1", "detail": "fabricated"}]
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert dst_main(["replay", str(path)]) == 2
        assert "DIVERGED" in capsys.readouterr().out

    def test_replay_reproduces_a_faithful_recording(self, tmp_path, capsys):
        schedule = self._small_schedule()
        result = run_schedule(schedule)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(corpus_entry(result)), encoding="utf-8")
        assert dst_main(["replay", str(path)]) == 0
        assert "reproduced" in capsys.readouterr().out
