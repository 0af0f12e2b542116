"""The benchmark's own tests, at a tiny scale of every workload.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import layers
import run

BENCH = run.HERE
TINY = {"paper-mix": 0.05, "hugedir-hot": 0.1, "fault-storm": 0.05}
TINY_LISTS = 5  # hugedir-hot's 5% LISTs of its 100 ops at the tiny scale


SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
BENCHMARKED = [w["name"] for w in SPEC["workloads"]]


def declared(kind: str) -> set[str]:
    return {metric["name"] for metric in SPEC[kind]}


@pytest.fixture(params=sorted(run.WORKLOADS))
def workload(request):
    return run.WORKLOADS[request.param]


@pytest.fixture(params=BENCHMARKED)
def benchmarked(request):
    return run.WORKLOADS[request.param]


def tiny_inputs(workload, seed: int = 7):
    return workload.make_inputs(seed, scale=TINY[workload.NAME])


def test_same_seed_gives_the_same_simulation(workload):
    first, _ = run.episode(workload, tiny_inputs(workload))
    again, _ = run.episode(workload, tiny_inputs(workload))
    assert run.same_simulation(first, again)


def test_tracing_is_passive(workload):
    plain, _ = run.episode(workload, tiny_inputs(workload))
    traced, _ = run.episode(workload, tiny_inputs(workload), layers.SpanRecorder())
    assert run.same_simulation(plain, traced)


def test_traced_run_reports_every_layer_metric(benchmarked):
    _, metrics, own, failures = run.traced(benchmarked, tiny_inputs(benchmarked))
    assert failures == []
    assert set(metrics) == declared("per_layer")
    assert own["middleware"] > 0 and own["object_store"] > 0


def test_tiny_run_passes_the_correctness_gate(benchmarked):
    workload = benchmarked
    episodes, setups, failures = run.measure(workload, tiny_inputs(workload), seconds=0)
    assert failures == []
    assert len(setups) == run.MIN_SETUPS
    metrics = harness.end_to_end(episodes, setups)
    assert set(metrics) == declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_a_different_seed_changes_the_inputs(workload):
    assert tiny_inputs(workload, 8).ops != tiny_inputs(workload).ops


def test_seeds_reorder_the_work_without_resizing_it(benchmarked):
    def amounts(inputs):
        return sorted((op[0], len(op[2]) if op[0] == "write" else 0) for op in inputs.ops)

    assert amounts(tiny_inputs(benchmarked, 8)) == amounts(tiny_inputs(benchmarked))


def test_hugedir_seeds_compact_the_ring_equally_often():
    workload = run.WORKLOADS["hugedir-hot"]
    compactions = {
        workload.compacting_lists(kind for kind, _ in tiny_inputs(workload, seed).ops)
        for seed in range(7, 12)
    }
    assert compactions == {TINY_LISTS // 2}


def fake_episode(wall_us: list[float], timed_s: float) -> harness.Episode:
    log = harness.OpLog(clock=None)
    log.kinds = ["read", "write"] * (len(wall_us) // 2)
    log.wall_us = wall_us
    log.sim_us = [1000] * len(wall_us)
    return harness.Episode(
        setup_s=1.0, timed_s=timed_s, log=log, digest="", space_amp=1.0,
        sim_fingerprint=(), failures=[], layer_counts={},
    )


def test_a_burst_in_one_episode_stays_out_of_the_wall_metrics():
    steady = [100.0] * 200
    burst = [10_000.0] * 20 + steady[20:]
    episodes = [fake_episode(steady, 2.0), fake_episode(burst, 9.0), fake_episode(steady, 2.0)]
    metrics = harness.end_to_end(episodes, [1.0])
    assert metrics["wall_p99_us"][0] == 100.0
    assert metrics["write_wall_p50_us"][0] == 100.0
    assert metrics["ops_per_s"][0] == 200 / 2.0


def test_without_program_sources_the_command_fails(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
