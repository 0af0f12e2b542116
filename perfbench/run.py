"""The repo benchmark: H2Cloud on both clocks, end to end and per layer.

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 50 --trace 0

Runs one named workload (``paper-mix`` and ``hugedir-hot``, the two in
BENCHMARK.json, or ``fault-storm``; see each module's docstring for its
shape and why it was chosen) against the public API -- ``repro.core.H2CloudFS`` on
``repro.simcloud.SwiftCluster.rack_scale()`` -- from this checkout's
``src/``.  Inputs are generated from ``--seed`` before anything is
timed.  Then:

``--trace 0``
    Episodes (fresh set-up + timed phase over identical inputs) repeat
    for about ``--seconds`` of wall time, at least the workload's
    ``MIN_EPISODES``; set-up runs at least three times.  Each op's wall
    time is its median over the episodes and ``ops_per_s`` uses the
    median timed phase; simulated metrics are checked identical across
    episodes.  Prints the end-to-end metrics.
``--trace 1``
    One untraced episode, then one traced episode with every layer's
    entry points wrapped (see ``layers.py``).  The traced episode must
    reproduce the untraced one's simulated metrics and final-state
    digest exactly.  Prints the per-layer metrics; the spans go to
    ``perfbench/out/``.

After the last episode the workload's correctness gate runs.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is 0 only if
every check passed.  Only the stdlib and ``src/`` are imported.

The benchmark's own tests: ``PYTHONPATH=src python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program sources at {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import fault_storm  # noqa: E402
import harness  # noqa: E402
import hugedir_hot  # noqa: E402
import layers  # noqa: E402
import paper_mix  # noqa: E402

WORKLOADS = {m.NAME: m for m in (paper_mix, hugedir_hot, fault_storm)}
MIN_SETUPS = 3
OUT = HERE / "out"


def episode(workload, inputs, spans: layers.SpanRecorder | None = None):
    """One set-up + timed phase; returns ``(Episode, fs)``.

    Each measured stretch starts from a freshly collected heap.
    """
    gc.collect()
    fs, setup_s = harness.timed(workload.setup, inputs)
    gc.collect()
    before = layers.counters(fs)
    log = harness.OpLog(fs.clock, spans)
    if spans is None:
        t0 = perf_counter()
        wrong = workload.run(fs, inputs, log)
        timed_s = perf_counter() - t0
    else:
        with layers.installed(spans):
            t0 = perf_counter()
            wrong = workload.run(fs, inputs, log)
            timed_s = perf_counter() - t0
    after = layers.counters(fs)
    digest = harness.state_digest(fs)
    space_amp = harness.stored_bytes(fs) / workload.declared_bytes(inputs, log)
    ep = harness.Episode(
        setup_s=setup_s,
        timed_s=timed_s,
        log=log,
        digest=digest,
        space_amp=space_amp,
        sim_fingerprint=harness.sim_fingerprint(log),
        failures=list(wrong),
        layer_counts={k: after[k] - before[k] for k in after},
    )
    return ep, fs


def same_simulation(a: harness.Episode, b: harness.Episode) -> bool:
    return (
        a.sim_fingerprint == b.sim_fingerprint
        and a.digest == b.digest
        and a.space_amp == b.space_amp
        and a.layer_counts == b.layer_counts
    )


def measure(workload, inputs, seconds: float):
    """The untraced run: episodes for about ``seconds``, then the gate.

    The workload's ``MIN_EPISODES`` always run; after them, another
    episode starts only if one more of average length would end within
    ``seconds`` of the first's start.
    """
    episodes: list[harness.Episode] = []
    start = perf_counter()
    while len(episodes) < workload.MIN_EPISODES or (
        (perf_counter() - start) * (len(episodes) + 1) / len(episodes) <= seconds
    ):
        fs = None  # free the previous deployment before building the next
        ep, fs = episode(workload, inputs)
        episodes.append(ep)
    failures = [f for ep in episodes for f in ep.failures]
    failures += workload.gate(fs, inputs, episodes[-1].log)
    fs = None
    setups = [ep.setup_s for ep in episodes]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        setups.append(harness.timed(workload.setup, inputs)[1])
    if not all(same_simulation(episodes[0], ep) for ep in episodes):
        failures.append("episodes over identical inputs simulated differently")
    return episodes, setups, failures


def traced(workload, inputs):
    """One untraced and one traced episode, then the gate."""
    plain, fs = episode(workload, inputs)
    fs = None
    spans = layers.SpanRecorder()
    ep, fs = episode(workload, inputs, spans)
    failures = plain.failures + ep.failures + workload.gate(fs, inputs, ep.log)
    if not same_simulation(plain, ep):
        failures.append("tracing changed the simulation (sim metrics or digest)")
    spans.write(OUT / f"spans-{workload.NAME}.csv")

    def ops_per_s(e):
        return (e.log.attempted - e.log.failed) / e.timed_s

    metrics = layers.per_layer(
        spans,
        ep.layer_counts,
        ep.log.attempted,
        fs.store.object_count,
        ops_per_s(plain) / ops_per_s(ep),
    )
    own, _ = spans.times()
    return ep, metrics, own, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t0 = perf_counter()
    inputs = workload.make_inputs(args.seed)
    gen_s = perf_counter() - t0
    lines = [
        f"workload {workload.NAME}  seed {args.seed}  trace {args.trace}",
        f"shape {json.dumps(workload.SHAPE, sort_keys=True)}",
        f"inputs generated in {gen_s:.2f}s (untimed)",
    ]
    if args.trace:
        ep, metrics, own, failures = traced(workload, inputs)
        attempted, failed = ep.log.attempted, ep.log.failed
        lines.append(
            f"traced timed phase {ep.timed_s:.2f}s of {attempted} client ops; "
            "self time by layer (share of the timed phase):"
        )
        for layer, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"  {layer:<13} {seconds * 1000:11.1f} ms  {seconds / ep.timed_s:6.1%}"
            )
    else:
        episodes, setups, failures = measure(workload, inputs, args.seconds)
        metrics = harness.end_to_end(episodes, setups)
        first = episodes[0].log
        attempted, failed = first.attempted, first.failed
        lines.append(
            f"{len(episodes)} episode(s) of {attempted} client ops; timed phases "
            + ", ".join(f"{ep.timed_s:.2f}s" for ep in episodes)
            + "; set-ups " + ", ".join(f"{s:.2f}s" for s in setups)
        )
        lines.append(f"op_error_rate {failed / attempted:.6f}  digest {episodes[0].digest[:16]}")
    lines.append("metrics:")
    lines.extend(f"  {name:<30} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items())
    for failure in failures:
        lines.append(f"CHECK FAILED: {failure}")
    print("\n".join(lines))
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
