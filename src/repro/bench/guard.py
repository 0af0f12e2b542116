"""Bench-trajectory regression guard: fail CI when a guarded metric moves.

Compares a freshly generated set of trajectory artifacts (the
*candidate*) against the committed set (the *baseline*) and fails when
any guarded metric differs from its baseline value, in either
direction:

* every per-operation ``mean_ms`` in ``BENCH_headline.json``,
* ``sim_makespan_ms`` of every artifact,
* ``background_ms`` of the maintenance artifact,
* the traffic sections' ``store_gets`` / ``store_puts`` with the
  flags on (the tentpole win must not silently erode),
* the rebalance artifact's steady-state and mid-migration p99
  latencies (a node join must stay cheap for live clients),
* the scale artifact's fleet throughput (guarded as its inverse,
  ms-per-kop), fleet p99 overall and per op class, and the
  worst-tenant p99 from the scenario suite's SLO report cards,
* the partition artifact's per-phase write p99 and unavailable rate
  (1 - ack_rate) -- the hinted-handoff availability win under a live
  cut must not silently erode,
* the hugedir artifact's per-op insert/list bytes for both layouts and
  the hotspot phase's per-class p99 for both layouts -- the sub-linear
  per-op cost that justifies sharded NameRings must not regress back
  toward O(m).

Every artifact is deterministic for a given scale (the simulated
clock is the only time source), so any drift is a real behavioural
change, not noise.  A faster figure fails too: a change that means to
move a figure regenerates the committed baseline and says why.  Each
moved metric is printed as ``label: old -> new``.

    python -m repro.bench guard --baseline-dir . --candidate-dir results/
"""

from __future__ import annotations

import json
from pathlib import Path

ARTIFACTS = (
    "BENCH_headline.json",
    "BENCH_maintenance.json",
    "BENCH_rebalance.json",
    "BENCH_scale.json",
    "BENCH_partition.json",
    "BENCH_hugedir.json",
)

class GuardError(Exception):
    """A guarded artifact is missing or unreadable."""


def _load(directory: str | Path, name: str) -> dict:
    path = Path(directory) / name
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise GuardError(f"missing artifact: {path}") from None
    except json.JSONDecodeError as exc:
        raise GuardError(f"unreadable artifact {path}: {exc}") from None


def _guarded_metrics(doc: dict) -> dict[str, float]:
    """The flat (label -> value) map of guarded metrics in one artifact."""
    metrics: dict[str, float] = {"sim_makespan_ms": doc["sim_makespan_ms"]}
    for op, stats in doc.get("ops", {}).items():
        metrics[f"ops.{op}.mean_ms"] = stats["mean_ms"]
    if "background_ms" in doc:
        metrics["background_ms"] = doc["background_ms"]
    optimized = doc.get("traffic", {}).get("optimized", {})
    for key in ("store_gets", "store_puts"):
        if key in optimized:
            metrics[f"traffic.optimized.{key}"] = optimized[key]
    for phase in ("steady", "migration"):
        stats = doc.get(phase, {})
        for key in ("read_p99_ms", "write_p99_ms"):
            if key in stats:
                metrics[f"{phase}.{key}"] = stats[key]
    fleet = doc.get("fleet", {})
    if fleet.get("ops_per_sec"):
        # Guarded as its inverse so every scale figure reads as a cost.
        metrics["fleet.ms_per_kop"] = 1e6 / fleet["ops_per_sec"]
    if "latency" in fleet:
        metrics["fleet.p99_ms"] = fleet["latency"]["p99_ms"]
    for cls, stats in fleet.get("classes", {}).items():
        metrics[f"fleet.{cls}.p99_ms"] = stats["p99_ms"]
    worst = doc.get("worst_tenant", {})
    if "p99_ms" in worst:
        metrics["worst_tenant.p99_ms"] = worst["p99_ms"]
    for point in doc.get("sweep", []):
        m = point.get("m")
        for side in ("mono", "sharded"):
            costs = point.get(side, {})
            for op in ("insert", "list_page"):
                if op in costs:
                    metrics[f"sweep.m{m}.{side}.{op}.bytes_in"] = costs[op][
                        "bytes_in"
                    ]
                    metrics[f"sweep.m{m}.{side}.{op}.bytes_out"] = costs[op][
                        "bytes_out"
                    ]
    for side in ("mono", "sharded"):
        classes = doc.get("hotspot", {}).get(side, {}).get("classes", {})
        for cls, stats in classes.items():
            metrics[f"hotspot.{side}.{cls}.p99_ms"] = stats["p99_ms"]
    if "hints_on" in doc:
        for phase in ("hints_off", "hints_on"):
            stats = doc.get(phase, {})
            if "write_p99_ms" in stats:
                metrics[f"{phase}.write_p99_ms"] = stats["write_p99_ms"]
            if "ack_rate" in stats:
                # Guarded as its complement so the figure reads as a cost.
                metrics[f"{phase}.unavailable_rate"] = round(
                    1.0 - stats["ack_rate"], 4
                )
    return metrics


def compare(baseline_dir: str | Path, candidate_dir: str | Path) -> list[str]:
    """One ``label: old -> new`` line per guarded metric that moved."""
    violations: list[str] = []
    for name in ARTIFACTS:
        base_doc = _load(baseline_dir, name)
        cand_doc = _load(candidate_dir, name)
        if base_doc.get("scale") != cand_doc.get("scale"):
            violations.append(
                f"{name}: scale mismatch ({base_doc.get('scale')} vs "
                f"{cand_doc.get('scale')}) -- regenerate at the same scale"
            )
            continue
        base_metrics = _guarded_metrics(base_doc)
        cand_metrics = _guarded_metrics(cand_doc)
        for label, base_value in sorted(base_metrics.items()):
            if label not in cand_metrics:
                violations.append(f"{name}: {label} vanished from candidate")
                continue
            cand_value = cand_metrics[label]
            if cand_value != base_value:
                violations.append(f"{name}: {label}: {base_value} -> {cand_value}")
    return violations


def run_guard(baseline_dir: str | Path, candidate_dir: str | Path) -> int:
    """CLI body: print the verdict, return the exit code."""
    try:
        violations = compare(baseline_dir, candidate_dir)
    except GuardError as exc:
        print(f"guard: {exc}")
        return 2
    if violations:
        print(f"guard: {len(violations)} guarded metric(s) moved")
        for line in violations:
            print(f"  {line}")
        return 1
    print("guard: every guarded metric equals the baseline")
    return 0
