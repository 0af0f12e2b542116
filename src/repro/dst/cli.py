"""``python -m repro dst`` -- drive the deterministic simulator.

    dst run     --seed 7 [--layers L]
    dst sweep   --seeds 200 [--start 0] [--layers L]
    dst replay  CASE.json
    dst shrink  CASE.json | --seed 7 [--layers L]
    dst digests [--check]

``--layers`` arms a set of failure layers, written ``a+b`` over
``faulty``, ``corruption``, ``traffic``, ``membership``,
``partitions`` and ``sharded`` (``none`` by default; see
:mod:`repro.dst.layers`).  ``run`` executes one seed under those layers
and prints the verdict; ``sweep`` runs a range of seeds, adding
``faulty`` on odd seeds unless the layers already bring faults, and
names each failing seed's layer set so ``run`` reproduces it;
``replay`` re-executes a persisted corpus case and checks it reproduces
the recorded digest/verdict; ``shrink`` minimises a failing case with
ddmin and saves the result to the corpus; ``digests`` writes the
per-seed digest table ``DST_DIGESTS.json`` (seeds 0-199 of every
nightly layer set), and ``--check`` re-runs it and names every key
whose digest moved.

Exit codes: 0 clean / reproduced / unchanged, 1 invariant violations
found or digests moved, 2 usage or non-reproduction.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from . import corpus as corpus_mod
from .explorer import DstConfig, ScheduleExplorer
from .layers import LAYER_TABLE, NIGHTLY_LAYERS, Layers, layers_arg
from .runner import RunResult, run_schedule, run_seed
from .shrink import shrink


def sweep_layers(seed: int, layers: Layers) -> Layers:
    """The nightly alternation: odd seeds add ``faulty``, unless
    ``layers`` already brings faults (``faulty`` or ``corruption``), in
    which case every seed runs them."""
    if seed % 2 and "faulty" not in layers and "corruption" not in layers:
        return layers.plus("faulty")
    return layers


def sweep_config(
    seed: int, layers: Layers = Layers(), sessions: int = 3, ops: int = 25
) -> DstConfig:
    """Seed ``seed``'s config in a sweep over ``layers``: even seeds
    run fault-free (full model check) unless a layer brings faults."""
    return sweep_layers(seed, layers).config(
        sessions=sessions, ops_per_session=ops
    )


def _digest(layers: Layers, seed: int) -> str:
    return run_seed(seed, sweep_config(seed, layers)).digest[:12]


def digest_table(seeds=range(200)) -> dict[str, str]:
    """``"<layers>/<seed>"`` -> 12-hex run-digest prefix, for every
    nightly layer set."""
    return {
        f"{layers}/{seed}": _digest(layers, seed)
        for layers in NIGHTLY_LAYERS
        for seed in seeds
    }


def _report(result: RunResult, verbose: bool = True) -> None:
    print(result.summary())
    if verbose:
        for violation in result.violations:
            print(f"  [{violation.check}] {violation.detail}")


def _save_failure(result: RunResult, directory: str) -> None:
    """Persist a failing run -- and the span trace of what it was doing.

    Capture re-executes the schedule with tracing on; tracing is
    passive, so the re-run reproduces the exact same digest (asserted,
    as a live determinism check on every saved failure).
    """
    print("saved:", corpus_mod.save_case(result, directory))
    traced = run_schedule(result.schedule, capture_trace=True)
    if traced.digest != result.digest:  # pragma: no cover - would be a bug
        print("WARNING: traced re-run diverged; trace not saved")
        return
    trace_path = corpus_mod.save_trace(traced, directory)
    if trace_path:
        print("trace:", trace_path)
    critpath_path = corpus_mod.save_critpath(traced, directory)
    if critpath_path:
        print("critpath:", critpath_path)


def _cmd_run(args: argparse.Namespace) -> int:
    config = args.layers.config(sessions=args.sessions, ops_per_session=args.ops)
    result = run_seed(args.seed, config)
    _report(result)
    if result.violations and args.save_failures:
        _save_failure(result, args.save_failures)
    return 0 if result.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    failures = 0
    for seed in range(args.start, args.start + args.seeds):
        config = sweep_config(seed, args.layers, args.sessions, args.ops)
        result = run_seed(seed, config)
        if result.ok:
            if args.verbose:
                _report(result, verbose=False)
            continue
        failures += 1
        _report(result)
        print(f"  layers: {sweep_layers(seed, args.layers)}")
        if args.save_failures:
            _save_failure(result, args.save_failures)
    print(
        f"sweep: {args.seeds} seeds from {args.start}, "
        f"{failures} failing"
    )
    return 1 if failures else 0


def _cmd_digests(args: argparse.Namespace) -> int:
    path = Path(args.file)
    if not args.check:
        table = digest_table()
        path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
        print(f"wrote {len(table)} digests to {path}")
        return 0
    table = json.loads(path.read_text())
    moved = 0
    for key, pinned in table.items():
        layers, seed = key.rsplit("/", 1)
        digest = _digest(Layers.parse(layers), int(seed))
        if digest != pinned:
            moved += 1
            print(f"moved: {key} {pinned} -> {digest}")
    print(f"digests: {len(table) - moved}/{len(table)} unchanged")
    return 1 if moved else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    schedule, meta = corpus_mod.load_case(args.case)
    result = run_schedule(schedule)
    _report(result)
    if not meta:
        return 0 if result.ok else 1
    recorded_digest = meta.get("digest")
    recorded_failing = bool(meta.get("violations"))
    if recorded_digest and result.digest != recorded_digest:
        print(
            f"replay DIVERGED: digest {result.digest[:12]} != "
            f"recorded {recorded_digest[:12]}"
        )
        return 2
    if bool(result.violations) != recorded_failing:
        print("replay DIVERGED: verdict differs from the recording")
        return 2
    print("replay reproduced the recorded run")
    return 0 if result.ok else 1


def _cmd_shrink(args: argparse.Namespace) -> int:
    if args.case:
        schedule, _ = corpus_mod.load_case(args.case)
    else:
        config = args.layers.config(
            sessions=args.sessions, ops_per_session=args.ops
        )
        schedule = ScheduleExplorer(args.seed, config).explore()
    try:
        minimal, result, runs = shrink(schedule, max_runs=args.max_runs)
    except ValueError as exc:
        print(exc)
        return 2
    print(
        f"shrunk {len(schedule)} -> {len(minimal)} steps "
        f"({minimal.op_count()} ops) in {runs} runs"
    )
    _report(result)
    _save_failure(result, args.corpus)
    return 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro dst",
        description="deterministic simulation testing for H2Cloud",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sessions", type=int, default=3)
        p.add_argument("--ops", type=int, default=25, help="ops per session")
        p.add_argument(
            "--layers",
            type=layers_arg,
            default=Layers(),
            metavar="L",
            help="failure layers, e.g. faulty+partitions (default: none): "
            + ", ".join(LAYER_TABLE),
        )

    p_run = sub.add_parser("run", help="execute one seed")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--save-failures", metavar="DIR", default=None)
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute a seed range")
    p_sweep.add_argument("--seeds", type=int, default=20, help="seed count")
    p_sweep.add_argument("--start", type=int, default=0)
    p_sweep.add_argument("--save-failures", metavar="DIR", default=None)
    p_sweep.add_argument("--verbose", action="store_true")
    common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_replay = sub.add_parser("replay", help="re-execute a corpus case")
    p_replay.add_argument("case")
    p_replay.set_defaults(func=_cmd_replay)

    p_shrink = sub.add_parser("shrink", help="minimise a failing run")
    p_shrink.add_argument("case", nargs="?", default=None)
    p_shrink.add_argument("--seed", type=int, default=0)
    p_shrink.add_argument("--max-runs", type=int, default=400)
    p_shrink.add_argument("--corpus", default=corpus_mod.DEFAULT_DIR)
    common(p_shrink)
    p_shrink.set_defaults(func=_cmd_shrink)

    p_digests = sub.add_parser(
        "digests", help="write or check the per-seed digest table"
    )
    p_digests.add_argument("--file", default="DST_DIGESTS.json")
    p_digests.add_argument(
        "--check",
        action="store_true",
        help="re-run every key; exit 1 if any digest moved",
    )
    p_digests.set_defaults(func=_cmd_digests)

    args = parser.parse_args(argv)
    return args.func(args)
