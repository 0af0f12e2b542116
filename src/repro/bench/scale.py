"""Scale bench: replay multi-tenant scenarios, grade per-tenant SLOs.

Executes the schedules :mod:`repro.workloads.scenarios` produces
through a multi-tenant variant of the DST runner and grades the result
like an SRE would: one *SLO report card* per activated tenant
(p50/p99 by op class, error and degraded-read counts, all fed from the
:class:`~repro.obs.metrics.MetricsRegistry`), aggregated into the
``BENCH_scale.json`` artifact the bench guard diffs run over run
(fleet ops/sec, fleet p99 per class, worst-tenant p99).

Everything is simulated-clock only -- op latencies, throughput and the
run digest never see the wall clock -- so two runs of the same
``(scenario, tier, seed)`` produce byte-identical cards, artifact and
digest.  The runner subclasses the DST :class:`~repro.dst.runner._Run`
(same step vocabulary, same fault semantics) and returns a real
:class:`~repro.dst.runner.RunResult`, so scenario schedules compose
with the corpus tooling and shrink with ``shrink(schedule, predicate,
run=lambda s: run_scale_schedule(s).result)``.

Tenants are materialised lazily on first touch: the population is
declared at schedule-build time, but accounts, starter trees and the
anchor tenant's hotspot directory (one bulk patch, up to half a
million files at the full tier) are only created when the arrival
process first routes an op at them.  Seeding time advances the
simulated clock -- provisioning is real work -- but is excluded from
the op latency it precedes.

    python -m repro scenario sync-storm --seed 7 --out results/
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..obs.critpath import OpAttribution, analyze, tail_report
from ..obs.metrics import Histogram, MetricsRegistry, percentile_of
from ..obs.timeseries import TelemetrySampler, condense_timeline
from ..simcloud.errors import FilesystemError, SimCloudError
from ..simcloud.sparse import payload_of
from ..workloads.scenarios import (
    HOTSPOT_DIR,
    SCENARIOS,
    TIERS,
    ScenarioExplorer,
    ScenarioSpec,
    account_of,
    build_scenario,
    hotspot_name,
    scenario_env,
    scenario_spec_of,
    seed_layout,
)
from ..dst.layers import Layers, layers_arg
from ..dst.oracle import InvariantViolation
from ..dst.runner import _MUTATORS, ACCOUNT, RunResult, _Run, _result
from ..dst.schedule import Schedule

SCALE_FORMAT = "h2cloud-bench-scale-v1"

#: telemetry cadence for scale runs: 60s of simulated time per window
#: keeps a smoke-tier storm (~9 sim-hours) around 500 windows.
SCALE_SAMPLE_INTERVAL_US = 60_000_000

#: per-tenant tail attribution is reported for the worst N tenants
#: only -- the full fleet would dwarf the artifact.
TAIL_TENANTS = 8

#: op kind -> SLO class.  Cards and the fleet artifact report per
#: *class*, not per kind: an SLO cares whether metadata reads are slow,
#: not whether it was ``stat`` or ``list`` that exposed it.
OP_CLASSES = {
    "read": "data_read",
    "write": "data_write",
    "list": "list",
    "stat": "meta_read",
    "mkdir": "namespace",
    "rmdir": "namespace",
    "delete": "namespace",
    "move": "namespace",
    "rename": "namespace",
    "copy": "namespace",
}

_READ_KINDS = frozenset({"read", "stat", "list"})


def _hist_ms(hist: Histogram) -> dict[str, float]:
    return {
        "count": hist.samples,
        "mean_ms": round(hist.mean / 1000.0, 3),
        "p50_ms": round(hist.percentile(0.50) / 1000.0, 3),
        "p99_ms": round(hist.percentile(0.99) / 1000.0, 3),
        "max_ms": round((hist.max or 0) / 1000.0, 3),
    }


class TenantCard:
    """One tenant's SLO report card, fed from a MetricsRegistry."""

    def __init__(self, account: str, heavy: bool):
        self.account = account
        self.heavy = heavy
        self.registry = MetricsRegistry()
        self.denied = self.registry.counter("slo.denied")
        self.unavailable = self.registry.counter("slo.unavailable")
        self.degraded_reads = self.registry.counter("slo.degraded_reads")
        self._all = self.registry.histogram("slo.all_us")
        self._classes: dict[str, Histogram] = {}

    def observe(self, kind: str, elapsed_us: int, degraded: int = 0) -> None:
        cls = OP_CLASSES[kind]
        hist = self._classes.get(cls)
        if hist is None:
            hist = self._classes[cls] = self.registry.histogram(f"slo.{cls}_us")
        hist.observe(elapsed_us)
        self._all.observe(elapsed_us)
        if degraded and kind in _READ_KINDS:
            self.degraded_reads.inc(degraded)

    @property
    def ops(self) -> int:
        return self._all.samples

    @property
    def p99_us(self) -> float:
        return self._all.percentile(0.99)

    def to_json(self) -> dict:
        return {
            "account": self.account,
            "heavy": self.heavy,
            "ops": self.ops,
            "denied": int(self.denied),
            "unavailable": int(self.unavailable),
            "errors": int(self.denied) + int(self.unavailable),
            "degraded_reads": int(self.degraded_reads),
            "latency": _hist_ms(self._all),
            "classes": {
                cls: _hist_ms(hist)
                for cls, hist in sorted(self._classes.items())
            },
        }


# ----------------------------------------------------------------------
# the multi-tenant runner
# ----------------------------------------------------------------------
class _ScenarioRun(_Run):
    """A DST run over thousands of tenant accounts with SLO timing.

    Differences from the classic run: no per-session subtrees or shared
    pool (tenants own whole accounts), client ops are timed on the
    simulated clock into per-tenant cards, LIST is paginated to the
    tier's page size (a client fetches a page, not half a million
    names), and quiesce is light -- no model oracle, no GC sweep, and
    repair/scrub only when the scenario armed faults or corruption.
    """

    def __init__(
        self,
        schedule: Schedule,
        capture_trace: bool = False,
        sample_interval_us: int | None = None,
    ):
        super().__init__(schedule, capture_trace=capture_trace)
        self.spec: ScenarioSpec = scenario_spec_of(schedule)
        self.mixer = self.spec_mixer()
        self.cards: dict[int, TenantCard] = {}
        self.fleet = MetricsRegistry()
        self._fleet_all = self.fleet.histogram("fleet.all_us")
        self._fleet_classes: dict[str, Histogram] = {}
        self.busy_us = 0
        self.seeded_files = 0
        self._materialized: set[int] = set()
        self.sampler: TelemetrySampler | None = None
        if sample_interval_us:
            self.sampler = TelemetrySampler(
                self.fs, interval_us=sample_interval_us, max_windows=1024
            )
        # With tracing on, one log entry per dispatched client op (in
        # execution order, which is also span recording order) maps
        # ``op.*`` roots back to the tenant that issued them.
        self.op_log: list[tuple[str, str]] = []  # (account, kind)

    def spec_mixer(self):
        from ..workloads.scenarios import TenantMix

        tier = self.spec.tier
        return TenantMix(
            tier.tenants,
            tier.heavy_fraction,
            self.spec.seed,
            alpha=self.spec.tenant_alpha,
        )

    # ------------------------------------------------------------------
    def setup(self) -> None:
        # No session roots, no shared pool -- tenants bring their own
        # namespaces.  The fault pump subscription is still needed so
        # scheduled crash/recover events fire mid-op.
        self._listener = self.fs.clock.subscribe(
            lambda now_us: self.cluster.failures.pump()
        )
        if self.sampler is not None:
            self.sampler.attach()

    # ------------------------------------------------------------------
    def _card(self, index: int) -> TenantCard:
        card = self.cards.get(index)
        if card is None:
            card = self.cards[index] = TenantCard(
                account_of(index), heavy=self.mixer.is_heavy(index)
            )
        return card

    def _materialize(self, index: int, mw) -> None:
        """First touch: create the account and its starter tree.

        One bulk ``write_files`` patch per seeded directory, and one
        for the anchor's whole hotspot -- n object PUTs plus O(1) ring
        round trips, the provisioning path a migration would use.
        """
        account = account_of(index)
        anchor = index == self.mixer.anchor_index
        dirs, files = seed_layout(
            self.spec.seed, index, self.mixer.is_heavy(index), anchor,
            self.spec.tier,
        )
        mw.create_account(account)
        for path in dirs:
            mw.mkdir(account, path)
        by_dir: dict[str, list] = {}
        for path, size in files:
            parent, name = path.rsplit("/", 1)
            by_dir.setdefault(parent, []).append(
                (name, payload_of(size, tag=f"{account}:{path}"))
            )
        for parent in sorted(by_dir):
            mw.write_files(account, parent, by_dir[parent])
            self.seeded_files += len(by_dir[parent])
        if anchor:
            items = [
                (
                    hotspot_name(i),
                    payload_of(96 + (i % 7) * 32, tag=f"{account}:hot:{i}"),
                )
                for i in range(self.spec.tier.hotspot_files)
            ]
            mw.write_files(account, HOTSPOT_DIR, items)
            self.seeded_files += len(items)

    # ------------------------------------------------------------------
    def _client_op(self, session: int, op) -> str:
        mw = self.fs.middlewares[session % len(self.fs.middlewares)]
        self.counters["ops"] += 1
        card = self._card(session)
        if session not in self._materialized:
            # Marked first: a fault mid-seeding leaves a partial tenant
            # (later ops may be denied), which is deterministic and the
            # honest outcome -- retrying the bulk load would double-seed.
            self._materialized.add(session)
            try:
                # Provisioning is real (clock-advancing) work but not a
                # client op: mute span retention so the trace budget is
                # spent on the ops the tail report attributes.
                with self.fs.tracer.mute():
                    self._materialize(session, mw)
            except SimCloudError as exc:
                self.counters["unavailable"] += 1
                card.unavailable.inc()
                return f"seed_unavailable:{type(exc).__name__}"
        degraded_before = mw.degraded_serves
        started = self.fs.clock.now_us
        if self.capture_trace:
            self.op_log.append((card.account, op.kind))
        try:
            result = self._dispatch(mw, op)
        except FilesystemError as exc:
            self.counters["denied"] += 1
            card.denied.inc()
            return f"denied:{type(exc).__name__}"
        except SimCloudError as exc:
            self.counters["unavailable"] += 1
            card.unavailable.inc()
            if op.kind in _MUTATORS:
                self.mutation_storage_errors += 1
            return f"unavailable:{type(exc).__name__}"
        elapsed = self.fs.clock.now_us - started
        self.busy_us += elapsed
        card.observe(op.kind, elapsed, degraded=mw.degraded_serves - degraded_before)
        cls = OP_CLASSES[op.kind]
        hist = self._fleet_classes.get(cls)
        if hist is None:
            hist = self._fleet_classes[cls] = self.fleet.histogram(
                f"fleet.{cls}_us"
            )
        hist.observe(elapsed)
        self._fleet_all.observe(elapsed)
        return result

    def _dispatch(self, mw, op) -> str:
        if op.kind == "read":
            # Seeded objects are sparse payloads (size without bytes), so
            # the classic runner's content hash is unavailable; the length
            # is deterministic for both sparse and real payloads.
            data = mw.read_file(op.account or ACCOUNT, op.path)
            return f"ok:{len(data)}"
        if op.kind == "list":
            # A scale client fetches a page, not the whole directory --
            # the half-million-entry hotspot LIST stays one ring fetch
            # plus one page either way.
            entries = mw.list_dir(
                op.account or ACCOUNT,
                op.path,
                detailed=False,
                limit=self.spec.tier.list_page,
            )
            return f"ok:{len(entries)}"
        return super()._dispatch(mw, op)

    # ------------------------------------------------------------------
    def _faults_armed(self) -> bool:
        cfg = self.cfg
        return bool(
            cfg.crash_rate
            or cfg.io_error_rate
            or cfg.bitrot_rate
            or cfg.corrupt_rate
            or cfg.membership_rate
        )

    def quiesce(self) -> None:
        """Light quiesce: heal and drain, skip the DST oracle machinery.

        No GC (a cluster-wide mark over every tenant account is a
        maintenance window, not a run epilogue) and no model
        revalidation (scenarios run model-free); repair + scrub only
        when the scenario armed faults, so clean runs do not pay a
        full-store sweep over millions of seeded objects.
        """
        fs, cluster = self.fs, self.cluster
        if self._listener is not None:
            fs.clock.unsubscribe(self._listener)
        cluster.failures.clear_pending()
        self.plan.window_us = (0, 0)
        for node_id, node in sorted(cluster.nodes.items()):
            if node.is_down:
                cluster.failures.recover_at(fs.clock.now_us, node_id)
        cluster.failures.pump()
        for breaker in fs.store.breakers.values():
            breaker.record_success(fs.clock.now_us)
        cluster.membership.quiesce()
        fs.pump()
        if self._faults_armed():
            fs.repair()
            fs.scrub()


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------
@dataclass
class ScaleReport:
    """One scenario execution: the run result plus its SLO grading."""

    spec: ScenarioSpec
    result: RunResult
    cards: list[dict]
    document: dict = field(default_factory=dict)
    # Telemetry extras (None unless the run captured them).  They live
    # outside ``cards`` on purpose: the run digest commits to the cards,
    # and observability must never change a digest.
    timeline: dict | None = None
    critpath: dict | None = None
    tenant_attribution: dict | None = None

    @property
    def digest(self) -> str:
        return self.result.digest

    def cards_text(self) -> str:
        """The canonical (byte-stable) per-tenant report-card JSON."""
        return json.dumps(self.cards, indent=2, sort_keys=True) + "\n"


#: Tenants with fewer timed ops than this are not graded for the
#: worst-tenant slot (a two-op card's "p99" is one unlucky op, and the
#: bench guard would inherit that brittleness); if no tenant clears the
#: floor (micro runs), every scored tenant is eligible.
WORST_TENANT_MIN_OPS = 16


def _worst_tenant(cards: list[TenantCard]) -> dict:
    graded = [c for c in cards if c.ops >= WORST_TENANT_MIN_OPS]
    graded = graded or [c for c in cards if c.ops]
    if not graded:
        return {}
    worst = max(graded, key=lambda c: (c.p99_us, c.account))
    return {
        "account": worst.account,
        "heavy": worst.heavy,
        "ops": worst.ops,
        "p99_ms": round(worst.p99_us / 1000.0, 3),
    }


def _tenant_attribution(
    attributions: list[OpAttribution],
    op_log: list[tuple[str, str]],
    quantile: float = 0.99,
) -> dict:
    """Per-tenant tail blame for the worst :data:`TAIL_TENANTS` tenants.

    ``op.*`` roots are recorded in dispatch order, so zipping them with
    the op log recovers each root's tenant (a span-budget overflow only
    truncates the zip -- the retained prefix stays aligned).
    """
    from ..obs.critpath import blame_summary

    by_account: dict[str, list[OpAttribution]] = {}
    for attribution, (account, _kind) in zip(attributions, op_log):
        if attribution.error is None:
            by_account.setdefault(account, []).append(attribution)
    graded = {
        account: group
        for account, group in by_account.items()
        if len(group) >= WORST_TENANT_MIN_OPS
    } or by_account
    p99 = {
        account: percentile_of(
            sorted(a.duration_us for a in group), quantile
        )
        for account, group in graded.items()
    }
    worst = sorted(graded, key=lambda acct: (-p99[acct], acct))[:TAIL_TENANTS]
    out = {}
    for account in worst:
        group = graded[account]
        tail = [a for a in group if a.duration_us >= p99[account]]
        out[account] = {
            "ops": len(group),
            "p99_ms": round(p99[account] / 1000.0, 3),
            "tail": blame_summary(tail),
        }
    return out


def run_scale_schedule(
    schedule: Schedule,
    keep_fs: bool = False,
    capture_trace: bool = False,
    sample_interval_us: int | None = None,
) -> ScaleReport:
    """Execute one scenario schedule and grade it.

    ``capture_trace`` enables span capture and the critical-path tail
    attribution; ``sample_interval_us`` attaches a telemetry sampler on
    that sim-clock cadence.  Both are passive: the run digest is byte
    identical with them on or off.
    """
    run = _ScenarioRun(
        schedule,
        capture_trace=capture_trace,
        sample_interval_us=sample_interval_us,
    )
    run.setup()
    run.execute()
    try:
        run.quiesce()
    except Exception as exc:  # noqa: BLE001 - quiesce must never fail
        run.violations.append(
            InvariantViolation("quiesce", f"{type(exc).__name__}: {exc}")
        )
    if run.sampler is not None:
        run.sampler.detach()
    cards = [
        run.cards[index].to_json() for index in sorted(run.cards)
    ]
    cards_sha = hashlib.sha256(
        json.dumps(cards, sort_keys=True).encode()
    ).hexdigest()
    # The cards stand in for the tree hash: the digest commits to every
    # per-tenant latency distribution, so a behaviour change anywhere in
    # the fleet changes the digest even though no model oracle ran.
    result = _result(run, tree=f"cards:{cards_sha}", keep_fs=keep_fs)
    report = ScaleReport(spec=run.spec, result=result, cards=cards)
    if run.sampler is not None:
        report.timeline = run.sampler.timeline()
    if capture_trace:
        attributions = analyze(run.fs.tracer)
        report.critpath = tail_report(attributions, classes=OP_CLASSES)
        report.tenant_attribution = _tenant_attribution(
            attributions, run.op_log
        )
    report.document = _scale_document(run, result, report)
    return report


def run_scenario(spec: ScenarioSpec, keep_fs: bool = False, **kwargs) -> ScaleReport:
    """Explore a spec into its schedule and execute it."""
    return run_scale_schedule(
        ScenarioExplorer(spec).explore(), keep_fs=keep_fs, **kwargs
    )


def _scale_document(
    run: _ScenarioRun, result: RunResult, report: ScaleReport | None = None
) -> dict:
    """The ``BENCH_scale.json`` body for one graded scenario run."""
    spec = run.spec
    cards = list(run.cards.values())
    timed_ops = run._fleet_all.samples
    busy_us = max(run.busy_us, 1)
    classes = {
        cls: _hist_ms(hist)
        for cls, hist in sorted(run._fleet_classes.items())
    }
    document = {
        "format": SCALE_FORMAT,
        "artifact": "scale",
        "scenario": spec.name,
        "seed": spec.seed,
        "scale": spec.tier.name,
        "sim_makespan_ms": round(result.makespan_us / 1000.0, 3),
        "population": {
            "declared": spec.tier.tenants,
            "activated": len(cards),
            "heavy_activated": sum(1 for c in cards if c.heavy),
            "seeded_files": run.seeded_files,
        },
        "fleet": {
            "ops": timed_ops,
            "denied": result.counters.get("denied", 0),
            "unavailable": result.counters.get("unavailable", 0),
            "degraded_reads": sum(int(c.degraded_reads) for c in cards),
            "busy_ms": round(run.busy_us / 1000.0, 3),
            # sim-time service throughput: ops over summed op latency --
            # wall clock never appears in the artifact.
            "ops_per_sec": round(timed_ops / (busy_us / 1e6), 1),
            "latency": _hist_ms(run._fleet_all),
            "classes": classes,
        },
        "worst_tenant": _worst_tenant(cards),
        "digest": result.digest,
    }
    # Telemetry sections are additive: the bench guard reads only its
    # guarded paths, and the digest never covers the document.
    if report is not None and report.timeline is not None:
        document["timeline"] = condense_timeline(report.timeline, keep=48)
    if report is not None and report.critpath is not None:
        document["tail_attribution"] = {
            "fleet": report.critpath,
            "tenants": report.tenant_attribution or {},
        }
    return document


def write_scale_artifact(
    out_dir: str | Path = ".",
    scenario: str = "sync-storm",
    tier: str | None = None,
    seed: int = 7,
) -> Path:
    """Generate the guarded ``BENCH_scale.json`` (the CI baseline shape).

    The default tier follows the bench scale switch: ``quick`` grades
    the smoke tier, ``REPRO_BENCH_SCALE=full`` the full tier.
    """
    from .harness import bench_scale

    if tier is None:
        tier = "full" if bench_scale() == "full" else "smoke"
    report = run_scenario(
        build_scenario(scenario, tier=tier, seed=seed),
        capture_trace=True,
        sample_interval_us=SCALE_SAMPLE_INTERVAL_US,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "BENCH_scale.json"
    path.write_text(json.dumps(report.document, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# CLI: python -m repro scenario ...
# ----------------------------------------------------------------------
def _print_report(report: ScaleReport) -> None:
    doc = report.document
    fleet, population = doc["fleet"], doc["population"]
    print(
        f"scenario {doc['scenario']} tier={doc['scale']} seed={doc['seed']}"
    )
    print(
        f"schedule: {len(report.result.schedule)} steps, "
        f"{report.result.schedule.op_count()} client op steps"
    )
    print(
        f"population: declared={population['declared']} "
        f"activated={population['activated']} "
        f"(heavy={population['heavy_activated']}) "
        f"seeded_files={population['seeded_files']}"
    )
    print(
        f"fleet: ops={fleet['ops']} denied={fleet['denied']} "
        f"unavailable={fleet['unavailable']} "
        f"degraded_reads={fleet['degraded_reads']}"
    )
    print(
        f"fleet: {fleet['ops_per_sec']} ops/sec (sim), "
        f"p50={fleet['latency']['p50_ms']}ms "
        f"p99={fleet['latency']['p99_ms']}ms"
    )
    for cls, stats in fleet["classes"].items():
        print(
            f"  {cls:10s} n={stats['count']:<7d} "
            f"p50={stats['p50_ms']}ms p99={stats['p99_ms']}ms"
        )
    worst = doc["worst_tenant"]
    if worst:
        print(
            f"worst tenant: {worst['account']} "
            f"({'heavy' if worst['heavy'] else 'light'}) "
            f"p99={worst['p99_ms']}ms over {worst['ops']} ops"
        )
    if not report.result.ok:
        for violation in report.result.violations:
            print(f"VIOLATION[{violation.check}]: {violation.detail}")
    print(f"digest: {report.digest}")


def scenario_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro scenario",
        description="replay a deterministic multi-tenant scenario",
    )
    parser.add_argument(
        "name",
        nargs="?",
        help=f"scenario name ({', '.join(sorted(SCENARIOS))}) "
        "or omit with --replay/--list",
    )
    parser.add_argument("--tier", default="smoke", choices=sorted(TIERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--layers", type=layers_arg, default=Layers(),
                        metavar="L",
                        help="failure layers at scenario rates, e.g. "
                        "faulty+membership (default: none; no sharded)")
    parser.add_argument("--telemetry", action="store_true",
                        help="capture traces + timeline; adds the "
                        "tail_attribution and timeline artifact sections")
    parser.add_argument("--out", metavar="DIR",
                        help="write BENCH_scale.json + SLO_cards.json here")
    parser.add_argument("--cards", action="store_true",
                        help="print the per-tenant SLO report cards (JSON)")
    parser.add_argument("--save", metavar="FILE",
                        help="save the explored schedule as JSON")
    parser.add_argument("--replay", metavar="FILE",
                        help="replay a saved scenario schedule instead")
    parser.add_argument("--list", action="store_true", dest="list_catalog",
                        help="list the scenario catalog and tiers")
    args = parser.parse_args(argv)

    if args.list_catalog:
        print("scenarios:", ", ".join(sorted(SCENARIOS)))
        for name, tier in TIERS.items():
            print(
                f"tier {name:6s}: {tier.tenants} tenants, {tier.ops} ops, "
                f"hotspot={tier.hotspot_files} files"
            )
        return 0

    if args.replay:
        schedule = Schedule.loads(Path(args.replay).read_text())
    else:
        if not args.name:
            parser.error("scenario name required (or --replay/--list)")
        try:
            env = scenario_env(args.layers)
        except ValueError as exc:
            parser.error(str(exc))
        spec = build_scenario(
            args.name, tier=args.tier, seed=args.seed, env=env
        )
        schedule = ScenarioExplorer(spec).explore()
    if args.save:
        Path(args.save).write_text(schedule.dumps())
        print(f"saved schedule: {args.save}")

    report = run_scale_schedule(
        schedule,
        capture_trace=args.telemetry,
        sample_interval_us=SCALE_SAMPLE_INTERVAL_US if args.telemetry else None,
    )
    _print_report(report)
    if report.critpath is not None:
        from ..obs.critpath import format_report

        print(format_report(report.critpath))
    if args.cards:
        print(report.cards_text(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        bench_path = out / "BENCH_scale.json"
        bench_path.write_text(
            json.dumps(report.document, indent=2, sort_keys=True) + "\n"
        )
        cards_path = out / "SLO_cards.json"
        cards_path.write_text(report.cards_text())
        print(f"wrote {bench_path}")
        print(f"wrote {cards_path}")
    return 0 if report.result.ok else 1
