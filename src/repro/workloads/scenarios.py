"""Multi-tenant production scenarios: the million-user proving ground.

The paper validates H2Cloud with figure-shaped microbenches and
replayed single-user manipulations (§5.1); production object-store
traffic is nothing like that -- it is bursty, diurnal, and heavily
skewed across hundreds of thousands of tenants, with a few heavy
accounts owning deep trees and near-half-million-file hotspot
directories.  This module turns that shape into *deterministic
schedules*: a scenario is ``(name, tier, seed)`` and nothing else, so
any run is replayable bit-for-bit, shrinkable with the DST ddmin loop,
and composable with the failure layers (:mod:`repro.dst.layers`) the
DST explorer weaves -- both explorers draw environment steps through
the one :class:`~repro.dst.explorer.EnvironmentWeaver`.

Building blocks:

* :class:`ScaleTier` -- how big: tenant population, op budget, hotspot
  directory size, sync-storm fan-out.
* :class:`DiurnalCurve` + :class:`BurstModel` + :class:`ArrivalProcess`
  -- *when* ops arrive: a day-shaped base rate with bounded
  Poisson-burst windows squeezing inter-arrival gaps.
* :class:`TenantMix` -- *who* issues them: Zipf-popular tenants over a
  light/heavy population; the single most popular tenant anchors the
  hotspot directory.
* :class:`ScenarioSpec` + the :data:`SCENARIOS` catalog -- *what* they
  do: a validated op mix (:func:`~repro.workloads.traces.validate_mix`)
  layered with Dropbox-style sync storms (write fan-out, then rename
  into place) and backup-style directory scans.
* :class:`ScenarioExplorer` -- expands a spec into one total-ordered
  :class:`~repro.dst.schedule.Schedule` whose client ops carry tenant
  accounts, ready for the scenario runner in
  :mod:`repro.bench.scale`.

Tenant trees are seeded *lazily*: the population is declared up front
(hundreds of thousands of accounts at the full tier), but only tenants
the arrival process actually activates are materialised in the store --
both the explorer and the runner derive the identical starter tree from
:func:`seed_layout`, so generated ops are always valid on a fault-free
run.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import asdict, dataclass, field

from ..dst.explorer import DstConfig, EnvironmentWeaver, weave_background
from ..dst.layers import Layers
from ..dst.ops import ClientOp
from ..dst.schedule import Schedule, Step
from .hotspots import ZipfSampler
from .traces import validate_mix

US_PER_SEC = 1_000_000
SIM_DAY_US = 24 * 3600 * US_PER_SEC

#: The heavy anchor tenant's hotspot directory (paper: "files per
#: directory range from zero to nearly half a million").
HOTSPOT_DIR = "/hot"

#: Where sync storms land (one batch directory per storm).
SYNC_DIR = "/sync"

SCENARIO_FORMAT = "h2cloud-scenario-v1"


def hotspot_name(index: int) -> str:
    return f"h{index:06d}"


# ----------------------------------------------------------------------
# scale tiers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleTier:
    """How big one scenario run is.

    ``tenants`` is the declared population; only activated tenants are
    materialised.  ``hotspot_files`` sizes the anchor tenant's single
    hot directory; the full tier's 500k reproduces the paper's
    heaviest users (and is exactly the monolithic-NameRing pain point
    ROADMAP item 1 exists to fix -- this suite is its measuring stick).
    """

    name: str
    tenants: int
    ops: int
    heavy_fraction: float
    hotspot_files: int
    storm_fanout: int  # files written (then renamed) per sync storm
    light_files: int  # starter files per light tenant
    heavy_files: int  # starter files per heavy tenant (hotspot aside)
    heavy_depth: int  # depth of a heavy tenant's seeded chain
    list_page: int = 512  # LIST pagination limit at scale

    def __post_init__(self) -> None:
        if self.tenants < 1 or self.ops < 1:
            raise ValueError("tier needs at least one tenant and one op")
        if not 0.0 <= self.heavy_fraction <= 1.0:
            raise ValueError("heavy_fraction must be in [0, 1]")
        if min(self.hotspot_files, self.storm_fanout, self.list_page) < 1:
            raise ValueError("hotspot_files/storm_fanout/list_page must be >= 1")


#: The scale ladder.  ``micro`` keeps unit tests in milliseconds;
#: ``smoke`` is the PR-CI slice (~1k accounts, ~10k ops); ``small`` is
#: a laptop-scale shakeout; ``full`` is the nightly tier with a
#: quarter-million declared accounts and the half-million-file hotspot.
TIERS: dict[str, ScaleTier] = {
    "micro": ScaleTier(
        "micro",
        tenants=24,
        ops=160,
        heavy_fraction=0.15,
        hotspot_files=64,
        storm_fanout=5,
        light_files=4,
        heavy_files=10,
        heavy_depth=6,
        list_page=64,
    ),
    "smoke": ScaleTier(
        "smoke",
        tenants=1_000,
        ops=10_000,
        heavy_fraction=0.10,
        hotspot_files=2_000,
        storm_fanout=16,
        light_files=6,
        heavy_files=24,
        heavy_depth=10,
    ),
    "small": ScaleTier(
        "small",
        tenants=20_000,
        ops=40_000,
        heavy_fraction=0.10,
        hotspot_files=20_000,
        storm_fanout=24,
        light_files=6,
        heavy_files=32,
        heavy_depth=14,
    ),
    "full": ScaleTier(
        "full",
        tenants=250_000,
        ops=150_000,
        heavy_fraction=0.10,
        hotspot_files=500_000,
        storm_fanout=40,
        light_files=6,
        heavy_files=40,
        heavy_depth=22,
    ),
}


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiurnalCurve:
    """A day-shaped rate multiplier: trough at night, peak mid-day.

    ``rate_at`` is a raised cosine over ``period_us`` bounded by
    ``[trough, peak]`` with mean ``(trough + peak) / 2``; the arrival
    process divides inter-arrival gaps by it, so mid-day traffic is
    ``peak / trough`` times denser than the 3am lull.
    """

    trough: float = 0.25
    peak: float = 1.75
    period_us: int = SIM_DAY_US
    phase: float = 0.0  # day-fraction at which the trough sits

    def __post_init__(self) -> None:
        if not 0.0 < self.trough <= self.peak:
            raise ValueError("need 0 < trough <= peak")
        if self.period_us < 1:
            raise ValueError("period_us must be positive")

    def rate_at(self, t_us: int) -> float:
        frac = (t_us % self.period_us) / self.period_us
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * (frac - self.phase)))
        return self.trough + (self.peak - self.trough) * swing


@dataclass(frozen=True)
class BurstModel:
    """Bounded Poisson-burst windows layered on the diurnal base.

    Each inter-arrival gap opens a burst with probability ``rate``;
    inside a burst the next ``min_ops..max_ops`` arrivals have their
    gaps multiplied by ``squeeze`` (<< 1) and stick to the tenant that
    opened the window -- the sync-client shape where one device floods
    its own account.  Windows are hard-bounded by ``max_ops``.
    """

    rate: float = 0.004
    min_ops: int = 10
    max_ops: int = 80
    squeeze: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("burst rate must be a probability")
        if not 1 <= self.min_ops <= self.max_ops:
            raise ValueError("need 1 <= min_ops <= max_ops")
        if not 0.0 < self.squeeze <= 1.0:
            raise ValueError("squeeze must be in (0, 1]")


class ArrivalProcess:
    """Seeded diurnal + burst arrivals: a stream of inter-op gaps."""

    def __init__(
        self,
        rng: random.Random,
        mean_gap_us: float,
        diurnal: DiurnalCurve,
        burst: BurstModel,
    ):
        if mean_gap_us <= 0:
            raise ValueError("mean_gap_us must be positive")
        self._rng = rng
        self._mean_gap_us = mean_gap_us
        self._diurnal = diurnal
        self._burst = burst
        self._burst_left = 0

    @property
    def in_burst(self) -> bool:
        return self._burst_left > 0

    def next_gap(self, now_us: int) -> tuple[int, bool]:
        """(gap_us, burst_opened): the wait before the next arrival.

        ``burst_opened`` is True exactly when this draw opened a new
        burst window -- the caller pins the window to whichever tenant
        it picks next.
        """
        opened = False
        if self._burst_left > 0:
            self._burst_left -= 1
            squeeze = self._burst.squeeze
        elif self._burst.rate and self._rng.random() < self._burst.rate:
            self._burst_left = self._rng.randint(
                self._burst.min_ops, self._burst.max_ops
            ) - 1
            squeeze = self._burst.squeeze
            opened = True
        else:
            squeeze = 1.0
        rate = self._diurnal.rate_at(now_us)
        gap = self._rng.expovariate(1.0) * self._mean_gap_us * squeeze / rate
        return max(1, int(gap)), opened


# ----------------------------------------------------------------------
# tenant population
# ----------------------------------------------------------------------
def account_of(index: int) -> str:
    return f"t{index:06d}"


class TenantMix:
    """Zipf-popular tenant chooser over a light/heavy population.

    Popularity rank is decoupled from tenant id by a seeded affine
    bijection (cheap pseudo-shuffle -- no quarter-million-entry
    permutation tables), so "hot" tenants are scattered across the id
    space.  Heaviness is a seeded per-tenant hash draw; the single most
    popular tenant (``anchor_index``) is always heavy and owns the
    hotspot directory.
    """

    def __init__(
        self,
        tenants: int,
        heavy_fraction: float,
        seed: int,
        alpha: float = 1.05,
    ):
        if tenants < 1:
            raise ValueError("need at least one tenant")
        if not 0.0 <= heavy_fraction <= 1.0:
            raise ValueError("heavy_fraction must be in [0, 1]")
        self.tenants = tenants
        self.heavy_fraction = heavy_fraction
        self.seed = seed
        self._sampler = ZipfSampler(n=tenants, alpha=alpha)
        stride = (zlib.crc32(f"{seed}:stride".encode()) % tenants) | 1
        while math.gcd(stride, tenants) != 1:
            stride += 2
        self._stride = stride
        self._offset = zlib.crc32(f"{seed}:offset".encode()) % tenants

    def tenant_at_rank(self, rank: int) -> int:
        return (rank * self._stride + self._offset) % self.tenants

    def pick(self, rng: random.Random) -> int:
        return self.tenant_at_rank(self._sampler.sample(rng))

    @property
    def anchor_index(self) -> int:
        """The most popular tenant -- always heavy, owns the hotspot."""
        return self.tenant_at_rank(0)

    def is_heavy(self, index: int) -> bool:
        if index == self.anchor_index:
            return True
        draw = zlib.crc32(f"{self.seed}:heavy:{index}".encode()) % 1_000_000
        return draw < self.heavy_fraction * 1_000_000


def seed_layout(
    seed: int, index: int, heavy: bool, anchor: bool, tier: ScaleTier
) -> tuple[list[str], list[tuple[str, int]]]:
    """One tenant's deterministic starter tree: (dirs, (path, size)...).

    The explorer tracks ops against this layout and the runner
    materialises exactly it on the tenant's first touch, so generated
    ops are valid by construction.  The anchor's hotspot files are NOT
    listed here (there can be half a million); they are named by
    :func:`hotspot_name` and seeded in bulk by the runner.
    """
    account = account_of(index)
    rng = random.Random(f"{seed}:tree:{account}")
    dirs: list[str] = []
    if heavy:
        path = ""
        for level in range(tier.heavy_depth):
            path += f"/d{level:02d}"
            dirs.append(path)
        dirs.extend(("/side0", "/side1"))
        n_files = tier.heavy_files
    else:
        dirs.extend(("/docs", "/media"))
        n_files = tier.light_files
    files = []
    for i in range(n_files):
        parent = dirs[rng.randrange(len(dirs))]
        files.append((f"{parent}/seed{i:04d}", 64 + rng.randrange(192)))
    if anchor:
        dirs.append(HOTSPOT_DIR)
    return dirs, files


# ----------------------------------------------------------------------
# scenario specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that defines one deterministic scenario run."""

    name: str
    seed: int
    tier: ScaleTier
    mix: dict[str, float]
    diurnal: DiurnalCurve = field(default_factory=DiurnalCurve)
    burst: BurstModel = field(default_factory=BurstModel)
    storm_rate: float = 0.0  # p(arrival is a sync storm, not one op)
    scan_rate: float = 0.0  # p(arrival is a backup-style scan sweep)
    hotspot_bias: float = 0.35  # p(anchor-tenant op targets the hotspot)
    hotspot_alpha: float = 1.1  # Zipf skew over hotspot files
    tenant_alpha: float = 1.05  # Zipf skew over tenants
    span_days: float = 2.0  # sim-time the arrival stream covers
    env: DstConfig = field(
        default_factory=lambda: DstConfig(check_model=False)
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "mix", validate_mix(dict(self.mix)))
        for knob in ("storm_rate", "scan_rate", "hotspot_bias"):
            value = getattr(self, knob)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{knob} must be a probability")
        if self.span_days <= 0:
            raise ValueError("span_days must be positive")

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        doc = {
            "format": SCENARIO_FORMAT,
            "name": self.name,
            "seed": self.seed,
            "tier": asdict(self.tier),
            "mix": dict(self.mix),
            "diurnal": asdict(self.diurnal),
            "burst": asdict(self.burst),
            "storm_rate": self.storm_rate,
            "scan_rate": self.scan_rate,
            "hotspot_bias": self.hotspot_bias,
            "hotspot_alpha": self.hotspot_alpha,
            "tenant_alpha": self.tenant_alpha,
            "span_days": self.span_days,
        }
        return doc

    @classmethod
    def from_json(cls, doc: dict, env: DstConfig) -> "ScenarioSpec":
        if doc.get("format") != SCENARIO_FORMAT:
            raise ValueError(f"not a {SCENARIO_FORMAT} document")
        return cls(
            name=doc["name"],
            seed=doc["seed"],
            tier=ScaleTier(**doc["tier"]),
            mix=dict(doc["mix"]),
            diurnal=DiurnalCurve(**doc["diurnal"]),
            burst=BurstModel(**doc["burst"]),
            storm_rate=doc["storm_rate"],
            scan_rate=doc["scan_rate"],
            hotspot_bias=doc["hotspot_bias"],
            hotspot_alpha=doc["hotspot_alpha"],
            tenant_alpha=doc["tenant_alpha"],
            span_days=doc["span_days"],
            env=env,
        )


def scenario_env(layers: Layers = Layers(), middlewares: int = 3) -> DstConfig:
    """The environment a scenario weaves between arrivals.

    ``layers`` take their scenario rates from
    :data:`~repro.dst.layers.LAYER_TABLE`, an order of magnitude below
    the DST ones: a scenario has thousands of gaps, so the *count* of
    crashes/corruptions/scrubs per run stays comparable to a DST run
    rather than scaling with the op budget.  A layer with no scenario
    form raises ``ValueError``.
    """
    return layers.over(
        DstConfig(middlewares=middlewares, check_model=False), scenario=True
    )


# ----------------------------------------------------------------------
# the catalog
# ----------------------------------------------------------------------
def _spec(name: str, tier: str | ScaleTier, seed: int, env: DstConfig | None,
          **overrides) -> ScenarioSpec:
    tier_obj = TIERS[tier] if isinstance(tier, str) else tier
    return ScenarioSpec(
        name=name,
        seed=seed,
        tier=tier_obj,
        env=env or scenario_env(),
        **overrides,
    )


def steady_mix(tier="smoke", seed=0, env=None) -> ScenarioSpec:
    """The baseline day: POSIX-ish op mix under a gentle diurnal curve."""
    return _spec(
        "steady-mix", tier, seed, env,
        mix={
            "read": 0.38, "write": 0.22, "list": 0.16, "stat": 0.10,
            "mkdir": 0.05, "delete": 0.04, "move": 0.025, "copy": 0.015,
            "rename": 0.007, "rmdir": 0.003,
        },
        burst=BurstModel(rate=0.002, min_ops=8, max_ops=40),
    )


def sync_storm(tier="smoke", seed=0, env=None) -> ScenarioSpec:
    """Dropbox-shaped sync traffic: write fan-out, rename into place.

    Storms land as a batch directory of ``storm_fanout`` ``.part``
    writes followed by the rename sweep that publishes them -- the
    rapid write/rename fan-out pattern sync clients emit after a local
    bulk change.
    """
    return _spec(
        "sync-storm", tier, seed, env,
        mix={
            "write": 0.34, "read": 0.20, "rename": 0.10, "list": 0.12,
            "stat": 0.08, "mkdir": 0.06, "delete": 0.06, "move": 0.03,
            "copy": 0.007, "rmdir": 0.003,
        },
        storm_rate=0.05,
        burst=BurstModel(rate=0.006, min_ops=10, max_ops=60),
        span_days=1.0,
    )


def hotspot_read(tier="smoke", seed=0, env=None) -> ScenarioSpec:
    """Skewed readers hammering the anchor's huge hot directory."""
    return _spec(
        "hotspot-read", tier, seed, env,
        mix={
            "read": 0.52, "list": 0.22, "stat": 0.14, "write": 0.08,
            "mkdir": 0.02, "delete": 0.02,
        },
        hotspot_bias=0.65,
        hotspot_alpha=1.2,
        tenant_alpha=1.25,
        burst=BurstModel(rate=0.003, min_ops=10, max_ops=50),
    )


def burst_rush(tier="smoke", seed=0, env=None) -> ScenarioSpec:
    """Monday morning: steep diurnal swing plus aggressive bursts."""
    return _spec(
        "burst-rush", tier, seed, env,
        mix={
            "read": 0.30, "write": 0.28, "list": 0.14, "stat": 0.10,
            "mkdir": 0.07, "delete": 0.05, "move": 0.03, "copy": 0.02,
            "rename": 0.007, "rmdir": 0.003,
        },
        diurnal=DiurnalCurve(trough=0.1, peak=2.4),
        burst=BurstModel(rate=0.012, min_ops=20, max_ops=120, squeeze=0.02),
        span_days=1.0,
    )


def backup_scan(tier="smoke", seed=0, env=None) -> ScenarioSpec:
    """Backup/restore agents sweeping whole trees while writes trickle."""
    return _spec(
        "backup-scan", tier, seed, env,
        mix={
            "list": 0.34, "stat": 0.22, "read": 0.24, "write": 0.14,
            "mkdir": 0.03, "delete": 0.03,
        },
        scan_rate=0.08,
        burst=BurstModel(rate=0.002, min_ops=6, max_ops=30),
    )


def split_brain_storm(tier="smoke", seed=0, env=None) -> ScenarioSpec:
    """Sync traffic through recurring link-level partitions.

    The sync-storm write fan-out keeps landing while asymmetric cuts
    sever a middleware from slices of the storage fleet (and sometimes
    its gossip peers); hinted handoff keeps the writes available and
    the V8 oracle holds the heal-time promise -- every cut heals, the
    hint store drains to empty, and no acknowledged write is lost
    (docs/PARTITIONS.md).
    """
    env = env or scenario_env(Layers.parse("faulty"))
    if not env.partition_rate:
        env = Layers.parse("partitions").over(env, scenario=True)
    return _spec(
        "split-brain-storm", tier, seed, env,
        mix={
            "write": 0.32, "read": 0.22, "rename": 0.08, "list": 0.12,
            "stat": 0.08, "mkdir": 0.06, "delete": 0.06, "move": 0.04,
            "copy": 0.015, "rmdir": 0.005,
        },
        storm_rate=0.03,
        burst=BurstModel(rate=0.005, min_ops=10, max_ops=50),
        span_days=1.0,
    )


SCENARIOS = {
    "steady-mix": steady_mix,
    "sync-storm": sync_storm,
    "hotspot-read": hotspot_read,
    "burst-rush": burst_rush,
    "backup-scan": backup_scan,
    "split-brain-storm": split_brain_storm,
}


def build_scenario(
    name: str,
    tier: str | ScaleTier = "smoke",
    seed: int = 0,
    env: DstConfig | None = None,
) -> ScenarioSpec:
    """Look up a catalog scenario at a scale tier."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
    return factory(tier=tier, seed=seed, env=env)


# ----------------------------------------------------------------------
# per-tenant op streams
# ----------------------------------------------------------------------
class _TenantState:
    """The explorer's optimistic mirror of one tenant's tree."""

    __slots__ = (
        "index",
        "account",
        "heavy",
        "anchor",
        "dirs",
        "files",
        "own_dirs",
        "serial",
        "storms",
        "hot_extra",
    )

    def __init__(self, index: int, heavy: bool, anchor: bool,
                 spec: ScenarioSpec):
        self.index = index
        self.account = account_of(index)
        self.heavy = heavy
        self.anchor = anchor
        dirs, files = seed_layout(spec.seed, index, heavy, anchor, spec.tier)
        self.dirs = list(dirs)
        self.files = [path for path, _ in files]
        self.own_dirs: list[str] = []  # created at run time; rmdir-able
        self.serial = 0
        self.storms = 0
        self.hot_extra: list[str] = []  # files this run wrote into /hot

    # ------------------------------------------------------------------
    def _op(self, kind: str, path: str, dest: str | None = None) -> ClientOp:
        self.serial += 1
        return ClientOp(
            kind, path, dest=dest, tag=self.serial, account=self.account
        )

    def next_op(
        self,
        rng: random.Random,
        spec: ScenarioSpec,
        hotspot: ZipfSampler | None,
    ) -> ClientOp:
        if (
            self.anchor
            and hotspot is not None
            and rng.random() < spec.hotspot_bias
        ):
            return self._hotspot_op(rng, hotspot)
        kind = self._pick(rng, spec.mix)
        return self._make(kind, rng)

    def _pick(self, rng: random.Random, mix: dict[str, float]) -> str:
        roll = rng.random()
        cumulative = 0.0
        for kind, weight in mix.items():
            cumulative += weight
            if roll <= cumulative:
                return kind
        return "read"

    def _hotspot_op(self, rng: random.Random, hotspot: ZipfSampler) -> ClientOp:
        roll = rng.random()
        if roll < 0.55:
            return self._op(
                "read", f"{HOTSPOT_DIR}/{hotspot_name(hotspot.sample(rng))}"
            )
        if roll < 0.75:
            return self._op("list", HOTSPOT_DIR)
        if roll < 0.90:
            return self._op(
                "stat", f"{HOTSPOT_DIR}/{hotspot_name(hotspot.sample(rng))}"
            )
        path = f"{HOTSPOT_DIR}/x{self.serial + 1:06d}"
        self.hot_extra.append(path)
        return self._op("write", path)

    def _make(self, kind: str, rng: random.Random) -> ClientOp:
        dirs, files = self.dirs, self.files
        if kind in ("read", "stat", "delete", "move", "rename", "copy") and not files:
            kind = "write"  # nothing to touch yet: spend the arrival on a write
        if kind == "read" or kind == "stat":
            return self._op(kind, rng.choice(files))
        if kind == "write":
            if files and rng.random() < 0.30:  # overwrite
                return self._op("write", rng.choice(files))
            parent = rng.choice(dirs)
            path = f"{parent}/f{self.serial + 1:05d}"
            files.append(path)
            return self._op("write", path)
        if kind == "list":
            return self._op("list", rng.choice(dirs))
        if kind == "mkdir":
            parent = rng.choice(dirs)
            path = f"{parent}/n{self.serial + 1:05d}"
            dirs.append(path)
            self.own_dirs.append(path)
            return self._op("mkdir", path)
        if kind == "delete":
            path = rng.choice(files)
            files.remove(path)
            self.hot_extra = [p for p in self.hot_extra if p != path]
            return self._op("delete", path)
        if kind in ("move", "rename", "copy"):
            src = rng.choice(files)
            if kind == "rename":
                dest = src.rsplit("/", 1)[0] + f"/r{self.serial + 1:05d}"
            else:
                dest = f"{rng.choice(dirs)}/{kind[0]}{self.serial + 1:05d}"
            if dest == src:
                return self._op("stat", src)
            if kind == "copy":
                files.append(dest)
            else:
                files.remove(src)
                files.append(dest)
            return self._op(kind, src, dest=dest)
        if kind == "rmdir":
            if not self.own_dirs:
                return self._op("list", rng.choice(dirs))
            path = self.own_dirs.pop(rng.randrange(len(self.own_dirs)))
            prefix = path + "/"
            self.dirs[:] = [
                d for d in dirs if d != path and not d.startswith(prefix)
            ]
            self.own_dirs[:] = [
                d for d in self.own_dirs if not d.startswith(prefix)
            ]
            self.files[:] = [f for f in files if not f.startswith(prefix)]
            return self._op("rmdir", path)
        raise AssertionError(f"unhandled mix kind {kind!r}")

    # ------------------------------------------------------------------
    def storm_ops(self, rng: random.Random, fanout: int) -> list[ClientOp]:
        """One sync storm: batch dir, ``.part`` fan-out, rename sweep."""
        ops: list[ClientOp] = []
        if SYNC_DIR not in self.dirs:
            self.dirs.append(SYNC_DIR)
            ops.append(self._op("mkdir", SYNC_DIR))
        self.storms += 1
        batch = f"{SYNC_DIR}/b{self.storms:04d}"
        self.dirs.append(batch)
        self.own_dirs.append(batch)
        ops.append(self._op("mkdir", batch))
        finals = []
        for i in range(fanout):
            part = f"{batch}/item{i:03d}.part"
            ops.append(self._op("write", part))
            finals.append((part, f"{batch}/item{i:03d}"))
        for part, final in finals:
            ops.append(self._op("rename", part, dest=final))
            self.files.append(final)
        # A few items get revised immediately -- the second sync pass.
        for _, final in finals[: max(1, fanout // 8)]:
            ops.append(self._op("write", final))
        return ops

    def scan_ops(self, rng: random.Random, width: int = 6) -> list[ClientOp]:
        """A backup-agent sweep: list a run of dirs, stat some files."""
        ops = [self._op("list", d) for d in self.dirs[:width]]
        for _ in range(min(3, len(self.files))):
            ops.append(self._op("stat", rng.choice(self.files)))
        return ops


# ----------------------------------------------------------------------
# the explorer
# ----------------------------------------------------------------------
#: Background-protocol steps woven between arrivals (per-gap
#: probabilities).  Lighter than the DST table: a scenario has orders
#: of magnitude more gaps, and GC is deliberately absent (a
#: cluster-wide mark over every tenant account belongs in quiesce, not
#: between every few ops).
_SCENARIO_BG = (
    ("merge", 0.30),
    ("gossip_one", 0.10),
    ("gossip_round", 0.02),
    ("drop_caches", 0.01),
    ("anti_entropy", 0.004),
)


class ScenarioExplorer:
    """Expands a :class:`ScenarioSpec` into one deterministic schedule."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec

    def explore(self) -> Schedule:
        spec = self.spec
        tier, env = spec.tier, spec.env
        rng = random.Random(f"{spec.seed}:{spec.name}:scenario")
        mixer = TenantMix(
            tier.tenants, tier.heavy_fraction, spec.seed, alpha=spec.tenant_alpha
        )
        arrivals = ArrivalProcess(
            rng,
            mean_gap_us=spec.span_days * SIM_DAY_US / tier.ops,
            diurnal=spec.diurnal,
            burst=spec.burst,
        )
        hotspot = (
            ZipfSampler(n=tier.hotspot_files, alpha=spec.hotspot_alpha)
            if tier.hotspot_files
            else None
        )
        states: dict[int, _TenantState] = {}
        steps: list[Step] = []
        now_us = 0
        emitted = 0
        burst_tenant: int | None = None
        weaver = EnvironmentWeaver(
            rng, env, batches=(8, 16, 32), heal_gaps=(6, 30)
        )
        while emitted < tier.ops:
            weaver.weave(steps)
            weave_background(steps, rng, _SCENARIO_BG, env.middlewares)
            # -- the next arrival
            gap, burst_opened = arrivals.next_gap(now_us)
            now_us += gap
            steps.append(Step("advance", args={"delta_us": gap}))
            if burst_opened or (arrivals.in_burst and burst_tenant is not None):
                if burst_opened:
                    burst_tenant = mixer.pick(rng)
                tenant = burst_tenant
            else:
                burst_tenant = None
                tenant = mixer.pick(rng)
            state = states.get(tenant)
            if state is None:
                state = _TenantState(
                    tenant,
                    heavy=mixer.is_heavy(tenant),
                    anchor=tenant == mixer.anchor_index,
                    spec=spec,
                )
                states[tenant] = state
            if spec.storm_rate and rng.random() < spec.storm_rate:
                emitted += self._emit_batch(
                    steps, rng, state, state.storm_ops(rng, tier.storm_fanout)
                )
            elif spec.scan_rate and rng.random() < spec.scan_rate:
                emitted += self._emit_batch(
                    steps, rng, state, state.scan_ops(rng)
                )
            else:
                steps.append(Step("op", session=state.index, op=state.next_op(rng, spec, hotspot)))
                emitted += 1
        weaver.tail(steps)
        return Schedule(
            seed=spec.seed,
            config={**env.to_json(), "scenario": spec.to_json()},
            steps=steps,
        )

    def _emit_batch(
        self,
        steps: list[Step],
        rng: random.Random,
        state: _TenantState,
        ops: list[ClientOp],
    ) -> int:
        """A rapid same-tenant batch: millisecond gaps, not diurnal ones."""
        for i, op in enumerate(ops):
            if i:
                steps.append(
                    Step("advance", args={"delta_us": rng.randint(500, 5_000)})
                )
            steps.append(Step("op", session=state.index, op=op))
        return len(ops)


def scenario_spec_of(schedule: Schedule) -> ScenarioSpec:
    """Recover the spec embedded in a scenario schedule's config."""
    doc = schedule.config.get("scenario")
    if not doc:
        raise ValueError("schedule has no embedded scenario spec")
    return ScenarioSpec.from_json(doc, env=DstConfig.from_json(schedule.config))
