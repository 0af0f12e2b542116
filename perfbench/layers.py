"""Passive per-layer tracing for the benchmark's traced pass.

:func:`installed` wraps each layer's public entry points at the sites
the program calls them through (module attributes, class methods) for
the duration of one timed phase, then restores the originals.  Every
wrapper records a ``perf_counter`` span ``[layer, start, end, parent]``
in memory; :meth:`SpanRecorder.write` stores them when the run ends.
A call into a layer from inside the same layer (``copy`` calling
``get``, ``merge`` calling ``merge_changes``) stays inside the outer
span, so counts are per entry into the layer.

The wrappers only read: they pass arguments, results and exceptions
through untouched and never touch the simulated clock, so every
simulated metric and the final-state digest of a traced run must equal
the untraced run's (the runner checks this).

A layer's self time is its spans' time minus the time of the child
spans inside them; client ops are root spans of layer ``middleware``
and scheduled maintenance root spans of layer ``maintenance``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import repro.core.formatter as formatter
import repro.core.namering as namering
import repro.core.patch as patch
import repro.core.shards as shards
import repro.simcloud.hints as hints
import repro.simcloud.object_store as object_store
import repro.simcloud.repair as repair
from repro.core.gossip import GossipNetwork
from repro.core.lookup import H2Lookup
from repro.core.merger import BackgroundMerger
from repro.core.middleware import H2Middleware
from repro.simcloud.errors import ObjectNotFound
from repro.simcloud.hashring import HashRing
from repro.simcloud.sparse import SparseData

class SpanRecorder:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.nbytes: dict[str, int] = defaultdict(int)
        self.sim_us: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.levels = 0  # path components asked of H2Lookup.resolve

    def open(self, layer: str, now: float) -> int:
        stack = self._stack
        idx = len(self.spans)
        self.spans.append([layer, now, now, stack[-1] if stack else -1])
        stack.append(idx)
        return idx

    def close(self, idx: int, now: float) -> None:
        self.spans[idx][2] = now
        self._stack.pop()

    def wrap(self, layer: str, fn, before=None, after=None):
        """``fn`` inside a ``layer`` span.

        ``before(args)`` runs first and its value goes to
        ``after(state, args, result)`` once ``fn`` returned normally.
        """
        rec = self
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            rec.calls[layer] += 1
            state = before(args) if before is not None else None
            idx = rec.open(layer, perf_counter())
            try:
                result = fn(*args, **kwargs)
            except ObjectNotFound:
                raise  # a clean miss is an answer, not a failure
            except Exception:
                rec.errors[layer] += 1
                raise
            finally:
                rec.close(idx, perf_counter())
            if after is not None:
                after(state, args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds, inclusive seconds) per layer."""
        spans = self.spans
        inner = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                inner[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for i, (layer, start, end, _) in enumerate(spans):
            own[layer] += end - start - inner[i]
            total[layer] += end - start
        return own, total

    def write(self, path: Path) -> None:
        """One ``layer,start,end,parent`` line per span, start-ordered."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("layer,start_s,end_s,parent\n")
            out.writelines(
                f"{layer},{start:.9f},{end:.9f},{parent}\n"
                for layer, start, end, parent in self.spans
            )


def _hashed_bytes(data) -> int:
    """Bytes a checksum actually reads (sparse payloads hash their identity)."""
    if isinstance(data, SparseData):
        return len(data.identity())
    return len(data)


@contextmanager
def installed(rec: SpanRecorder):
    """Wrap every layer's entry points for the ``with`` body."""
    saved: list[tuple[object, str, object]] = []

    def patch_attr(owner, name: str, layer: str, before=None, after=None):
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        saved.append((owner, name, original))
        setattr(owner, name, rec.wrap(layer, original, before, after))

    def count_bytes(layer, measure):
        def after(_state, args, result):
            rec.nbytes[layer] += measure(args, result)

        return after

    # integrity: checksums where the store, hint drains, repair and the
    # wire format call them
    for module in (object_store, hints, repair):
        patch_attr(
            module, "verify_record", "integrity",
            after=count_bytes("integrity", lambda a, r: _hashed_bytes(a[0].data)),
        )
    patch_attr(
        object_store, "checksum_of", "integrity",
        after=count_bytes("integrity", lambda a, r: _hashed_bytes(a[0])),
    )
    patch_attr(
        formatter, "crc32c", "integrity",
        after=count_bytes("integrity", lambda a, r: len(a[0])),
    )
    # formatter: the wire format, called as ``formatter.<fn>`` everywhere
    dumped = count_bytes("formatter", lambda a, r: len(r))
    parsed = count_bytes("formatter", lambda a, r: len(a[0]))
    for kind in ("ring", "patch", "shard", "manifest", "directory"):
        patch_attr(formatter, f"dumps_{kind}", "formatter", after=dumped)
        patch_attr(formatter, f"loads_{kind}", "formatter", after=parsed)
    for name in ("ring_crc", "shard_crc"):
        patch_attr(formatter, name, "formatter")
    # namering: the merge algorithm
    for name in ("merge", "merge_changes"):
        patch_attr(namering.NameRing, name, "namering")
    patch_attr(namering, "merge", "namering")
    patch_attr(namering, "merge_all", "namering")
    patch_attr(patch, "merge_all", "namering")
    # shards: layout read/write and shard bookkeeping
    for name in (
        "read_stored", "write_stored", "delete_stored", "split_ring",
        "extract_shards", "digest_of", "manifest_of",
    ):
        patch_attr(shards, name, "shards")

    # background work: wall time and bytes PUT while inside it
    def ledger_in(args):
        return args[0].store.ledger.bytes_in

    def rewritten(state, args, _result):
        rec.nbytes["background"] += args[0].store.ledger.bytes_in - state

    patch_attr(H2Middleware, "background", "background", ledger_in, rewritten)

    # object store primitives: self time and the sim time they charge
    def clock_at(args):
        return args[0].clock.now_us

    def charged(state, args, _result):
        rec.sim_us["object_store"] += args[0].clock.now_us - state

    for name in ("put", "get", "get_range", "head", "delete", "copy", "exists", "scan"):
        patch_attr(object_store.ObjectStore, name, "object_store", clock_at, charged)
    for name in ("nodes_for", "fallbacks_for", "primary_for"):
        patch_attr(HashRing, name, "hashring")
    patch_attr(repair.RepairSweeper, "sweep", "repair")

    # lookup: H2's level-by-level resolution
    def levels(_state, args, _result):
        rec.levels += sum(1 for part in args[2].split("/") if part)

    patch_attr(H2Lookup, "resolve", "lookup", after=levels)
    # maintenance protocol: merger and gossip
    for name in ("merge_ring", "run_once", "run_until_clean"):
        patch_attr(BackgroundMerger, name, "merger")
    for name in ("announce", "pump", "run_until_quiet", "anti_entropy_round", "converge"):
        patch_attr(GossipNetwork, name, "gossip")
    for name in ("on_gossip", "pull_state_from"):
        patch_attr(H2Middleware, name, "gossip")
    try:
        yield rec
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# the program's own counters, read before and after a timed phase
# ----------------------------------------------------------------------
def counters(fs) -> dict[str, float]:
    store = fs.store
    ledger, res, hint_store = store.ledger, store.resilience, store.hints
    out = {
        "requests": ledger.total_requests,
        "bytes": ledger.bytes_in + ledger.bytes_out,
        "background_us": ledger.background_us,
        "retries": res.retries,
        "backoff_us": res.backoff_us,
        "fast_failures": res.fast_failures,
        "repaired": res.repaired_replicas,
        "sloppy_writes": hint_store.sloppy_writes if hint_store else 0,
        "delivered": hint_store.delivered if hint_store else 0,
    }
    for key in ("hits", "misses", "evictions", "merges", "patches_applied",
                "shard_gets", "shard_puts", "shard_skips"):
        out[key] = 0
    for mw in fs.middlewares:
        stats = mw.fd_cache.stats
        snap = mw.monitor.snapshot()
        out["hits"] += stats.hits
        out["misses"] += stats.misses
        out["evictions"] += stats.evictions
        out["merges"] += snap["maintenance.merges"]
        out["patches_applied"] += snap["maintenance.patches_applied"]
        for key in ("shard_gets", "shard_puts", "shard_skips"):
            out[key] += mw.metrics.counter(f"shard.{key}").value
    net = fs.network
    out["rumors_sent"] = net.rumors_sent if net else 0
    out["rumors_coalesced"] = net.rumors_coalesced if net else 0
    out["anti_entropy_rounds"] = net.anti_entropy_rounds if net else 0
    return out


def per_layer(rec: SpanRecorder, delta: dict, ops: int, objects: int,
              overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced timed phase."""
    own, total = rec.times()
    ms = {layer: seconds * 1000.0 for layer, seconds in own.items()}
    shard_writes = delta["shard_puts"] + delta["shard_skips"]
    lookups = rec.calls["lookup"]
    cache_probes = delta["hits"] + delta["misses"]
    merges = delta["merges"]
    return {
        "integrity.calls": (rec.calls["integrity"], "count"),
        "integrity.mb": (rec.nbytes["integrity"] / 1e6, "MB"),
        "integrity.self_ms": (ms.get("integrity", 0.0), "ms"),
        "formatter.calls": (rec.calls["formatter"], "count"),
        "formatter.mb": (rec.nbytes["formatter"] / 1e6, "MB"),
        "formatter.self_ms": (ms.get("formatter", 0.0), "ms"),
        "namering.merges": (rec.calls["namering"], "count"),
        "namering.self_ms": (ms.get("namering", 0.0), "ms"),
        "shards.reads": (delta["shard_gets"], "count"),
        "shards.writes": (delta["shard_puts"], "count"),
        "shards.write_skip_ratio": (
            delta["shard_skips"] / shard_writes if shard_writes else 0.0, "ratio"
        ),
        "shards.self_ms": (ms.get("shards", 0.0), "ms"),
        "background.wall_ms": (total.get("background", 0.0) * 1000.0, "ms"),
        "background.sim_ms": (delta["background_us"] / 1000.0, "ms"),
        "background.mb_rewritten": (rec.nbytes["background"] / 1e6, "MB"),
        "object_store.requests_per_op": (delta["requests"] / ops, "req/op"),
        "object_store.mb_per_op": (delta["bytes"] / ops / 1e6, "MB/op"),
        "object_store.sim_ms": (rec.sim_us["object_store"] / 1000.0, "ms"),
        "object_store.self_ms": (ms.get("object_store", 0.0), "ms"),
        "object_store.objects": (objects, "count"),
        "object_store.retries": (delta["retries"], "count"),
        "object_store.fast_failures": (delta["fast_failures"], "count"),
        "object_store.errors": (rec.errors["object_store"], "count"),
        "hashring.calls": (rec.calls["hashring"], "count"),
        "hashring.self_ms": (ms.get("hashring", 0.0), "ms"),
        "hints.sloppy_writes": (delta["sloppy_writes"], "count"),
        "hints.delivered": (delta["delivered"], "count"),
        "repair.replicas": (delta["repaired"], "count"),
        "lookup.resolves": (lookups, "count"),
        "lookup.levels_per_resolve": (
            rec.levels / lookups if lookups else 0.0, "levels/resolve"
        ),
        "lookup.self_ms": (ms.get("lookup", 0.0), "ms"),
        "descriptor.hit_rate": (
            delta["hits"] / cache_probes if cache_probes else 0.0, "ratio"
        ),
        "descriptor.evictions": (delta["evictions"], "count"),
        "merger.merges": (merges, "count"),
        "merger.patches_per_merge": (
            delta["patches_applied"] / merges if merges else 0.0, "patches/merge"
        ),
        "merger.self_ms": (ms.get("merger", 0.0), "ms"),
        "gossip.rumors_sent": (delta["rumors_sent"], "count"),
        "gossip.rumors_coalesced": (delta["rumors_coalesced"], "count"),
        "gossip.anti_entropy_rounds": (delta["anti_entropy_rounds"], "count"),
        "middleware.self_ms": (ms.get("middleware", 0.0), "ms"),
        "trace.overhead": (overhead, "ratio"),
    }
