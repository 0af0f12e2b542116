"""``hugedir-hot``: one 20,000-child directory under Zipf-hot traffic.

Sharded NameRings on (``H2Config().with_sharded_rings()``), one
middleware, 1-byte files.  The trace is
``huge_directory_ops(HugeDirSpec(children=20_000, seed=...))``:
Zipf-hot lookups (full-path reads), 10% inserts, 5% deletes and 5%
paged LISTs of 1,000 entries.  Lookups and deletes of names already
deleted are skipped at generation time (as ``bench/hugedir.py`` skips
them at replay time), so every replayed op is valid.

A LIST that finds tombstones compacts the whole ring, ~0.7 s of wall
time (booked as background on the simulated clock), so the timed phase
is mostly the LISTs that follow a delete.  The stream rolls each op's
kind on its own, and over 20 seeds 19 to 30 LISTs followed a delete.
So the stream's operands are regrouped by kind and dealt in a seeded
order of exactly those shares, redrawn until exactly half of the LISTs
follow a delete.

Why: ring serialization (``core.formatter``), merging
(``core.namering``), per-shard read-merge-write (``core.shards``) and
background tombstone compaction do most of the work; lookups are one
level deep and payloads are one byte.  It is the only workload on the
sharded write-back path, and the one where wall cost and simulated
cost disagree most (compaction on LIST is booked as background time).

The child count stays off reshard boundaries: 20,000 children want 64
shards of 512, and the run's inserts and deletes keep the count well
inside (16,384, 32,768], so no reshard happens mid-phase.
"""

from __future__ import annotations

import dataclasses
import random

from repro.core import H2CloudFS, H2Config
from repro.simcloud import SwiftCluster
from repro.tools.fsck import H2Fsck
from repro.workloads import HugeDirSpec, huge_directory_ops

NAME = "hugedir-hot"
DIR = "/huge"
CONFIG = H2Config().with_sharded_rings()

SHAPE = {
    "children": 20_000,
    "ops": 1_000,
    "insert_fraction": 0.10,
    "delete_fraction": 0.05,
    "list_fraction": 0.05,
    "page_size": 1_000,
    "middlewares": 1,
    "sharded_rings": True,
}
#: episodes per run at least: one timed phase already takes ~25 s
MIN_EPISODES = 1
#: ``huge_directory_ops``'s op names -> the kinds this benchmark logs
KINDS = {"lookup": "lookup", "insert": "insert", "delete": "delete", "list_page": "list"}


@dataclasses.dataclass
class Inputs:
    spec: HugeDirSpec
    ops: list[tuple[str, str]]  # (kind, operand)
    live: list[str]  # the expected final listing, sorted


def make_inputs(seed: int, scale: float = 1.0) -> Inputs:
    children = max(50, int(SHAPE["children"] * scale))
    wanted = max(50, int(SHAPE["ops"] * scale))
    spec = HugeDirSpec(
        children=children,
        ops=wanted * 3,
        page_size=max(10, int(SHAPE["page_size"] * scale)),
        seed=seed,
    )
    counts = {
        "insert": round(wanted * spec.insert_fraction),
        "delete": round(wanted * spec.delete_fraction),
        "list": round(wanted * spec.list_fraction),
    }
    counts["lookup"] = wanted - sum(counts.values())
    operands: dict[str, list[str]] = {kind: [] for kind in counts}
    for op, operand in huge_directory_ops(spec):
        operands[KINDS[op]].append(operand)
    deck = [kind for kind, n in counts.items() for _ in range(n)]
    rng = random.Random(seed * 7919 + 1)
    for _ in range(10_000):
        rng.shuffle(deck)
        if compacting_lists(deck) == counts["list"] // 2:
            break
    else:
        raise RuntimeError("no op order with half the LISTs after a delete")
    streams = {kind: iter(names) for kind, names in operands.items()}
    live = {spec.child_name(i) for i in range(children)}
    ops: list[tuple[str, str]] = []
    for kind in deck:
        for operand in streams[kind]:
            if kind in ("insert", "list") or operand in live:
                break  # else the Zipf stream re-drew an already-deleted name
        else:
            raise RuntimeError("huge-directory stream ran out of valid ops")
        if kind == "insert":
            live.add(operand)
        elif kind == "delete":
            live.discard(operand)
        ops.append((kind, operand))
    return Inputs(spec, ops, sorted(live))


def compacting_lists(kinds) -> int:
    """How many LISTs in the op-kind sequence follow a delete, with no
    LIST in between: each finds tombstones and compacts the ring."""
    count, tombstones = 0, False
    for kind in kinds:
        if kind == "delete":
            tombstones = True
        elif kind == "list":
            count += tombstones
            tombstones = False
    return count


def setup(inputs: Inputs) -> H2CloudFS:
    spec = inputs.spec
    fs = H2CloudFS(SwiftCluster.rack_scale(), account="bench", config=CONFIG)
    fs.mkdir(DIR)
    fs.write_many(DIR, [(spec.child_name(i), b"x") for i in range(spec.children)])
    fs.pump()
    return fs


def run(fs: H2CloudFS, inputs: Inputs, log) -> list[str]:
    call = log.call
    page = inputs.spec.page_size
    mismatches: list[str] = []
    for kind, name in inputs.ops:
        path = f"{DIR}/{name}"
        if kind == "lookup":
            ok, data = call("lookup", fs.read, path)
            if ok and data != b"x":
                mismatches.append(f"lookup {path}: wrong bytes")
        elif kind == "insert":
            call("insert", fs.write, path, b"x")
        elif kind == "delete":
            call("delete", fs.delete, path)
        else:
            call("list", fs.listdir, DIR, False, name, page)
    log.maintain(fs.pump)
    return mismatches


def declared_bytes(inputs: Inputs, log) -> int:
    return len(inputs.live)  # every live child holds one byte


def listing(fs: H2CloudFS, page: int) -> list[str]:
    """Every child of the huge directory, fetched page by page."""
    names: list[str] = []
    marker = None
    while True:
        batch = fs.listdir(DIR, marker=marker, limit=page)
        names.extend(batch)
        if len(batch) < page:
            return names
        marker = batch[-1]


def gate(fs: H2CloudFS, inputs: Inputs, log) -> list[str]:
    """A full paged listing equals the live set, fsck is clean, and no
    op failed."""
    failures = []
    if log.failed:
        failures.append(f"{log.failed} client ops failed")
    if listing(fs, inputs.spec.page_size) != inputs.live:
        failures.append("paged listing differs from the expected live set")
    report = H2Fsck(fs.middlewares[0]).check()
    if not report.clean:
        failures.append(f"fsck: {report.errors[:3]}")
    return failures
