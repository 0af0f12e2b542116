"""``paper-mix``: the paper's testbed replaying one heavy user's trace.

One middleware on the 8-node, 3-replica rack (``SwiftCluster.rack_scale``).
The initial tree is a ``heavy_user`` tree (873 directories, depth 22)
with 2,000 files whose *real* payload bytes follow its size mixture
(17.5 MB); it is the same for every seed.  The seeded 10,000-op trace
follows ``DEFAULT_MIX`` exactly: 38% read, 22% write, 16% detailed
list, 10% stat, namespace ops for the rest -- about 64% of ops leave
the namespace unchanged -- and reads each file once or twice.  Its
draws are stratified (see :func:`_trace`), so seeds differ in the order
and placement of the work, not in its amount.

Why: every PUT checksums real bytes and every GET verifies them, so
``simcloud.integrity`` and deep-path ``core.lookup`` do most of the
work.  Rings stay small and there is no gossip; the working set
(~900 rings) fits in the 4,096-descriptor cache.

The trace generator mirrors ``repro.workloads.TraceGenerator``'s
distributions, but indexes empty directories instead of scanning the
model for every rmdir candidate (that scan makes the library generator
take tens of seconds), so inputs are ready in well under a second.
"""

from __future__ import annotations

import bisect
import dataclasses
import random

from repro.core import H2CloudFS
from repro.simcloud import SwiftCluster, payload_of
from repro.testing.model import ModelFS, snapshot_of
from repro.tools.fsck import H2Fsck
from repro.workloads import DEFAULT_MIX, SizeModel, generate, heavy_user, validate_mix

NAME = "paper-mix"

#: shape parameters (recorded in BENCHMARK.json and the report)
SHAPE = {
    "files": 2000,
    "dirs_band": [800, 1000],
    "min_depth": 18,
    "mb_band": [17, 19],
    "ops": 10000,
    "middlewares": 1,
    "mix": "DEFAULT_MIX",
}
#: episodes per run at least: each op's wall time is its median over them
MIN_EPISODES = 3
#: the one draw of new payload sizes that every seed's trace shuffles
SIZE_SEED = 20180813
#: share of writes that overwrite a live file (as ``TraceGenerator``)
OVERWRITE_SHARE = 0.3


@dataclasses.dataclass
class Inputs:
    tree: object  # repro.workloads.SyntheticTree
    payloads: dict[str, bytes]
    ops: list[tuple]  # (kind, path, arg)
    mirror: ModelFS  # the trace's expected final tree


def _tree(files: int):
    """The first ``heavy_user`` tree drawn inside the shape band.

    Every seed replays its trace over this one tree: file sizes follow a
    heavy-tailed mixture and checksums make wall time proportional to
    bytes, so a tree per seed would let a few large files swing the
    wall metrics between seeds.  (Some ``heavy_user`` draws also stop
    branching after a handful of directories; the band rejects those.)
    """
    lo, hi = SHAPE["dirs_band"]
    mb_lo, mb_hi = SHAPE["mb_band"]
    for attempt in range(1000):
        tree = generate(dataclasses.replace(heavy_user(attempt), target_files=files))
        if files < SHAPE["files"] or (
            lo <= len(tree.dirs) <= hi
            and tree.max_depth >= SHAPE["min_depth"]
            and mb_lo * 1e6 <= tree.total_bytes <= mb_hi * 1e6
        ):
            return tree
    raise RuntimeError("no heavy-user tree in the shape band")


def make_inputs(seed: int, scale: float = 1.0) -> Inputs:
    files = max(20, int(SHAPE["files"] * scale))
    n_ops = max(50, int(SHAPE["ops"] * scale))
    tree = _tree(files)
    payloads = {
        f.path: payload_of(f.size, tag=f.path, sparse=False) for f in tree.files
    }
    ops, mirror = _trace(tree, payloads, n_ops, random.Random(seed * 7919 + 1))
    return Inputs(tree, payloads, ops, mirror)


def _trace(tree, payloads, n_ops: int, rng: random.Random):
    """A valid ``DEFAULT_MIX`` trace plus the ModelFS mirror it leaves.

    Op kinds, targets and sizes have ``TraceGenerator``'s distributions,
    but are drawn stratified, so that what a seed changes is the order
    and placement of work, not its amount:

    * each kind occurs exactly its ``DEFAULT_MIX`` share of ``n_ops``
      times (a shuffled deck of kinds instead of one roll per op);
    * new payload sizes are one fixed draw of the size mixture that
      every seed shuffles, and exactly 30% of writes overwrite;
    * reads, overwrites, deletes, moves, renames and copies pick the
      live file at a stratified size quantile: of ``n`` ops of a kind,
      the ``i``-th in a seed-shuffled order takes quantile
      ``(i + 1/2) / n`` of the live files ranked by size;
    * listings deal directories off a shuffled deck (sampling without
      replacement).

    Checksums make wall time proportional to bytes and file sizes are
    heavy-tailed (up to 1.7 MB), so with independent draws whether a
    seed happened to read, copy or move the largest files swung the
    bytes checksummed per trace by 17% and the p99 op's bytes by 11%
    between seeds.
    """
    counts = _counts(validate_mix(DEFAULT_MIX), n_ops)
    writes = counts["write"]
    new_sizes = SizeModel.paper_mixture(scale=0.001).sample_many(
        random.Random(SIZE_SEED), writes
    )  # TraceGenerator's default size model
    rng.shuffle(new_sizes)
    overwrites = round(OVERWRITE_SHARE * writes)
    overwrite_flags = [True] * overwrites + [False] * (writes - overwrites)
    rng.shuffle(overwrite_flags)
    strata = {"overwrite": overwrites}
    for kind in ("read", "delete", "move", "rename", "copy"):
        strata[kind] = counts[kind]
    quantiles = {}
    for kind, n in strata.items():
        quantiles[kind] = [(i + 0.5) / n for i in range(n)]
        rng.shuffle(quantiles[kind])

    model = ModelFS()
    for d in tree.dirs:
        model.mkdir(d)
    for f in tree.files:
        model.write(f.path, payloads[f.path])
    dirs = ["/"] + list(tree.dirs)
    entries = {d: 0 for d in dirs}  # direct children per live directory
    size = {f.path: len(payloads[f.path]) for f in tree.files}  # live files
    for path in dirs[1:] + list(size):
        entries[_parent(path)] += 1
    ranked = sorted((n, path) for path, n in size.items())  # live files by size

    def add_file(path, nbytes):
        entries[_parent(path)] += 1
        size[path] = nbytes
        bisect.insort(ranked, (nbytes, path))

    def drop_file(path):
        entries[_parent(path)] -= 1
        del ranked[bisect.bisect_left(ranked, (size.pop(path), path))]

    def by_size(kind) -> str:
        q = quantiles[kind].pop()
        return ranked[min(int(q * len(ranked)), len(ranked) - 1)][1]

    deck: list[str] = []  # directories to list, dealt without replacement

    def next_list() -> str:
        while True:
            if not deck:
                deck.extend(dirs)
                rng.shuffle(deck)
            path = deck.pop()
            if path in entries:  # not removed since the deck was shuffled
                return path

    kinds = [kind for kind, n in counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    ops: list[tuple] = []
    serial = stalled = 0
    while kinds:
        kind = kinds.pop()
        op = None
        if kind in ("read", "stat", "delete", "move", "rename", "copy") and not ranked:
            pass
        elif kind == "read":
            path = by_size("read")
            op = ("read", path, model.read(path))
        elif kind == "stat":
            op = ("stat", rng.choice(ranked)[1], None)
        elif kind == "list":
            op = ("list", next_list(), None)
        elif kind == "write":
            data = payload_of(new_sizes.pop(), tag=f"write#{serial}", sparse=False)
            if overwrite_flags.pop() and ranked:
                path = by_size("overwrite")
                drop_file(path)
            else:
                path = _join(rng.choice(dirs), f"trace{serial:06d}")
            add_file(path, len(data))
            model.write(path, data)
            op = ("write", path, data)
        elif kind == "mkdir":
            path = _join(rng.choice(dirs), f"tdir{serial:06d}")
            model.mkdir(path)
            dirs.append(path)
            entries[path] = 0
            entries[_parent(path)] += 1
            op = ("mkdir", path, None)
        elif kind == "delete":
            path = by_size("delete")
            model.delete(path)
            drop_file(path)
            op = ("delete", path, None)
        elif kind in ("move", "rename", "copy"):
            src = by_size(kind)
            if kind == "rename":
                dest = _join(_parent(src), f"renamed{serial:06d}")
            else:
                dest = _join(rng.choice(dirs), f"{kind}{serial:06d}")
            nbytes = size[src]
            if kind == "copy":
                model.copy(src, dest)
            else:
                model.move(src, dest)
                drop_file(src)
            add_file(dest, nbytes)
            op = (kind, src, dest)
        else:  # rmdir
            empty = sorted(d for d in dirs if d != "/" and entries[d] == 0)
            if empty:
                path = rng.choice(empty)
                model.rmdir(path)
                dirs.remove(path)
                del entries[path]
                entries[_parent(path)] -= 1
                op = ("rmdir", path, None)
        if op is None:  # nothing to act on yet: retry later in the trace
            stalled += 1
            if stalled <= len(kinds):
                kinds.insert(rng.randrange(len(kinds) + 1), kind)
            continue
        stalled = 0
        serial += 1
        ops.append(op)
    return ops, model


def _counts(mix: dict[str, float], n_ops: int) -> dict[str, int]:
    """``n_ops`` split by weight, leftovers to the largest remainders."""
    exact = {kind: weight * n_ops for kind, weight in mix.items()}
    counts = {kind: int(share) for kind, share in exact.items()}
    by_remainder = sorted(exact, key=lambda kind: counts[kind] - exact[kind])
    for kind in by_remainder[: n_ops - sum(counts.values())]:
        counts[kind] += 1
    return counts


def _parent(path: str) -> str:
    return path.rpartition("/")[0] or "/"


def _join(parent: str, name: str) -> str:
    return (parent.rstrip("/") or "") + "/" + name


# ----------------------------------------------------------------------
# set-up, timed phase, correctness gate
# ----------------------------------------------------------------------
def setup(inputs: Inputs) -> H2CloudFS:
    fs = H2CloudFS(SwiftCluster.rack_scale(), account="bench")
    for d in inputs.tree.dirs:
        fs.mkdir(d)
    by_dir: dict[str, list] = {}
    for f in inputs.tree.files:
        parent, _, name = f.path.rpartition("/")
        by_dir.setdefault(parent or "/", []).append((name, inputs.payloads[f.path]))
    for parent, items in by_dir.items():
        fs.write_many(parent, items)
    fs.pump()
    return fs


def run(fs: H2CloudFS, inputs: Inputs, log) -> list[str]:
    """Replay the trace; returns read-back mismatches seen on the way."""
    call = log.call
    mismatches: list[str] = []
    for kind, path, arg in inputs.ops:
        if kind == "read":
            ok, data = call("read", fs.read, path)
            if ok and data != arg:
                mismatches.append(f"read {path}: wrong bytes")
        elif kind == "write":
            call("write", fs.write, path, arg)
        elif kind == "stat":
            call("stat", fs.stat, path)
        elif kind == "list":
            call("list", fs.listdir, path, True)
        elif kind == "mkdir":
            call("mkdir", fs.mkdir, path)
        elif kind == "delete":
            call("delete", fs.delete, path)
        elif kind == "move":
            call("move", fs.move, path, arg)
        elif kind == "rename":
            call("rename", fs.rename, path, arg)
        elif kind == "copy":
            call("copy", fs.copy, path, arg)
        else:  # rmdir
            call("rmdir", fs.rmdir, path)
    log.maintain(fs.pump)
    return mismatches


def declared_bytes(inputs: Inputs, log) -> int:
    return sum(len(data) for data in inputs.mirror.snapshot().values() if data is not None)


def gate(fs: H2CloudFS, inputs: Inputs, log) -> list[str]:
    """The final tree equals the mirror, every live file reads back its
    bytes, fsck is clean, and no op failed."""
    failures = []
    if log.failed:
        failures.append(f"{log.failed} client ops failed")
    if snapshot_of(fs) != inputs.mirror.snapshot():
        failures.append("final tree differs from the ModelFS mirror")
    report = H2Fsck(fs.middlewares[0]).check()
    if not report.clean:
        failures.append(f"fsck: {report.errors[:3]}")
    return failures
