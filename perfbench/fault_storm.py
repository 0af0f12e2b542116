"""``fault-storm``: write-heavy metadata traffic through failures.

Three middlewares gossip with 5% message loss over a namespace of
~8,000 directories -- about twice one middleware's 4,096-descriptor
cache -- plus 4,000 small sparse files.  About 45% of ops leave the
namespace unchanged (``exists`` on absent names, ``stat``, ``list``)
and 55% mutate it (small sparse writes, ``mkdir``, file ``move``,
``delete``).  While the trace replays:

* transient faults fire on every storage request: io_error 3%,
  timeout 1%, slow 3% (one seeded stream per node);
* one storage node at a time goes through a rolling
  crash -> recover -> repair cycle;
* a recurring minority cut severs middleware 1 from two storage
  nodes, with hinted handoff on, and heals mid-cycle (the heal drains
  hints and is followed by an anti-entropy round);
* a live gossip round runs every 25 ops.

Crash, cut and heal events are keyed to the op index, and fault draws
to seeded per-node streams, so the seed fixes the whole storm.  The
storm (fault window included) ends with the last op; the closing
``pump()`` runs fault-free.

Why: ``simcloud.object_store``'s replica, retry and hint paths,
``simcloud.hashring``, ``core.gossip`` and ``core.merger`` do most of
the work.  Payloads are sparse and rings small, so a data-path
speed-up should show no change here.  It is the only workload where
client ops may fail.

Not in BENCHMARK.json: client ops fail here by design, and two program
defects stop its correctness gate from passing on every seed --

* a MOVE served from a stale cached ring records the source tuple's
  old size and etag while copying the current object (``H2Middleware
  .move`` ignores the ``ObjectInfo`` the copy returns), so fsck reports
  I3 after an overwrite and a move of the same file land on different
  middlewares within one gossip round (seed 5 at full scale);
* once descriptor caches evict, ``GossipNetwork.converge`` (hence
  ``pump()``) stops terminating: anti-entropy counts every ring missing
  from the puller's cache as a change and writes it back, and pullers
  keep trading their cached sets.  The trace is therefore sized so each
  middleware touches ~3,100 rings, below its 4,096-descriptor cache.
"""

from __future__ import annotations

import dataclasses
import random

from repro.core import H2CloudFS, H2Config
from repro.simcloud import (
    FaultPlan,
    MessageLoss,
    SparseData,
    SwiftCluster,
    mw_endpoint,
    node_endpoint,
)
from repro.simcloud.errors import SimCloudError
from repro.tools.fsck import H2Fsck

NAME = "fault-storm"
CUT = "minority"

SHAPE = {
    "dirs": 8000,
    "files": 4000,
    "max_depth": 10,
    "ops": 2000,
    "middlewares": 3,
    "message_loss": 0.05,
    "io_error_rate": 0.03,
    "timeout_rate": 0.01,
    "slow_rate": 0.03,
    "gossip_every": 25,
    "crash_cycle_ops": 1000,
    "cut_nodes": 2,
}
#: episodes per run at least
MIN_EPISODES = 1

#: (kind, cumulative weight): ~45% non-mutating, ~55% mutating
MIX = (
    ("exists", 0.15),
    ("stat", 0.30),
    ("list", 0.45),
    ("write", 0.70),
    ("mkdir", 0.80),
    ("move", 0.88),
    ("delete", 1.00),
)


@dataclasses.dataclass
class Inputs:
    seed: int
    dirs: list[str]  # the initial namespace, parents first
    files: dict[str, SparseData]  # the initial files
    ops: list[tuple]  # (kind, path, arg)
    events: dict[int, list[tuple]]  # op index -> storm events before it


def make_inputs(seed: int, scale: float = 1.0) -> Inputs:
    rng = random.Random(seed * 104_729 + 3)
    n_dirs = max(40, int(SHAPE["dirs"] * scale))
    n_files = max(20, int(SHAPE["files"] * scale))
    n_ops = max(200, int(SHAPE["ops"] * scale))
    max_depth = SHAPE["max_depth"]
    # A random recursive tree: each directory hangs off a uniformly
    # chosen earlier one (depth-capped), so paths run ~8 levels deep.
    dirs = ["/"]
    depth = {"/": 0}
    for i in range(n_dirs):
        parent = rng.choice(dirs)
        while depth[parent] >= max_depth:
            parent = rng.choice(dirs)
        path = _join(parent, f"d{i:05d}")
        dirs.append(path)
        depth[path] = depth[parent] + 1
    # Files sit four to a directory in a quarter of the directories
    # (one bulk write each keeps set-up cheap).
    holders = rng.sample(dirs, max(1, n_files // 4))
    files = {}
    for i in range(n_files):
        path = _join(holders[i % len(holders)], f"f{i:05d}")
        files[path] = SparseData(rng.randint(256, 8192), tag=path)
    ops = _trace(rng, list(dirs), depth, list(files), n_ops)
    nodes = 8  # SwiftCluster.rack_scale()
    return Inputs(seed, dirs[1:], files, ops, _storm(rng, n_ops, nodes))


def _trace(rng, dirs, depth, live, n_ops):
    """Ops over the namespace as the generator believes it stands.

    The trace assumes every op succeeds; at replay time a failed op
    taints the paths it touched instead (see :func:`gate`).
    """
    ops = []
    for serial in range(n_ops):
        roll = rng.random()
        kind = next(k for k, cum in MIX if roll < cum)
        if kind == "exists":
            ops.append(("exists", _join(rng.choice(dirs), f"absent{serial:06d}"), None))
        elif kind == "stat":
            ops.append(("stat", rng.choice(live), None))
        elif kind == "list":
            ops.append(("list", rng.choice(dirs), None))
        elif kind == "write":
            if rng.random() < 0.5:
                path = rng.choice(live)
            else:
                path = _join(rng.choice(dirs), f"w{serial:06d}")
                live.append(path)
            data = SparseData(rng.randint(256, 8192), tag=f"{path}#{serial}")
            ops.append(("write", path, data))
        elif kind == "mkdir":
            parent = rng.choice(dirs)
            while depth[parent] >= SHAPE["max_depth"]:
                parent = rng.choice(dirs)
            path = _join(parent, f"m{serial:06d}")
            dirs.append(path)
            depth[path] = depth[parent] + 1
            ops.append(("mkdir", path, None))
        elif kind == "move":
            src = _pop(rng, live)
            dest = _join(rng.choice(dirs), f"mv{serial:06d}")
            live.append(dest)
            ops.append(("move", src, dest))
        else:
            ops.append(("delete", _pop(rng, live), None))
    return ops


def _storm(rng, n_ops: int, nodes: int) -> dict[int, list[tuple]]:
    """Crash/recover/repair and cut/heal events, keyed to op index.

    Each cycle of ``crash_cycle_ops`` ops crashes one node at its start
    and recovers + repairs it halfway; the minority cut opens a quarter
    in and heals three quarters in, so crash and cut overlap for a
    quarter cycle.  Victims rotate from a seeded starting node.
    """
    cycle = SHAPE["crash_cycle_ops"] * n_ops // SHAPE["ops"]
    first = rng.randrange(nodes)
    events: dict[int, list[tuple]] = {}
    for k, start in enumerate(range(0, n_ops, cycle)):
        victim = (first + k) % nodes + 1
        cut = tuple(
            (victim + j) % nodes + 1 for j in range(1, SHAPE["cut_nodes"] + 1)
        )
        events.setdefault(start, []).append(("crash", victim))
        events.setdefault(start + cycle // 4, []).append(("cut", cut))
        events.setdefault(start + cycle // 2, []).append(("recover", victim))
        events.setdefault(start + 3 * cycle // 4, []).append(("heal", None))
    return events


def _pop(rng, items: list) -> str:
    """Remove and return a random element (swap-remove, deterministic)."""
    i = rng.randrange(len(items))
    items[i], items[-1] = items[-1], items[i]
    return items.pop()


def _join(parent: str, name: str) -> str:
    return (parent.rstrip("/") or "") + "/" + name


# ----------------------------------------------------------------------
# set-up, timed phase, correctness gate
# ----------------------------------------------------------------------
def setup(inputs: Inputs) -> H2CloudFS:
    """Load the namespace, then bring up the gossiping deployment.

    The tree is loaded through a single write-through middleware (no
    gossip to drain for 8,000 mkdirs); the three serving middlewares
    then start with cold descriptor caches on the loaded cluster.
    """
    cluster = SwiftCluster.rack_scale()
    loader = H2CloudFS(cluster, account="bench")
    for d in inputs.dirs:
        loader.mkdir(d)
    by_dir: dict[str, list] = {}
    for path, data in inputs.files.items():
        parent, _, name = path.rpartition("/")
        by_dir.setdefault(parent or "/", []).append((name, data))
    for parent, items in by_dir.items():
        loader.write_many(parent, items)
    loader.pump()
    cluster.enable_hinted_handoff()
    fs = H2CloudFS(
        cluster,
        account="bench",
        middlewares=SHAPE["middlewares"],
        config=H2Config(),
        message_loss=MessageLoss(
            SHAPE["message_loss"], seed=inputs.seed * 31 + 7, per_link=True
        ),
    )
    fs.pump()
    cluster.install_fault_plan(
        FaultPlan(
            seed=inputs.seed * 2_000_003 + 1,
            io_error_rate=SHAPE["io_error_rate"],
            timeout_rate=SHAPE["timeout_rate"],
            slow_rate=SHAPE["slow_rate"],
        )
    )
    return fs


def run(fs: H2CloudFS, inputs: Inputs, log) -> list[str]:
    """Replay the trace under the storm; returns wrong answers seen.

    Also fills ``log.tainted`` (paths a failed op touched) and
    ``log.mirror`` (path -> payload of every acknowledged file).
    """
    cluster = fs.cluster
    call, maintain = log.call, log.maintain
    network = fs.network
    every = SHAPE["gossip_every"]
    mirror = dict(inputs.files)
    tainted: set[str] = set()
    wrong: list[str] = []
    for i, (kind, path, arg) in enumerate(inputs.ops):
        for event, target in inputs.events.get(i, ()):
            if event == "crash":
                cluster.nodes[target].crash()
            elif event == "recover":
                cluster.nodes[target].recover()
                maintain(fs.repair)
            elif event == "cut":
                cluster.partitions.isolate(
                    [mw_endpoint(1)], [node_endpoint(n) for n in target], CUT
                )
            else:  # heal: the partition plan's hook drains hints
                maintain(cluster.partitions.heal, CUT)
                maintain(network.anti_entropy_round)
        if i % every == every - 1:
            maintain(network.pump)
        if kind == "exists":
            ok, found = call("exists", fs.exists, path)
            if ok and found:
                wrong.append(f"exists {path}: never-created name reported present")
        elif kind == "stat":
            call("stat", fs.stat, path)
        elif kind == "list":
            call("list", fs.listdir, path)
        elif kind == "write":
            if call("write", fs.write, path, arg)[0]:
                mirror[path] = arg
            else:
                tainted.add(path)
        elif kind == "mkdir":
            call("mkdir", fs.mkdir, path)
        elif kind == "move":
            ok = call("move", fs.move, path, arg)[0]
            if ok and path in mirror and path not in tainted:
                mirror[arg] = mirror.pop(path)
            else:
                # a failed move may have half-happened, and a file of
                # unknown content stays unknown wherever it moves
                tainted.update((path, arg))
        elif call("delete", fs.delete, path)[0]:
            mirror.pop(path, None)
        else:
            tainted.add(path)
    # The storm ends with the last op; maintenance drains fault-free.
    cluster.fault_plan.window_us = (0, fs.clock.now_us)
    maintain(fs.pump)
    log.mirror, log.tainted = mirror, tainted
    return wrong


def declared_bytes(inputs: Inputs, log) -> int:
    """Declared bytes of every acknowledged live file."""
    return sum(len(data) for data in log.mirror.values())


def _read(mw, account: str, path: str):
    try:
        return mw.read_file(account, path)
    except SimCloudError:
        return None


def gate(fs: H2CloudFS, inputs: Inputs, log) -> list[str]:
    """Heal everything, then: no hint left, every acknowledged file a
    failed op never touched reads back its payload, fsck is clean."""
    cluster = fs.cluster
    failures = []
    cluster.partitions.heal_all()
    for node in cluster.nodes.values():
        if node.is_down:
            node.recover()
    fs.repair()
    cluster.hint_sweeper.drain_to_empty()
    fs.pump()
    if cluster.store.hints.outstanding:
        failures.append(f"{cluster.store.hints.outstanding} hints left after heal")
    reader = fs.middlewares[-1]
    lost = [
        path
        for path, data in sorted(log.mirror.items())
        if path not in log.tainted and _read(reader, fs.account, path) != data
    ]
    if lost:
        failures.append(f"{len(lost)} acknowledged files read back wrong: {lost[:3]}")
    report = H2Fsck(fs.middlewares[0]).check()
    if not report.clean:
        failures.append(f"fsck: {report.errors[:3]}")
    return failures
