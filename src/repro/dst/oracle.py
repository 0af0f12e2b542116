"""The DST oracle: what must be true of a quiesced deployment.

After the runner executes a schedule and drives the system to quiesce
(all nodes recovered, faults off, repair swept, mergers drained, gossip
converged, GC run), these checks must all hold:

* **V1 model equivalence** -- the filesystem tree equals the
  :class:`~repro.testing.model.ModelFS` mirror built from the ops that
  succeeded, in schedule order.  Sound because every child timestamp
  comes from the cluster's single strictly-increasing factory, so
  last-writer-wins order *is* schedule order.  Skipped when a mutating
  op died of a storage-layer error (a half-applied multi-object op may
  legitimately diverge from an all-or-nothing model).
* **V2 view convergence** -- every middleware walks the same tree: the
  NameRing CRDT plus gossip/anti-entropy converged all local versions.
* **V3 structural integrity** -- :class:`~repro.tools.fsck.H2Fsck`
  finds no broken invariants (I1-I4) and no degraded replica sets
  (outages were repaired).
* **V4 no leaked objects** -- after GC, fsck reports no unreachable
  ``dir:``/``nr:``/``f:``/``patch:`` garbage.
* **V5 replica agreement** -- no object's surviving replicas diverge
  (fsck I7): recoveries plus repair restored bit-identical copies.
* **V6 no undetected corruption** -- after the quiesce-time scrub,
  every present replica of every object verifies against its
  write-time checksum, except objects the store *loudly* reported
  unrecoverable (``store.unrecoverable``).  Together with V1/V5 this
  closes the integrity loop: corruption injected during the run was
  either healed (read-repair, repair sweep, scrub) or reported --
  never silently retained, and (by the verified read path) never
  served.
* **V7 membership convergence** -- after quiesce no epoch transition
  is still open (every migration window drained and finalized), and
  every registered object is held by *exactly* its current replica
  set: no partition lost (a replica missing from an owner), none
  double-owned (a stray replica on a node outside the owner set --
  e.g. an old-epoch owner that was never released, or a departed
  epoch's copy resurrected by repair).  Holds vacuously for schedules
  without membership steps, so it runs unconditionally.
* **V8 heal convergence** -- only when hinted handoff was armed
  (``--layers partitions`` runs): after every partition cut healed and the
  hint-delivery sweeper drained, (a) no cut is still open, (b) the
  hint store is empty (no hint stranded on a fallback), and (c) every
  *acknowledged* write survives -- its name is deleted, loudly
  unrecoverable, or some current ring owner holds a verified replica
  at least as new as the acknowledged timestamp.  This is the whole
  point of sloppy quorum: availability during the partition must not
  cost durability after it.

Unrecoverable objects -- every replica rotted, nothing to heal from --
are a *legal* outcome of a corruption storm provided they are reported:
the tree snapshots mark them with a sentinel and V1 compares around
them (the model still remembers bytes no replica can produce).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.namering import KIND_DIR
from ..simcloud.errors import CorruptObjectError
from ..simcloud.integrity import verify_record
from ..testing.model import ModelFS, snapshot_of, tree_hash
from ..tools.fsck import H2Fsck

#: Snapshot value for paths whose object has no verified replica left:
#: deterministic (same store -> same verdict on every middleware) so
#: view convergence still hashes equal, and excluded from V1.
UNREADABLE = b"\x00<unrecoverable>\x00"


@dataclass(frozen=True)
class InvariantViolation:
    """One broken promise, with enough detail to debug the repro."""

    check: str  # "V1".."V5" | "crash" | "quiesce" | "read"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.check}] {self.detail}"


def _diff_trees(expected: dict, actual: dict, limit: int = 5) -> str:
    lines: list[str] = []
    for path in sorted(set(expected) | set(actual)):
        if len(lines) >= limit:
            lines.append("...")
            break
        want, got = expected.get(path, "<absent>"), actual.get(path, "<absent>")
        if want != got:
            want_s = "<dir>" if want is None else repr(want)[:40]
            got_s = "<dir>" if got is None else repr(got)[:40]
            lines.append(f"{path}: model={want_s} fs={got_s}")
    return "; ".join(lines)


def snapshot_via(middleware, account: str) -> dict[str, bytes | None]:
    """One middleware's view of the whole account tree.

    Unrecoverable objects (the verified read path refuses every
    replica) appear as :data:`UNREADABLE` -- for a directory, its
    subtree is simply absent -- so a loudly-reported corruption cannot
    crash the oracle's walk.
    """
    tree: dict[str, bytes | None] = {}

    def walk(top: str) -> None:
        for entry in middleware.list_dir(account, top, detailed=False):
            full = (top.rstrip("/") or "") + "/" + entry.name
            if entry.kind == KIND_DIR:
                tree[full] = None
                try:
                    walk(full)
                except CorruptObjectError:
                    tree[full] = UNREADABLE
            else:
                try:
                    tree[full] = middleware.read_file(account, full)
                except CorruptObjectError:
                    tree[full] = UNREADABLE

    walk("/")
    return tree


def _prune_unreadable(
    trees: list[dict[str, bytes | None]],
) -> list[dict[str, bytes | None]]:
    """Drop every path any tree marked UNREADABLE (and its subtree)."""
    pruned = {
        path
        for tree in trees
        for path, value in tree.items()
        if value == UNREADABLE
    }
    if not pruned:
        return trees
    return [
        {
            path: value
            for path, value in tree.items()
            if not any(path == p or path.startswith(p + "/") for p in pruned)
        }
        for tree in trees
    ]


def check_invariants(fs, model: ModelFS | None = None) -> list[InvariantViolation]:
    """All post-quiesce checks; ``model=None`` skips V1."""
    violations: list[InvariantViolation] = []

    per_mw = [snapshot_via(mw, fs.account) for mw in fs.middlewares]

    if model is not None:
        expected, actual = _prune_unreadable([model.snapshot(), per_mw[0]])
        if tree_hash(expected) != tree_hash(actual):
            violations.append(
                InvariantViolation(
                    "V1", f"model divergence: {_diff_trees(expected, actual)}"
                )
            )

    baseline = tree_hash(per_mw[0])
    for mw, snap in zip(fs.middlewares[1:], per_mw[1:]):
        if tree_hash(snap) != baseline:
            violations.append(
                InvariantViolation(
                    "V2",
                    f"middleware {mw.node_id} diverges from middleware "
                    f"{fs.middlewares[0].node_id}: "
                    f"{_diff_trees(per_mw[0], snap)}",
                )
            )

    report = H2Fsck(fs.middlewares[0]).check()
    for error in report.errors:
        violations.append(InvariantViolation("V3", error))
    for degraded in report.degraded_replicas:
        violations.append(
            InvariantViolation("V3", f"degraded after repair: {degraded}")
        )
    for leaked in report.garbage:
        violations.append(
            InvariantViolation("V4", f"leaked object after GC: {leaked}")
        )
    for divergent in report.divergent_replicas:
        violations.append(InvariantViolation("V5", divergent))

    # V6: a direct store-wide scan, independent of tree reachability --
    # garbage and patch objects rot too.  Any present replica failing
    # verification must belong to an object the store has loudly
    # reported unrecoverable; anything else is *silent* corruption that
    # survived read-repair, the repair sweep and the quiesce scrub.
    store = fs.store
    reported = getattr(store, "unrecoverable", set())
    for name in sorted(store.names()):
        if name in reported:
            continue
        for node_id in store.ring.nodes_for(name):
            record = store.nodes[node_id].peek(name)
            if record is not None and not verify_record(record):
                violations.append(
                    InvariantViolation(
                        "V6",
                        f"undetected corruption: replica of {name} on node "
                        f"{node_id} fails checksum verification and the "
                        f"object is not reported unrecoverable",
                    )
                )

    # V7: membership convergence.  The quiesced cluster must be out of
    # any migration window, and holders must equal owners exactly --
    # no object lost from its replica set, none double-owned by a node
    # outside it.  Unrecoverable objects are exempt from the "owners
    # hold it" half (a wiped-out partition cannot be re-replicated) but
    # not from the stray-copy half.
    membership = getattr(store, "membership", None)
    if membership is not None and membership.in_transition:
        violations.append(
            InvariantViolation(
                "V7",
                "migration window still open after quiesce: "
                f"{membership.plan.describe()}",
            )
        )
    for name in sorted(store.names()):
        owners = set(store.ring.nodes_for(name))
        holders = {
            node_id
            for node_id, node in store.nodes.items()
            if node.peek(name) is not None
        }
        if name not in reported and not owners <= holders:
            violations.append(
                InvariantViolation(
                    "V7",
                    f"partition lost: {name} missing from owner(s) "
                    f"{sorted(owners - holders)}",
                )
            )
        if holders - owners:
            violations.append(
                InvariantViolation(
                    "V7",
                    f"double-owned: {name} also held by non-owner(s) "
                    f"{sorted(holders - owners)}",
                )
            )

    # V8: heal convergence.  Gated on the hint store -- deployments
    # that never armed hinted handoff (everything predating the
    # partition regime) skip it entirely.
    hints = getattr(store, "hints", None)
    if hints is not None:
        partitions = getattr(store, "partitions", None)
        if partitions is not None and partitions.active:
            violations.append(
                InvariantViolation(
                    "V8",
                    "partition cut(s) still open after quiesce: "
                    f"{sorted(partitions.active)}",
                )
            )
        if hints.outstanding:
            stranded = [
                (h.name, h.home_node, h.fallback_node) for h in hints.hints()
            ][:5]
            violations.append(
                InvariantViolation(
                    "V8",
                    f"{hints.outstanding} hint(s) stranded after heal "
                    f"and drain: {stranded}",
                )
            )
        # Acked-write durability: for every acknowledged PUT, the name
        # is since deleted, loudly unrecoverable, or some *current*
        # owner holds a verified replica at least as new as the ack.
        # "The ack" is the *last* acknowledgement in schedule order,
        # not the max-timestamp one: node writes overwrite in schedule
        # order, and a later physical write can legitimately carry a
        # smaller timestamp (ring-CRDT merges stamp the merged version,
        # not the wall clock of the rewrite).
        live = set(store.names())
        acked_newest: dict = {}
        for name, ts in hints.acked:
            acked_newest[name] = ts
        for name in sorted(acked_newest):
            if name not in live or name in reported:
                continue
            ts = acked_newest[name]
            if not any(
                record is not None
                and record.timestamp >= ts
                and verify_record(record)
                for record in (
                    store.nodes[node_id].peek(name)
                    for node_id in store.ring.nodes_for(name)
                    if node_id in store.nodes
                )
            ):
                violations.append(
                    InvariantViolation(
                        "V8",
                        f"acked write lost: {name} was acknowledged at "
                        f"{ts} but no current owner holds a verified "
                        f"replica that new",
                    )
                )
    return violations


def final_tree_hash(fs) -> str:
    """Canonical digest of the quiesced tree (run-digest component).

    A tree holding an unrecoverable object digests to a deterministic
    marker naming the first refusal -- still replayable, never a crash.
    """
    try:
        return tree_hash(snapshot_of(fs))
    except CorruptObjectError as exc:
        return f"<unrecoverable:{exc.name}>"
