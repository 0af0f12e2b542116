"""fsck for H2: verify the on-cloud object graph's invariants.

An H2 filesystem *is* a set of flat objects with structural promises
between them.  The checker walks one deployment and verifies, per
account:

* **I1 root integrity** — the account's root `dir:` and `nr:` objects
  exist and parse;
* **I2 ring/record pairing** — every reachable directory has both its
  record and its NameRing, and the record's parent pointer matches the
  tree position;
* **I3 child references** — every live file tuple's content object
  exists, and its size/etag match the tuple's metadata;
* **I4 namespace uniqueness** — no directory namespace appears under
  two parents;
* **I5 replica health** — every reachable object has its full replica
  set on healthy nodes;
* **I6 garbage accounting** — unreachable `dir:`/`nr:`/`f:` objects
  and orphaned `patch:` objects are reported (GC's work list, not an
  error);
* **I7 replica agreement** — all present replicas of a reachable
  object hold the same bytes (etag + timestamp); a crash/recover cycle
  without a repair sweep leaves stale copies, reported here so the
  deterministic-simulation oracle can insist on agreement after quiesce.
* **I8 payload integrity** — every present replica's bytes still match
  the checksum computed when they were written
  (:mod:`repro.simcloud.integrity`); silent bit-rot keeps the etag and
  timestamp intact, so only the checksum can expose it.
* **I9 shard structure** — a sharded ring's manifest parses, every
  listed shard payload exists and parses, each child tuple lives in
  the shard its name hashes to, and no name appears in two shards.
  Manifest digests lagging the payloads are reported separately
  (``stale_manifests``): they are self-healing (GC's compact pass
  rewrites them), not structural damage.

The checker is read-only and runs in background-accounted time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import formatter, shards
from ..core.namering import KIND_DIR, NameRing
from ..core.namespace import Namespace, directory_key, file_key, namering_key
from ..simcloud.errors import CorruptObjectError, ObjectNotFound
from ..simcloud.integrity import verify_record


@dataclass
class FsckReport:
    """Findings of one check run."""

    accounts_checked: int = 0
    directories_checked: int = 0
    files_checked: int = 0
    errors: list[str] = field(default_factory=list)
    garbage: list[str] = field(default_factory=list)
    degraded_replicas: list[str] = field(default_factory=list)
    divergent_replicas: list[str] = field(default_factory=list)
    corrupt_replicas: list[str] = field(default_factory=list)
    #: manifests whose stored digests lag the shard payloads -- GC's
    #: compact pass heals these, so they are advisory, not errors.
    stale_manifests: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        status = "CLEAN" if self.clean else f"{len(self.errors)} ERROR(S)"
        return (
            f"fsck: {status} -- {self.accounts_checked} accounts, "
            f"{self.directories_checked} dirs, {self.files_checked} files; "
            f"{len(self.garbage)} garbage objects, "
            f"{len(self.degraded_replicas)} degraded replicas, "
            f"{len(self.divergent_replicas)} divergent replicas, "
            f"{len(self.corrupt_replicas)} corrupt replicas, "
            f"{len(self.stale_manifests)} stale manifests"
        )


class H2Fsck:
    """Offline consistency checker for one deployment."""

    def __init__(self, middleware):
        self._mw = middleware
        self._store = middleware.store

    def check(self) -> FsckReport:
        return self._mw.background(self._check)

    # ------------------------------------------------------------------
    def _check(self) -> FsckReport:
        report = FsckReport()
        reachable: set[str] = set()
        owners: dict[str, str] = {}  # child dir ns -> parent ns (I4)
        for account in sorted(self._store.accounts):
            report.accounts_checked += 1
            self._check_account(account, report, reachable, owners)
        self._check_garbage(report, reachable)
        return report

    def _check_account(self, account, report, reachable, owners) -> None:
        root = Namespace.root(account)
        if not self._store.exists(directory_key(root)):
            report.errors.append(f"I1 {account}: missing root directory record")
            return
        stack: list[tuple[Namespace, str | None]] = [(root, None)]
        while stack:
            ns, parent_uuid = stack.pop()
            report.directories_checked += 1
            dkey, rkey = directory_key(ns), namering_key(ns)
            reachable.update((dkey, rkey))
            record = self._load_directory(ns, report)
            if record is not None and parent_uuid is not None:
                if record.parent_ns != parent_uuid:
                    report.errors.append(
                        f"I2 {ns}: record parent {record.parent_ns} != tree "
                        f"parent {parent_uuid}"
                    )
            ring = self._load_ring(ns, report, reachable)
            if ring is None:
                continue
            for child in ring.live_children():
                if child.kind == KIND_DIR:
                    if child.ns in owners:
                        report.errors.append(
                            f"I4 namespace {child.ns} linked from both "
                            f"{owners[child.ns]} and {ns.uuid}"
                        )
                        continue
                    owners[child.ns] = ns.uuid
                    stack.append((Namespace(child.ns), ns.uuid))
                else:
                    report.files_checked += 1
                    self._check_file(ns, child, report, reachable)
            self._check_replicas(dkey, report)
            self._check_replicas(rkey, report)

    def _load_directory(self, ns, report):
        try:
            data = self._store.get(directory_key(ns)).data
            return formatter.loads_directory(data)
        except ObjectNotFound:
            report.errors.append(f"I2 {ns}: directory record missing")
        except CorruptObjectError:
            report.corrupt_replicas.append(
                f"I8 {ns}: directory record unrecoverable (no verified replica)"
            )
        except formatter.FormatError as exc:
            report.errors.append(f"I2 {ns}: unparseable record ({exc})")
        return None

    def _load_ring(self, ns, report, reachable):
        try:
            layout = shards.open_layout(self._store, ns)
        except ObjectNotFound:
            report.errors.append(f"I2 {ns}: NameRing missing")
            return None
        except CorruptObjectError:
            report.corrupt_replicas.append(
                f"I8 {ns}: NameRing unrecoverable (no verified replica)"
            )
            return None
        except formatter.FormatError as exc:
            report.errors.append(f"I2 {ns}: unparseable NameRing ({exc})")
            return None
        if layout.manifest is None:
            return layout.head[1]
        return self._load_sharded_ring(ns, layout, report, reachable)

    def _load_sharded_ring(self, ns, layout, report, reachable):
        """I9: verify shard structure and reassemble the full ring."""
        count = layout.manifest.shard_count
        merged: dict = {}
        seen: dict[str, int] = {}
        for k in range(count):
            key = layout.key(k)
            reachable.add(key)
            try:
                payload, shard = layout.fetch(self._store, [k])[k]
            except CorruptObjectError:
                report.corrupt_replicas.append(
                    f"I8 {key}: shard unrecoverable (no verified replica)"
                )
                continue
            except formatter.FormatError as exc:
                report.errors.append(
                    f"I9 {ns}: unparseable shard {k} ({exc})"
                )
                continue
            if payload is None:
                report.errors.append(f"I9 {ns}: shard {k}/{count} missing")
                continue
            if shards.digest_of(shard) != layout.manifest.digests[k]:
                report.stale_manifests.append(
                    f"{ns}: manifest digest lags shard {k}"
                )
            for name, child in shard.children.items():
                if shards.shard_of(name, count) != k:
                    report.errors.append(
                        f"I9 {ns}: {name!r} misplaced in shard {k} "
                        f"(hashes to {shards.shard_of(name, count)})"
                    )
                if name in seen:
                    report.errors.append(
                        f"I9 {ns}: {name!r} present in shards "
                        f"{seen[name]} and {k}"
                    )
                    continue
                seen[name] = k
                merged[name] = child
            self._check_replicas(key, report)
        return NameRing(children=merged)

    def _check_file(self, ns, child, report, reachable) -> None:
        key = file_key(ns, child.name)
        reachable.add(key)
        try:
            info = self._store.head(key)
        except ObjectNotFound:
            report.errors.append(
                f"I3 {ns}::{child.name}: content object missing"
            )
            return
        if info.size != child.size:
            report.errors.append(
                f"I3 {ns}::{child.name}: tuple size {child.size} != "
                f"object size {info.size}"
            )
        if child.etag and info.etag != child.etag:
            report.errors.append(f"I3 {ns}::{child.name}: etag mismatch")
        self._check_replicas(key, report)

    def _check_replicas(self, key, report) -> None:
        present, expected = self._store.replica_health(key)
        if present < expected:
            report.degraded_replicas.append(f"I5 {key}: {present}/{expected}")
        # I7: all present replicas must agree byte-for-byte.
        # I8: each one must also still match its write-time checksum --
        # bit-rot leaves etag and timestamp intact, so agreement alone
        # cannot catch it.
        etags = set()
        for node_id in self._store.ring.nodes_for(key):
            node = self._store.nodes[node_id]
            if node.is_down:
                continue
            record = node.peek(key)
            if record is not None:
                etags.add(record.etag)
                if not verify_record(record):
                    report.corrupt_replicas.append(
                        f"I8 {key}: checksum mismatch on node {node_id}"
                    )
        if len(etags) > 1:
            report.divergent_replicas.append(
                f"I7 {key}: {len(etags)} distinct replica versions"
            )

    def _check_garbage(self, report, reachable) -> None:
        protected = {
            patch.object_name
            for fd in self._mw.fd_cache.dirty_descriptors()
            for patch in fd.chain.patches
        }
        for name in sorted(self._store.names()):
            if name in reachable or name in protected:
                continue
            if name.startswith(("dir:", "nr:", "f:", "patch:")):
                report.garbage.append(name)
