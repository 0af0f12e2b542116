#!/usr/bin/env python
"""Day-2 operations: running H2Cloud after the demo is over.

The operational story behind the paper's reliability claims, told with
the repo's tooling:

1. fsck the object graph;
2. scale the rack out by one storage node and hand replicas off to it;
3. lose a middleware with unmerged patches -- recover them from the
   durable patch objects alone;
4. back the account up to a Cumulus snapshot and verify the restore;
5. garbage-collect and re-check.

Run:  python examples/day2_operations.py
"""

from repro.baselines import CompressedSnapshotFS
from repro.core import H2CloudFS, H2Config, H2Middleware
from repro.simcloud import SwiftCluster
from repro.tools import H2Fsck, migrate, verify_equivalent
from repro.workloads import TreeSpec, generate, populate


def main() -> None:
    cluster = SwiftCluster.rack_scale()
    fs = H2CloudFS(cluster, account="prod", config=H2Config(auto_merge=False))
    populate(fs, generate(TreeSpec(seed=8, target_files=120, max_depth=5)),
             sparse=False)
    fs.pump()

    print("== 1. fsck ==")
    print(" ", H2Fsck(fs.middlewares[0]).check().summary())

    print("\n== 2. scale out + rebalance ==")
    membership = cluster.membership
    node = membership.add_node()
    degraded = sum(
        1 for name in cluster.store.names()
        if cluster.store.replica_health(name)[0] < 3
    )
    print(f"  node {node.node_id} joined at epoch {membership.epoch}; "
          f"{degraded} objects under-replicated")
    membership.quiesce()
    print(f"  handoff moved {membership.partitions_moved} objects "
          f"({membership.bytes_migrated:,} B) in; stale copies released")
    print(f"  new node now holds {node.object_count} replicas")
    print(" ", H2Fsck(fs.middlewares[0]).check().summary())

    print("\n== 3. middleware crash with unmerged patches ==")
    fs.write("/fresh-report.txt", b"written moments before the crash")
    pending = sum(
        len(fd.chain) for fd in fs.middlewares[0].fd_cache.dirty_descriptors()
    )
    print(f"  middleware dies holding {pending} unmerged patch(es)")
    replacement = H2Middleware(node_id=99, store=cluster.store)
    recovered = replacement.merger.recover_orphaned_patches()
    print(f"  replacement middleware recovered {recovered} patches from the store")
    print(f"  read-back: {replacement.read_file('prod', '/fresh-report.txt')!r}")

    print("\n== 4. backup to a Cumulus snapshot, verify restore ==")
    # Frontends are stateless: attach a brand-new H2CloudFS to the same
    # cluster+account and it serves the existing tree.
    reattached = H2CloudFS(cluster, account="prod")
    backup = CompressedSnapshotFS(SwiftCluster.rack_scale(), account="vault")
    report = migrate(reattached, backup)
    print(f"  backed up {report.directories} dirs, {report.files} files, "
          f"{report.logical_bytes:,} B")
    restored = H2CloudFS(SwiftCluster.rack_scale(), account="restored")
    migrate(backup, restored)
    print(f"  restore verified: {verify_equivalent(backup, restored)}")

    print("\n== 5. GC + final fsck ==")
    fs.pump()
    gc_report = fs.gc()
    print(f"  gc swept {gc_report.swept} objects, "
          f"reclaimed {gc_report.reclaimed_bytes:,} B")
    print(" ", H2Fsck(fs.middlewares[0]).check().summary())
    print("done.")


if __name__ == "__main__":
    main()
