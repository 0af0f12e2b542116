"""Tests for replica rebalancing after a node joins the cluster.

Nodes join only through :class:`~repro.simcloud.membership.ClusterMembership`:
``add_node`` opens a migration window, ``quiesce`` drives its handoff
to completion and drops the replicas the old epoch no longer owns.
"""

import pytest

from repro.simcloud import SwiftCluster


@pytest.fixture
def loaded_cluster() -> SwiftCluster:
    cluster = SwiftCluster.fast()
    for i in range(120):
        cluster.store.put(f"obj/{i:03d}", bytes([i % 251]) * 10)
    return cluster


class TestRebalance:
    def test_scale_out_then_rebalance_heals_placement(self, loaded_cluster):
        cluster = loaded_cluster
        before = {nid: node.object_count for nid, node in cluster.nodes.items()}
        node = cluster.membership.add_node()
        # Directly after the ring change some objects' replica sets
        # reference the new node, which holds nothing yet.
        degraded = sum(
            1
            for name in cluster.store.names()
            if cluster.store.replica_health(name)[0] < 3
        )
        assert degraded > 0
        cluster.membership.quiesce()
        written = node.object_count
        dropped = sum(
            count - cluster.nodes[nid].object_count
            for nid, count in before.items()
        )
        assert written >= degraded
        assert dropped >= degraded  # stale copies left the old nodes
        for name in cluster.store.names():
            present, expected = cluster.store.replica_health(name)
            assert present == expected

    def test_no_stale_replicas_after_rebalance(self, loaded_cluster):
        cluster = loaded_cluster
        cluster.membership.add_node()
        cluster.membership.quiesce()
        for name in cluster.store.names():
            responsible = set(cluster.ring.nodes_for(name))
            holders = {
                nid
                for nid, node in cluster.nodes.items()
                if node.peek(name) is not None
            }
            assert holders == responsible

    def test_new_node_receives_fair_share(self, loaded_cluster):
        cluster = loaded_cluster
        node = cluster.membership.add_node()
        cluster.membership.quiesce()
        # ~1/9 of 360 replicas, very loosely bounded.
        assert node.object_count > 5

    def test_rebalance_idempotent(self, loaded_cluster):
        cluster = loaded_cluster
        cluster.membership.add_node()
        cluster.membership.quiesce()
        stats = cluster.storage_stats()
        background_us = cluster.store.ledger.background_us
        cluster.membership.quiesce()
        # A second pass finds nothing to copy in and nothing to drop.
        assert cluster.store.repair() == 0
        assert cluster.membership.release_stray_replicas() == 0
        assert cluster.storage_stats() == stats
        assert cluster.store.ledger.background_us == background_us

    def test_data_readable_throughout(self, loaded_cluster):
        cluster = loaded_cluster
        names = sorted(cluster.store.names())
        cluster.membership.add_node()
        # Mid-window the new owners may hold nothing yet; dual reads fall
        # back to the old epoch's owners.
        for name in names:
            assert cluster.store.get(name).data
        assert cluster.membership.dual_reads > 0
        cluster.membership.sweeper.step(max_objects=4)
        assert cluster.membership.in_transition
        for name in names:
            assert cluster.store.get(name).data
        cluster.membership.quiesce()
        for name in names:
            assert cluster.store.get(name).data

    def test_rebalance_cost_is_background(self):
        cluster = SwiftCluster.rack_scale()
        for i in range(30):
            cluster.store.put(f"o{i}", b"x" * 100)
        cluster.membership.add_node()
        t = cluster.clock.now_us
        bg = cluster.store.ledger.background_us
        cluster.membership.quiesce()
        assert cluster.clock.now_us == t
        assert cluster.store.ledger.background_us > bg
