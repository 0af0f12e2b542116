"""Tests for cluster assembly and the latency model presets."""

import pytest

from repro.simcloud import (
    ClusterConfig,
    Jitter,
    LatencyModel,
    SwiftCluster,
)


class TestClusterConfig:
    def test_defaults_match_paper_rack(self):
        cfg = ClusterConfig()
        assert cfg.storage_nodes == 8
        assert cfg.replicas == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(storage_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(replicas=0)


class TestSwiftCluster:
    def test_rack_scale_builds_eight_nodes(self):
        cluster = SwiftCluster.rack_scale()
        assert len(cluster.nodes) == 8
        assert len(cluster.ring) == 8

    def test_nodes_share_ring_membership(self):
        cluster = SwiftCluster.fast()
        assert set(cluster.nodes) == set(cluster.ring.node_ids)

    def test_add_storage_node_joins_ring(self):
        cluster = SwiftCluster.fast()
        node = cluster.membership.add_node()
        cluster.membership.quiesce()
        assert node.node_id == 9
        assert node.node_id in cluster.ring.node_ids
        cluster.store.put("after-scale", b"x")
        assert cluster.store.get("after-scale").data == b"x"

    def test_storage_stats(self):
        cluster = SwiftCluster.fast()
        cluster.store.put("o", b"12345")
        stats = cluster.storage_stats()
        total_replicas = sum(count for count, _ in stats.values())
        total_bytes = sum(b for _, b in stats.values())
        assert total_replicas == 3
        assert total_bytes == 15

    def test_replicas_spread_across_nodes(self):
        cluster = SwiftCluster.rack_scale()
        for i in range(200):
            cluster.store.put(f"spread/{i}", b"x")
        stats = cluster.storage_stats()
        loaded = [nid for nid, (count, _) in stats.items() if count > 0]
        assert len(loaded) == 8  # every node carries some replicas


class TestLatencyModel:
    def test_zero_preset_charges_nothing(self):
        cluster = SwiftCluster.fast()
        cluster.store.put("a", b"x")
        cluster.store.get("a")
        assert cluster.clock.now_us == 0

    def test_paper_constants(self):
        m = LatencyModel.rack_scale()
        assert m.wan_rtt_us == 58_000  # avg PING to Dropbox
        assert m.wan_rtt_min_us == 24_000
        assert m.wan_rtt_max_us == 83_000
        assert m.lan_bandwidth_bps == 1_000_000_000

    def test_transfer_time_linear_in_bytes(self):
        m = LatencyModel.rack_scale()
        assert m.transfer_us(2_000_000) == 2 * m.transfer_us(1_000_000)

    def test_with_override(self):
        m = LatencyModel.rack_scale().with_(lan_rtt_us=999)
        assert m.lan_rtt_us == 999
        assert m.disk_seek_us == LatencyModel.rack_scale().disk_seek_us

    def test_disk_read_includes_seek(self):
        m = LatencyModel.rack_scale()
        assert m.disk_read_us(0) == m.disk_seek_us
        assert m.disk_read_us(1_000_000) > m.disk_seek_us


class TestJitter:
    def test_deterministic_stream(self):
        m = LatencyModel.rack_scale()
        a = [Jitter(m).apply(10_000) for _ in range(1)]
        b = [Jitter(m).apply(10_000) for _ in range(1)]
        assert a == b

    def test_bounded(self):
        m = LatencyModel.rack_scale()
        jitter = Jitter(m)
        for _ in range(200):
            v = jitter.apply(10_000)
            assert 9_200 <= v <= 10_800  # +/- 8%

    def test_zero_frac_is_identity(self):
        jitter = Jitter(LatencyModel.zero())
        assert jitter.apply(12345) == 12345

    def test_wan_rtt_within_paper_range(self):
        m = LatencyModel.rack_scale()
        jitter = Jitter(m)
        samples = [jitter.wan_rtt_us(m) for _ in range(500)]
        assert all(24_000 <= s <= 83_000 for s in samples)
        mean = sum(samples) / len(samples)
        assert 50_000 < mean < 62_000  # triangular around 58 ms
