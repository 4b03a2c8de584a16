"""Tests for the cluster topology substrate."""

import pytest

from repro.cluster.topology import ClusterTopology, LinkType


class TestClusterTopologyStructure:
    def test_num_devices(self):
        topo = ClusterTopology(num_nodes=4, devices_per_node=8)
        assert topo.num_devices == 32

    def test_paper_cluster_matches_evaluation_setup(self):
        topo = ClusterTopology.paper_cluster()
        assert topo.num_nodes == 4
        assert topo.devices_per_node == 8
        assert topo.num_devices == 32
        assert topo.device_spec.name == "A100-80GB"

    def test_node_assignment_is_contiguous(self):
        topo = ClusterTopology(num_nodes=2, devices_per_node=4)
        assert [topo.node(d) for d in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_devices_on_node(self):
        topo = ClusterTopology(num_nodes=3, devices_per_node=2)
        assert topo.devices_on_node(1) == [2, 3]

    def test_devices_iterator_covers_all(self):
        topo = ClusterTopology(num_nodes=2, devices_per_node=3)
        assert list(topo.devices()) == list(range(6))

    def test_same_node(self):
        topo = ClusterTopology(num_nodes=2, devices_per_node=4)
        assert topo.same_node(0, 3)
        assert not topo.same_node(0, 4)

    def test_invalid_device_raises(self):
        topo = ClusterTopology(num_nodes=1, devices_per_node=2)
        with pytest.raises(ValueError):
            topo.node(5)
        with pytest.raises(ValueError):
            topo.node(-1)

    def test_invalid_node_raises(self):
        topo = ClusterTopology(num_nodes=1, devices_per_node=2)
        with pytest.raises(ValueError):
            topo.devices_on_node(2)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ClusterTopology(num_nodes=0, devices_per_node=4)
        with pytest.raises(ValueError):
            ClusterTopology(num_nodes=1, devices_per_node=0)
        with pytest.raises(ValueError):
            ClusterTopology(num_nodes=1, devices_per_node=2,
                            intra_node_bandwidth=-1.0)


class TestLinks:
    def test_link_types(self):
        topo = ClusterTopology(num_nodes=2, devices_per_node=2)
        assert topo.link_type(0, 0) is LinkType.LOCAL
        assert topo.link_type(0, 1) is LinkType.INTRA_NODE
        assert topo.link_type(0, 2) is LinkType.INTER_NODE

    def test_intra_node_faster_than_inter_node(self):
        topo = ClusterTopology(num_nodes=2, devices_per_node=2)
        assert topo.bandwidth(0, 1) > topo.bandwidth(0, 2)
        assert topo.latency(0, 1) < topo.latency(0, 2)

    def test_local_bandwidth_is_infinite(self):
        topo = ClusterTopology(num_nodes=1, devices_per_node=2)
        assert topo.bandwidth(0, 0) == float("inf")
        assert topo.latency(0, 0) == 0.0

    def test_p2p_time_zero_for_local_or_empty(self):
        topo = ClusterTopology(num_nodes=2, devices_per_node=2)
        assert topo.p2p_time(0, 0, 1e9) == 0.0
        assert topo.p2p_time(0, 2, 0.0) == 0.0

    def test_p2p_time_scales_with_bytes(self):
        topo = ClusterTopology(num_nodes=2, devices_per_node=2)
        t1 = topo.p2p_time(0, 2, 1e9)
        t2 = topo.p2p_time(0, 2, 2e9)
        assert t2 > t1

    def test_p2p_rejects_negative_bytes(self):
        topo = ClusterTopology(num_nodes=1, devices_per_node=2)
        with pytest.raises(ValueError):
            topo.p2p_time(0, 1, -1.0)


class TestConstructors:
    def test_single_node(self):
        topo = ClusterTopology.single_node(6)
        assert topo.num_nodes == 1
        assert topo.num_devices == 6

    def test_homogeneous_multi_node(self):
        topo = ClusterTopology.homogeneous(16, devices_per_node=8)
        assert topo.num_nodes == 2

    def test_homogeneous_small(self):
        topo = ClusterTopology.homogeneous(4, devices_per_node=8)
        assert topo.num_nodes == 1
        assert topo.devices_per_node == 4

    def test_homogeneous_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            ClusterTopology.homogeneous(12, devices_per_node=8)

    def test_describe_mentions_device(self):
        assert "A100" in ClusterTopology.paper_cluster().describe()
