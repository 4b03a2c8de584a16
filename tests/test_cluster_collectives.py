"""Tests for the collective communication cost models."""

import numpy as np
import pytest

from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology


@pytest.fixture
def model():
    return CollectiveCostModel(ClusterTopology(num_nodes=2, devices_per_node=4))


class TestAllToAll:
    def test_zero_traffic_costs_nothing(self, model):
        traffic = np.zeros((8, 8))
        assert model.all_to_all(traffic) == 0.0

    def test_cost_grows_with_traffic(self, model):
        t1 = model.uniform_all_to_all(1e6)
        t2 = model.uniform_all_to_all(2e6)
        assert t2 > t1

    def test_inter_node_traffic_costs_more(self, model):
        n = 8
        intra = np.zeros((n, n))
        intra[0, 1] = 1e9
        inter = np.zeros((n, n))
        inter[0, 4] = 1e9
        assert model.all_to_all(inter) > model.all_to_all(intra)

    def test_diagonal_is_free(self, model):
        traffic = np.zeros((8, 8))
        np.fill_diagonal(traffic, 1e12)
        assert model.all_to_all(traffic) == 0.0

    def test_skewed_traffic_slower_than_balanced(self, model):
        """The same total volume concentrated on one receiver takes longer."""
        n = 8
        total = 7e8
        balanced = np.full((n, n), total / (n * (n - 1)))
        np.fill_diagonal(balanced, 0.0)
        skewed = np.zeros((n, n))
        skewed[:, 0] = total / (n - 1)
        skewed[0, 0] = 0.0
        # Rebalance so totals match (sender 0 sends nothing in skewed case).
        assert model.all_to_all(skewed) > model.all_to_all(balanced)

    def test_wrong_shape_rejected(self, model):
        with pytest.raises(ValueError):
            model.all_to_all(np.zeros((3, 3)))

    def test_negative_traffic_rejected(self, model):
        traffic = np.zeros((8, 8))
        traffic[0, 1] = -1
        with pytest.raises(ValueError):
            model.all_to_all(traffic)

    def test_subgroup(self, model):
        traffic = np.full((2, 2), 1e6)
        np.fill_diagonal(traffic, 0.0)
        t_intra = model.all_to_all(traffic, group=[0, 1])
        t_inter = model.all_to_all(traffic, group=[0, 4])
        assert t_inter > t_intra

    def test_single_member_group(self, model):
        assert model.all_to_all(np.zeros((1, 1)), group=[3]) == 0.0


class TestRingCollectives:
    def test_all_gather_zero(self, model):
        assert model.all_gather(0.0) == 0.0

    def test_all_gather_scales_with_bytes(self, model):
        assert model.all_gather(2e6) > model.all_gather(1e6)

    def test_reduce_scatter_equals_all_gather(self, model):
        assert model.reduce_scatter(1e6) == pytest.approx(model.all_gather(1e6))

    def test_all_reduce_about_twice_all_gather(self, model):
        ag = model.all_gather(1e8 / 8)
        ar = model.all_reduce(1e8)
        assert ar == pytest.approx(2 * ag, rel=0.2)

    def test_single_rank_group_free(self, model):
        assert model.all_reduce(1e9, group=[2]) == 0.0

    def test_intra_node_group_faster(self, model):
        intra = model.all_gather(1e7, group=[0, 1, 2, 3])
        inter = model.all_gather(1e7, group=[0, 1, 4, 5])
        assert intra < inter


class TestValidation:
    def test_efficiency_bounds(self):
        topo = ClusterTopology(num_nodes=1, devices_per_node=2)
        with pytest.raises(ValueError):
            CollectiveCostModel(topo, efficiency=0.0)
        with pytest.raises(ValueError):
            CollectiveCostModel(topo, efficiency=1.5)

    def test_duplicate_group_rejected(self, model):
        with pytest.raises(ValueError):
            model.all_gather(1e6, group=[0, 0])

    def test_unknown_device_rejected(self, model):
        with pytest.raises(ValueError):
            model.all_gather(1e6, group=[0, 99])

    def test_empty_group_rejected(self, model):
        with pytest.raises(ValueError):
            model.all_gather(1e6, group=[])
