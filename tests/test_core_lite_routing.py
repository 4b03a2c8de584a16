"""Tests for the lite routing token dispatcher (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.layout import ExpertLayout, static_ep_layout
from repro.core.lite_routing import lite_route
from repro.scalar_reference import scalar_split_evenly

from helpers import split_row


def split(total, weights):
    """One row split by ``_split_rows``, which must equal the scalar
    reference's ``scalar_split_evenly``."""
    result = split_row(total, weights)
    assert result.tolist() == scalar_split_evenly(total, weights).tolist()
    return result


class TestSplitEvenly:
    def test_exact_division(self):
        assert split(12, np.array([1, 1, 1])).tolist() == [4, 4, 4]

    def test_remainder_goes_to_largest_fraction(self):
        result = split(10, np.array([1, 1, 1]))
        assert result.sum() == 10
        assert sorted(result.tolist()) == [3, 3, 4]

    def test_weighted_split(self):
        assert split(9, np.array([2, 1])).tolist() == [6, 3]

    def test_zero_total(self):
        assert split(0, np.array([1, 2])).tolist() == [0, 0]

    def test_zero_weights_rejected(self, small_topology):
        """Tokens for an expert without a replica (all-zero weights) raise."""
        layout = ExpertLayout(np.zeros((8, 1), dtype=np.int64), capacity=1)
        routing = np.zeros((8, 1), dtype=np.int64)
        routing[0, 0] = 5
        with pytest.raises(ValueError, match="no replica"):
            lite_route(routing, layout, small_topology)

    def test_negative_total_rejected(self, small_topology):
        routing = np.zeros((8, 8), dtype=np.int64)
        routing[0, 0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            lite_route(routing, static_ep_layout(8, 8, 2), small_topology)


class TestLiteRouting:
    def test_conservation(self, small_topology):
        rng = np.random.default_rng(0)
        routing = rng.integers(0, 100, size=(8, 8)).astype(np.int64)
        layout = static_ep_layout(8, 8, 2)
        plan = lite_route(routing, layout, small_topology)
        assert np.array_equal(plan.row_sums(), routing)

    def test_tokens_only_on_hosting_devices(self, small_topology):
        rng = np.random.default_rng(1)
        routing = rng.integers(0, 100, size=(8, 8)).astype(np.int64)
        layout = static_ep_layout(8, 8, 2)
        plan = lite_route(routing, layout, small_topology)
        received = plan.to_dense().sum(axis=0)  # (E, N)
        hosted = layout.assignment.T > 0
        assert np.all(received[~hosted] == 0)

    def test_prefers_intra_node_replicas(self, small_topology):
        """With replicas on both nodes, a sender only uses its own node's."""
        # Expert 0 has replicas on device 0 (node 0) and device 4 (node 1).
        assignment = np.zeros((8, 4), dtype=np.int64)
        assignment[0, 0] = 1
        assignment[4, 0] = 1
        for expert in range(1, 4):
            assignment[expert, expert] = 1
        layout = ExpertLayout(assignment, capacity=2)
        routing = np.zeros((8, 4), dtype=np.int64)
        routing[1, 0] = 100   # sender on node 0
        routing[5, 0] = 100   # sender on node 1
        plan = lite_route(routing, layout, small_topology).to_dense()
        assert plan[1, 0, 0] == 100 and plan[1, 0, 4] == 0
        assert plan[5, 0, 4] == 100 and plan[5, 0, 0] == 0

    def test_falls_back_to_global_replicas(self, small_topology):
        """Without an intra-node replica tokens split across global replicas."""
        assignment = np.zeros((8, 2), dtype=np.int64)
        assignment[4, 0] = 1
        assignment[5, 0] = 1
        assignment[0, 1] = 1
        layout = ExpertLayout(assignment, capacity=1)
        routing = np.zeros((8, 2), dtype=np.int64)
        routing[1, 0] = 10  # sender on node 0, replicas only on node 1
        plan = lite_route(routing, layout, small_topology).to_dense()
        assert plan[1, 0, 4] == 5 and plan[1, 0, 5] == 5

    def test_splits_evenly_among_intra_node_replicas(self, small_topology):
        assignment = np.zeros((8, 2), dtype=np.int64)
        assignment[0, 0] = 1
        assignment[1, 0] = 1
        assignment[2, 0] = 1
        assignment[3, 1] = 1
        layout = ExpertLayout(assignment, capacity=1)
        routing = np.zeros((8, 2), dtype=np.int64)
        routing[0, 0] = 90
        plan = lite_route(routing, layout, small_topology).to_dense()
        assert plan[0, 0, 0] == 30 and plan[0, 0, 1] == 30 and plan[0, 0, 2] == 30

    def test_missing_replica_raises(self, small_topology):
        layout = ExpertLayout(np.zeros((8, 2), dtype=np.int64), capacity=1)
        routing = np.ones((8, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            lite_route(routing, layout, small_topology)

    def test_missing_replica_names_first_node_then_lowest_expert(
            self, small_topology):
        from repro.core.lite_routing import lite_route_batch
        assignment = np.zeros((8, 4), dtype=np.int64)
        assignment[:, 0] = 1              # experts 1-3 have no replica
        layout = ExpertLayout(assignment, capacity=1)
        routing = np.zeros((8, 4), dtype=np.int64)
        routing[5, 1] = 7                 # node 1 needs expert 1
        routing[2, 3] = 7                 # node 0 needs expert 3
        routing[3, 2] = 7                 # ... and expert 2
        for route in (lambda: lite_route(routing, layout, small_topology),
                      lambda: lite_route_batch(routing, [layout, layout],
                                               small_topology)):
            with pytest.raises(ValueError,
                               match="^expert 2 has no replica in the layout$"):
                route()

    def test_shape_validation(self, small_topology):
        layout = static_ep_layout(8, 8, 2)
        with pytest.raises(ValueError):
            lite_route(np.zeros((4, 8), dtype=np.int64), layout, small_topology)

    def test_negative_counts_rejected(self, small_topology):
        layout = static_ep_layout(8, 8, 2)
        routing = np.zeros((8, 8), dtype=np.int64)
        routing[0, 0] = -1
        with pytest.raises(ValueError):
            lite_route(routing, layout, small_topology)


class TestLiteRouteBatch:
    def layouts(self, n=8, num_experts=8, count=4, seed=0):
        from repro.core.relocation import relocate_experts
        from repro.core.replica_allocation import (
            even_replicas,
            perturb_replicas,
        )
        from repro.cluster.topology import ClusterTopology
        topology = ClusterTopology(num_nodes=2, devices_per_node=n // 2)
        rng = np.random.default_rng(seed)
        schemes = [even_replicas(n, num_experts, 2)]
        while len(schemes) < count:
            schemes.append(perturb_replicas(schemes[0], rng, 2))
        loads = rng.integers(1, 100, size=num_experts)
        return topology, [relocate_experts(s, loads, topology, 2)
                          for s in schemes]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_identical_to_scalar_loop(self, seed):
        from repro.core.lite_routing import lite_route_batch
        topology, layouts = self.layouts(seed=seed)
        rng = np.random.default_rng(seed + 100)
        routing = rng.integers(0, 4096, size=(8, 8)).astype(np.int64)
        batched = lite_route_batch(routing, layouts, topology)
        for index, layout in enumerate(layouts):
            expected = lite_route(routing, layout, topology)
            assert np.array_equal(batched[index].to_dense(),
                                  expected.to_dense()), \
                f"candidate {index} diverged"

    def test_single_layout_matches(self):
        from repro.core.lite_routing import lite_route_batch
        topology, layouts = self.layouts(count=1)
        routing = np.full((8, 8), 13, dtype=np.int64)
        batched = lite_route_batch(routing, layouts[:1], topology)
        assert len(batched) == 1
        assert batched[0].to_dense().shape == (8, 8, 8)
        assert np.array_equal(
            batched[0].to_dense(),
            lite_route(routing, layouts[0], topology).to_dense())

    def test_conservation_across_the_batch(self):
        from repro.core.lite_routing import lite_route_batch
        topology, layouts = self.layouts(count=6, seed=5)
        rng = np.random.default_rng(9)
        routing = rng.integers(0, 512, size=(8, 8)).astype(np.int64)
        batched = lite_route_batch(routing, layouts, topology)
        for plan in batched:
            assert np.array_equal(plan.row_sums(), routing)

    def test_missing_replica_raises(self):
        from repro.core.lite_routing import lite_route_batch
        from repro.cluster.topology import ClusterTopology
        topology = ClusterTopology(num_nodes=1, devices_per_node=2)
        layout = ExpertLayout(np.zeros((2, 1), dtype=np.int64), capacity=1)
        routing = np.ones((2, 1), dtype=np.int64)
        with pytest.raises(ValueError):
            lite_route_batch(routing, [layout], topology)

    def test_empty_layout_list_raises(self):
        from repro.core.lite_routing import lite_route_batch
        from repro.cluster.topology import ClusterTopology
        topology = ClusterTopology(num_nodes=1, devices_per_node=2)
        with pytest.raises(ValueError):
            lite_route_batch(np.ones((2, 1), dtype=np.int64), [], topology)
