"""Tests for the greedy expert relocation (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.relocation import relocate_experts
from repro.core.replica_allocation import (
    allocate_replicas_priority_queue,
    even_replicas,
)


class TestRelocation:
    def test_layout_is_valid(self, small_topology):
        loads = np.array([100.0, 80, 60, 40, 30, 20, 10, 5])
        replicas = even_replicas(8, 8, 2)
        layout = relocate_experts(replicas, loads, small_topology, capacity=2)
        layout.validate(require_full_capacity=True)
        assert np.array_equal(layout.replicas_per_expert(), replicas)

    def test_respects_capacity(self, small_topology):
        loads = np.linspace(100, 10, 8)
        replicas = allocate_replicas_priority_queue(loads, 8, 8, 2)
        layout = relocate_experts(replicas, loads, small_topology, capacity=2)
        assert np.all(layout.assignment.sum(axis=1) <= 2)

    def test_balances_device_loads(self, small_topology):
        """Greedy placement should distribute per-replica load fairly evenly."""
        rng = np.random.default_rng(1)
        loads = rng.gamma(0.5, 100.0, size=8)
        replicas = allocate_replicas_priority_queue(loads, 8, 8, 2)
        layout = relocate_experts(replicas, loads, small_topology, capacity=2)
        per_replica = loads / replicas
        device_loads = layout.assignment @ per_replica
        assert device_loads.max() <= 2.0 * device_loads.mean() + 1e-9

    def test_replicas_spread_across_nodes(self, small_topology):
        """An expert with one replica per node should not stack on one node."""
        loads = np.array([1000.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        replicas = np.array([2, 1, 1, 1, 1, 1, 1, 1])
        # pad replicas to fill capacity 2 per device: total slots 16, used 9.
        layout = relocate_experts(replicas, loads, small_topology, capacity=2)
        hot_devices = np.nonzero(layout.assignment[:, 0])[0]
        nodes = {small_topology.node(d) for d in hot_devices}
        assert len(nodes) == 2

    def test_highest_load_placed_first_on_least_loaded_device(self, small_topology):
        loads = np.array([100.0, 1.0])
        replicas = np.array([1, 1])
        layout = relocate_experts(replicas, loads, small_topology, capacity=1)
        # Both experts placed somewhere, on different devices.
        assert layout.replicas_per_expert().tolist() == [1, 1]
        hosts = np.nonzero(layout.assignment[:, :2].T)[1]
        assert len(set(hosts.tolist())) == 2

    def test_full_cluster_capacity(self, small_topology):
        loads = np.arange(1, 17, dtype=float)
        replicas = np.ones(16, dtype=np.int64)
        layout = relocate_experts(replicas, loads, small_topology, capacity=2)
        layout.validate(require_full_capacity=True)

    def test_too_many_replicas_rejected(self, small_topology):
        replicas = np.full(8, 3, dtype=np.int64)  # 24 > 16 slots
        with pytest.raises(ValueError):
            relocate_experts(replicas, np.ones(8), small_topology, capacity=2)

    def test_zero_replica_rejected(self, small_topology):
        replicas = np.array([0, 2, 2, 2, 2, 2, 2, 2])
        with pytest.raises(ValueError):
            relocate_experts(replicas, np.ones(8), small_topology, capacity=2)

    def test_non_finite_loads_rejected(self, small_topology):
        loads = np.array([1.0] * 7 + [np.nan])
        with pytest.raises(ValueError, match="must be finite"):
            relocate_experts(even_replicas(8, 8, 2), loads, small_topology,
                             capacity=2)

    def test_mismatched_shapes_rejected(self, small_topology):
        with pytest.raises(ValueError):
            relocate_experts(np.ones(8, dtype=np.int64), np.ones(4),
                             small_topology, capacity=2)

    def test_deterministic(self, small_topology):
        loads = np.array([50.0, 40, 30, 20, 10, 5, 2, 1])
        replicas = even_replicas(8, 8, 2)
        a = relocate_experts(replicas, loads, small_topology, capacity=2)
        b = relocate_experts(replicas, loads, small_topology, capacity=2)
        assert a == b

    def test_single_node_topology(self, single_node_topology):
        loads = np.array([10.0, 5.0, 2.0, 1.0])
        replicas = even_replicas(4, 4, 2)
        layout = relocate_experts(replicas, loads, single_node_topology, capacity=2)
        layout.validate(require_full_capacity=True)
