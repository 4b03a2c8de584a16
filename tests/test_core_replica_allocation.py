"""Tests for the replica allocation schemes (Algorithm 4)."""

import numpy as np
import pytest

from repro.core.replica_allocation import (
    allocate_replicas_priority_queue,
    even_replicas,
)

from helpers import perturb_replicas


class TestPriorityQueueAllocation:
    def test_total_slots_used(self):
        loads = np.array([100.0, 10.0, 10.0, 10.0])
        replicas = allocate_replicas_priority_queue(loads, num_devices=4,
                                                    num_experts=4, capacity=2)
        assert replicas.sum() == 8
        assert np.all(replicas >= 1)

    def test_hot_expert_gets_more_replicas(self):
        loads = np.array([1000.0, 10.0, 10.0, 10.0])
        replicas = allocate_replicas_priority_queue(loads, 4, 4, 2)
        assert replicas[0] == replicas.max()
        assert replicas[0] >= 4

    def test_uniform_loads_give_even_allocation(self):
        loads = np.full(8, 50.0)
        replicas = allocate_replicas_priority_queue(loads, 8, 8, 2)
        assert np.all(replicas == 2)

    def test_never_worse_than_even_on_skewed_loads(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            loads = rng.gamma(shape=0.5, scale=100.0, size=8)
            pq = allocate_replicas_priority_queue(loads, 8, 8, 2)
            even = even_replicas(8, 8, 2)
            assert (loads / pq).max() <= (loads / even).max() + 1e-9

    def test_zero_load_experts_keep_one_replica(self):
        loads = np.array([100.0, 0.0, 0.0, 0.0])
        replicas = allocate_replicas_priority_queue(loads, 4, 4, 2)
        assert np.all(replicas >= 1)
        assert replicas[0] == 5

    def test_capacity_too_small_rejected(self):
        with pytest.raises(ValueError):
            allocate_replicas_priority_queue(np.ones(10), num_devices=2,
                                             num_experts=10, capacity=1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            allocate_replicas_priority_queue(np.ones(3), 4, 4, 2)
        with pytest.raises(ValueError):
            allocate_replicas_priority_queue(-np.ones(4), 4, 4, 2)

    def test_non_finite_loads_rejected(self):
        loads = np.array([1.0] * 7 + [np.nan])
        with pytest.raises(ValueError, match="must be finite"):
            allocate_replicas_priority_queue(loads, 8, 8, 2)

    def test_deterministic(self):
        loads = np.array([5.0, 5.0, 3.0, 2.0])
        a = allocate_replicas_priority_queue(loads, 4, 4, 2)
        b = allocate_replicas_priority_queue(loads, 4, 4, 2)
        assert np.array_equal(a, b)


class TestEvenAllocation:
    def test_exact_division(self):
        assert even_replicas(8, 8, 2).tolist() == [2] * 8

    def test_remainder_distributed(self):
        replicas = even_replicas(3, 4, 3)  # 9 slots over 4 experts
        assert replicas.sum() == 9
        assert replicas.max() - replicas.min() <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            even_replicas(1, 8, 2)
        with pytest.raises(ValueError):
            even_replicas(0, 4, 2)


class TestPerturbation:
    """The seeded perturbed schemes other tests take as input (from
    ``tests/helpers.py``) are valid allocations."""

    def test_preserves_total_and_minimum(self):
        rng = np.random.default_rng(0)
        base = even_replicas(8, 8, 2)
        for _ in range(20):
            perturbed = perturb_replicas(base, rng)
            assert perturbed.sum() == base.sum()
            assert np.all(perturbed >= 1)

    def test_requires_valid_start(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            perturb_replicas(np.array([0, 2]), rng)

    def test_single_expert_noop(self):
        rng = np.random.default_rng(0)
        assert perturb_replicas(np.array([4]), rng).tolist() == [4]
