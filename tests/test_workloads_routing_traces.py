"""Tests for routing traces and the synthetic drifting source."""

import numpy as np
import pytest

from repro.workloads.routing_traces import (
    RoutingTrace,
    RoutingTraceConfig,
    balanced_routing,
    routing_from_assignments,
)
from repro.workloads.scenarios import SyntheticTraceSource


def generate(iterations, **overrides):
    defaults = dict(num_devices=8, num_experts=8, num_layers=2,
                    tokens_per_device=1024, top_k=2, seed=3)
    defaults.update(overrides)
    return SyntheticTraceSource(RoutingTraceConfig(**defaults),
                                iterations).materialize()


class TestTraceGeneration:
    def test_shape(self):
        trace = generate(5)
        assert trace.routing.shape == (5, 2, 8, 8)

    def test_token_conservation(self):
        """Every device routes exactly tokens * top_k assignments per layer."""
        trace = generate(3)
        per_device = trace.routing.sum(axis=3)
        assert np.all(per_device == 1024 * 2)

    def test_counts_non_negative(self):
        trace = generate(3)
        assert np.all(trace.routing >= 0)

    def test_determinism_with_seed(self):
        t1 = generate(4, seed=42)
        t2 = generate(4, seed=42)
        assert np.array_equal(t1.routing, t2.routing)

    def test_different_seeds_differ(self):
        t1 = generate(4, seed=1)
        t2 = generate(4, seed=2)
        assert not np.array_equal(t1.routing, t2.routing)

    def test_skew_controls_imbalance(self):
        skewed = generate(8, skew=0.2, seed=5)
        balanced = generate(8, skew=50.0, seed=5)
        assert skewed.mean_imbalance() > balanced.mean_imbalance()

    def test_imbalance_exceeds_one_for_skewed_traces(self):
        trace = generate(10, skew=0.3)
        assert trace.mean_imbalance() > 1.3

    def test_drift_changes_distribution_over_time(self):
        trace = generate(50, drift=0.5, churn_prob=0.0, seed=9)
        first = trace.expert_loads(0, 0) / trace.expert_loads(0, 0).sum()
        last = trace.expert_loads(49, 0) / trace.expert_loads(49, 0).sum()
        assert np.abs(first - last).sum() > 0.05

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RoutingTraceConfig(num_devices=0, num_experts=8)
        with pytest.raises(ValueError):
            RoutingTraceConfig(num_devices=4, num_experts=8, top_k=9)
        with pytest.raises(ValueError):
            RoutingTraceConfig(num_devices=4, num_experts=8, skew=-1.0)

    def test_generate_requires_positive_iterations(self):
        with pytest.raises(ValueError):
            generate(0)


class TestRoutingTrace:
    def test_accessors(self):
        trace = generate(4)
        assert trace.num_iterations == 4
        assert trace.num_layers == 2
        assert trace.num_devices == 8
        assert trace.num_experts == 8
        assert trace.iteration(1).shape == (2, 8, 8)
        assert trace.layer(1, 0).shape == (8, 8)

    def test_remap_devices_preserves_expert_totals(self):
        trace = generate(2)
        remapped = trace.remap_devices(16)
        assert remapped.num_devices == 16
        for it in range(2):
            for layer in range(2):
                assert np.array_equal(
                    remapped.routing[it, layer].sum(axis=0),
                    trace.routing[it, layer].sum(axis=0))

    def test_remap_devices_rejects_bad_count(self):
        trace = generate(1)
        with pytest.raises(ValueError):
            trace.remap_devices(0)

    def test_negative_counts_rejected(self):
        routing = -np.ones((1, 1, 2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            RoutingTrace(routing=routing, top_k=1, tokens_per_device=1)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            RoutingTrace(routing=np.zeros((2, 2, 2)), top_k=1, tokens_per_device=1)


class TestBalancedRouting:
    def test_perfectly_balanced(self):
        trace = balanced_routing(num_devices=4, num_experts=8,
                                 tokens_per_device=1024, top_k=2,
                                 num_layers=2, num_iterations=3)
        assert trace.mean_imbalance() == pytest.approx(1.0, abs=1e-6)

    def test_token_conservation_with_remainder(self):
        trace = balanced_routing(num_devices=2, num_experts=3,
                                 tokens_per_device=100, top_k=1)
        assert np.all(trace.routing.sum(axis=3) == 100)


class TestRoutingFromAssignments:
    def test_counts(self):
        assignments = [np.array([[0, 1], [1, 1]]), np.array([[2, 2], [0, 2]])]
        routing = routing_from_assignments(assignments, num_experts=3)
        assert routing.shape == (2, 3)
        assert routing[0].tolist() == [1, 3, 0]
        assert routing[1].tolist() == [1, 0, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            routing_from_assignments([np.array([5])], num_experts=3)

    def test_empty_assignment(self):
        routing = routing_from_assignments([np.array([], dtype=int)], num_experts=4)
        assert routing.sum() == 0
