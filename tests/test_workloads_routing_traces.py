"""Tests for routing traces and the synthetic drifting source."""

import numpy as np
import pytest

from repro.workloads.routing_traces import (
    RoutingTrace,
    balanced_routing,
    routing_from_assignments,
)
from repro.workloads.scenarios import ScenarioContext, SyntheticTraceSource


def generate(iterations, **overrides):
    defaults = dict(num_devices=8, num_experts=8, num_layers=2,
                    tokens_per_device=1024, top_k=2, skew=0.5,
                    churn_prob=0.02, seed=3)
    defaults.update(overrides)
    return SyntheticTraceSource(
        ScenarioContext(iterations=iterations, **defaults)).materialize()


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

    def test_remap_devices_reports_tokens(self):
        """``tokens_per_device`` counts tokens (``top_k`` slots each), not
        the peak per-device slot count, and is at least 1."""
        # 8 x 1,024 top-2 tokens over 16 devices: 512 tokens each, plus at
        # most one remainder slot per expert (8 slots, 4 tokens).
        remapped = generate(2).remap_devices(16)
        assert 512 <= remapped.tokens_per_device <= 516
        empty = RoutingTrace(routing=np.zeros((1, 1, 2, 4), dtype=np.int64),
                             top_k=2, tokens_per_device=1)
        assert empty.remap_devices(3).tokens_per_device == 1

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
        # One row of slots per device ...
        routing = routing_from_assignments(
            np.reshape(assignments, (2, 4)), num_experts=3)
        assert routing.shape == (2, 3)
        assert routing.dtype == np.int64
        assert routing[0].tolist() == [1, 3, 0]
        assert routing[1].tolist() == [1, 0, 3]
        # ... or the same four top-2 tokens split across two devices.
        tokens = np.concatenate(assignments)
        assert np.array_equal(
            routing_from_assignments(tokens, num_experts=3, num_devices=2),
            routing)

    @pytest.mark.parametrize("bad", [5, 3, -1])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            routing_from_assignments(np.array([[0, bad]]), num_experts=3)

    def test_empty_assignment(self):
        routing = routing_from_assignments(np.zeros((1, 0), dtype=int),
                                           num_experts=4)
        assert routing.shape == (1, 4)
        assert routing.sum() == 0
        routing = routing_from_assignments(np.zeros((0, 2), dtype=int),
                                           num_experts=4, num_devices=3)
        assert routing.shape == (3, 4)
        assert routing.sum() == 0

    @pytest.mark.parametrize("tokens,devices", [
        (8, 4), (7, 4), (5, 4), (3, 4), (1, 3), (9, 1)])
    def test_contiguous_shards_match_scalar_loop(self, tokens, devices):
        """Device ``d`` counts tokens ``[d * s, (d + 1) * s)``, ``s =
        ceil(T / N)``: the last devices hold fewer tokens, or none."""
        experts = np.random.default_rng(tokens * 10 + devices).integers(
            0, 5, size=(tokens, 2))
        shard = -(-tokens // devices)
        expected = np.zeros((devices, 5), dtype=np.int64)
        for token, choices in enumerate(experts):
            for expert in choices:
                expected[token // shard, expert] += 1
        assert np.array_equal(
            routing_from_assignments(experts, 5, devices), expected)

    def test_leading_axes_count_each_frame(self):
        """``(..., T, K)`` assignments count every leading index in one call,
        equal to counting each ``(T, K)`` frame on its own."""
        experts = np.random.default_rng(0).integers(0, 6, size=(3, 2, 10, 2))
        routing = routing_from_assignments(experts, num_experts=6,
                                           num_devices=4)
        assert routing.shape == (3, 2, 4, 6)
        for it in range(3):
            for layer in range(2):
                assert np.array_equal(
                    routing[it, layer],
                    routing_from_assignments(experts[it, layer], 6, 4))

    @pytest.mark.parametrize("assignments,devices", [
        (np.array([0, 1]), None),          # no slot axis
        (np.zeros((2, 1), dtype=int), 0),  # no device
    ])
    def test_bad_shape_rejected(self, assignments, devices):
        with pytest.raises(ValueError):
            routing_from_assignments(assignments, 3, devices)
