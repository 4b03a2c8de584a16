"""Property-based tests (hypothesis) for the core invariants.

These tests exercise the planner's data structures with arbitrary (bounded)
inputs and check the invariants the paper's correctness relies on:

* replica allocations always use exactly ``N * C`` slots with >= 1 per expert;
* greedy relocation always produces capacity-respecting, complete layouts;
* lite routing conserves tokens and never routes to a non-hosting device;
* FSEP shard -> restore is lossless and reshard-reduce equals a plain sum;
* the layout tuner's plan always satisfies the cost-model constraints.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel
from repro.core.fsep import FSEPShardedExperts
from repro.core.layout import ExpertLayout
from repro.core.layout_tuner import ExpertLayoutTuner
from repro.core.lite_routing import lite_route
from repro.core.relocation import relocate_experts
from repro.core.replica_allocation import (
    allocate_replicas_priority_queue,
    even_replicas,
)
from repro.workloads.model_configs import get_model_config

from helpers import split_row

MAX_EXAMPLES = 30


def topology_for(num_devices: int) -> ClusterTopology:
    if num_devices % 2 == 0 and num_devices > 2:
        return ClusterTopology(num_nodes=2, devices_per_node=num_devices // 2)
    return ClusterTopology(num_nodes=1, devices_per_node=num_devices)


@st.composite
def allocation_problem(draw):
    num_devices = draw(st.sampled_from([2, 4, 6, 8]))
    num_experts = draw(st.sampled_from([2, 4, 8, 16]))
    capacity = draw(st.integers(min_value=1, max_value=4))
    # Ensure the cluster can host one replica per expert.
    if num_devices * capacity < num_experts:
        capacity = int(np.ceil(num_experts / num_devices))
    loads = draw(st.lists(st.integers(min_value=0, max_value=10_000),
                          min_size=num_experts, max_size=num_experts))
    return num_devices, num_experts, capacity, np.asarray(loads, dtype=np.float64)


@st.composite
def routing_problem(draw):
    num_devices, num_experts, capacity, loads = draw(allocation_problem())
    routing = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=500),
                 min_size=num_experts, max_size=num_experts),
        min_size=num_devices, max_size=num_devices))
    return num_devices, num_experts, capacity, np.asarray(routing, dtype=np.int64)


class TestSplitEvenlyProperties:
    @given(total=st.integers(min_value=0, max_value=10_000),
           weights=st.lists(st.integers(min_value=0, max_value=9),
                            min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_conserves_and_respects_zero_weights(self, total, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.sum() == 0:
            weights[0] = 1.0
        split = split_row(total, weights)
        assert split.sum() == total
        assert np.all(split >= 0)
        assert np.all(split[weights == 0] == 0)


class TestReplicaAllocationProperties:
    @given(problem=allocation_problem())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_priority_queue_allocation_valid(self, problem):
        num_devices, num_experts, capacity, loads = problem
        replicas = allocate_replicas_priority_queue(
            loads, num_devices, num_experts, capacity)
        assert replicas.sum() == num_devices * capacity
        assert np.all(replicas >= 1)

    @given(problem=allocation_problem())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_even_allocation_valid(self, problem):
        num_devices, num_experts, capacity, _ = problem
        replicas = even_replicas(num_devices, num_experts, capacity)
        assert replicas.sum() == num_devices * capacity
        assert np.all(replicas >= 1)
        assert replicas.max() - replicas.min() <= 1


class TestRelocationProperties:
    @given(problem=allocation_problem())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_layout_valid(self, problem):
        num_devices, num_experts, capacity, loads = problem
        topology = topology_for(num_devices)
        replicas = allocate_replicas_priority_queue(
            loads, num_devices, num_experts, capacity)
        layout = relocate_experts(replicas, loads, topology, capacity)
        layout.validate()
        assert np.all(layout.assignment.sum(axis=1) <= capacity)
        assert np.array_equal(layout.replicas_per_expert(), replicas)


class TestLiteRoutingProperties:
    @given(problem=routing_problem())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_plan_conserves_and_places_correctly(self, problem):
        num_devices, num_experts, capacity, routing = problem
        topology = topology_for(num_devices)
        loads = routing.sum(axis=0).astype(np.float64)
        replicas = allocate_replicas_priority_queue(
            loads, num_devices, num_experts, capacity)
        layout = relocate_experts(replicas, loads, topology, capacity)
        plan = lite_route(routing, layout, topology)
        assert np.array_equal(plan.row_sums(), routing)
        hosted = layout.assignment.T > 0
        assert np.all(plan.to_dense().sum(axis=0)[~hosted] == 0)


class TestFSEPProperties:
    @given(num_devices=st.integers(min_value=1, max_value=8),
           num_experts=st.integers(min_value=1, max_value=6),
           expert_size=st.integers(min_value=1, max_value=64),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_shard_restore_roundtrip(self, num_devices, num_experts,
                                     expert_size, seed):
        rng = np.random.default_rng(seed)
        experts = [rng.normal(size=expert_size) for _ in range(num_experts)]
        sharded = FSEPShardedExperts(experts, num_devices=num_devices)
        for idx, original in enumerate(experts):
            assert np.allclose(sharded.restore_expert(idx), original)

    @given(num_devices=st.integers(min_value=2, max_value=6),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_reshard_reduce_equals_sum(self, num_devices, seed):
        rng = np.random.default_rng(seed)
        experts = [rng.normal(size=30) for _ in range(3)]
        sharded = FSEPShardedExperts(experts, num_devices=num_devices)
        contributions = {}
        expected = np.zeros(30)
        for device in range(num_devices):
            if rng.random() < 0.6:
                grad = rng.normal(size=30)
                contributions[device] = {1: grad}
                expected += grad
        result = sharded.reshard(contributions)
        assert np.allclose(sharded.reduce_full_gradient(result, 1), expected)


class TestTunerProperties:
    @given(problem=routing_problem())
    @settings(max_examples=15, deadline=None)
    def test_tuned_plan_satisfies_constraints(self, problem):
        num_devices, num_experts, capacity, routing = problem
        topology = topology_for(num_devices)
        cost_model = MoECostModel.from_model_config(
            get_model_config("mixtral-8x7b-e8k2"), topology)
        tuner = ExpertLayoutTuner(topology, cost_model, capacity)
        result = tuner.solve(routing)
        cost_model.check_constraints(result.layout, result.routing_plan, routing)

    @given(problem=routing_problem())
    @settings(max_examples=15, deadline=None)
    def test_tuned_max_load_not_worse_than_single_device_total(self, problem):
        num_devices, num_experts, capacity, routing = problem
        topology = topology_for(num_devices)
        cost_model = MoECostModel.from_model_config(
            get_model_config("mixtral-8x7b-e8k2"), topology)
        tuner = ExpertLayoutTuner(topology, cost_model, capacity)
        result = tuner.solve(routing)
        assert result.cost.max_tokens <= routing.sum()
