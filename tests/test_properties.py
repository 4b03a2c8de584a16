"""Property-based tests (hypothesis) for the core invariants.

These tests exercise the planner's data structures with arbitrary (bounded)
inputs and check the invariants the paper's correctness relies on:

* replica allocations always use exactly ``N * C`` slots with >= 1 per expert;
* greedy relocation always produces capacity-respecting, complete layouts;
* lite routing conserves tokens and never routes to a non-hosting device;
* FSEP shard -> restore is lossless and reshard-reduce equals a plain sum;
* the layout tuner's plan always satisfies the cost-model constraints, and
  the tuner is a pure function of its routing: layer order, batching and
  earlier solves never change a layer's layout or candidate costs;
* the cost model's ``T_comm`` is exactly four of the token All-to-Alls the
  simulator charges for the same plan;
* the link-class All-to-All kernel equals its per-entry class-sum loop
  exactly, and the per-pair loop to rounding;
* lite routing priced in closed form, without its plans, equals pricing
  the plans exactly and fails as building them fails, and a uniform
  All-to-All priced from peer counts equals its dense matrix's price;
* a uniform All-to-All's price is affine in the byte scale, the identity
  calibration fits ``comm_bytes_scale`` on;
* more bandwidth never slows a simulated iteration down, and the overflow
  charge is monotone in the device capacity.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.base import PolicyDecision
from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel, token_all_to_all
from repro.core.fsep import FSEPShardedExperts
from repro.core.layout import ExpertLayout
from repro.core.layout_tuner import ExpertLayoutTuner, TunerConfig
from repro.core.lite_routing import LiteRouting, lite_route, lite_route_batch
from repro.core.relocation import relocate_experts
from repro.core.replica_allocation import (
    allocate_replicas_priority_queue,
    even_replicas,
)
from repro.core.routing_plan import RoutingPlan
from repro.scalar_reference import scalar_all_to_all, scalar_class_all_to_all
from repro.sim.iteration import DROP_POLICIES, IterationSimulator, OverflowModel
from repro.sim.systems import make_system
from repro.workloads.model_configs import get_model_config
from repro.workloads.scenarios import ScenarioContext, SyntheticTraceSource

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
        cost_model.check_constraints(
            result.layout, lite_route(routing, result.layout, topology),
            routing)

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

    #: The tuner configurations the registered systems build (``laer`` and
    #: ``oracle``, ``laer_pq_only``, ``laer_even_only``).
    REGISTERED_CONFIGS = (TunerConfig(), TunerConfig(use_even=False),
                          TunerConfig(use_priority_queue=False))

    @given(problem=allocation_problem(), layers=st.integers(1, 4),
           frames=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           config=st.sampled_from(REGISTERED_CONFIGS), data=st.data())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_tuner_is_a_pure_function_of_its_routing(
            self, problem, layers, frames, seed, config, data):
        """One tuner solves each frame's layers in a drawn order, in one
        batch; every layer equals a fresh tuner's one-layer solve."""
        num_devices, num_experts, capacity, _ = problem
        topology = topology_for(num_devices)
        cost_model = MoECostModel.from_model_config(
            get_model_config("mixtral-8x7b-e8k2"), topology)
        routings = np.random.default_rng(seed).integers(
            0, 500, size=(frames, layers, num_devices, num_experts))
        reused = ExpertLayoutTuner(topology, cost_model, capacity, config)
        for frame in routings:
            order = data.draw(st.permutations(range(layers)))
            for layer, result in zip(order, reused.solve_layers(frame[order])):
                fresh = ExpertLayoutTuner(topology, cost_model, capacity,
                                          config).solve(frame[layer])
                assert result.layout == fresh.layout
                assert result.candidate_costs == fresh.candidate_costs


class TestOneAllToAllPrice:
    @given(num_nodes=st.sampled_from([2, 3, 4]),
           devices_per_node=st.sampled_from([1, 2, 4]),
           layers=st.integers(min_value=1, max_value=3),
           density=st.floats(min_value=0.05, max_value=1.0),
           comm_bytes_scale=st.sampled_from([1.0, 1.1]),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_comm_time_is_four_simulated_token_all_to_alls(
            self, num_nodes, devices_per_node, layers, density,
            comm_bytes_scale, seed):
        """For random plans on clusters with intra- and inter-node links,
        calibrated or not, ``T_comm`` equals (``==``) four times the token
        All-to-All ``simulate_iteration`` charges, read off the kernel."""
        config = get_model_config("mixtral-8x7b-e8k2")
        topology = ClusterTopology(num_nodes=num_nodes,
                                   devices_per_node=devices_per_node)
        n, e = topology.num_devices, config.num_experts
        rng = np.random.default_rng(seed)
        plans = []
        for _ in range(layers):
            dense = rng.integers(0, 500, size=(n, e, n))
            dense[rng.uniform(size=dense.shape) > density] = 0
            plans.append(RoutingPlan.from_dense(dense))
        simulator = IterationSimulator(
            config=config, topology=topology, tokens_per_device=1024,
            comm_bytes_scale=comm_bytes_scale)
        kernel = CollectiveCostModel.all_to_all_batch
        charged = []

        def recording(collectives, *args, **kwargs):
            seconds = kernel(collectives, *args, **kwargs)
            charged.extend(seconds.tolist())
            return seconds

        # Every device hosts every expert, so any plan is a valid dispatch.
        layout = ExpertLayout(np.ones((n, e), dtype=np.int64), capacity=e)
        decisions = [PolicyDecision(layout, plan) for plan in plans]
        # The first iteration also prices FSEP's uniform prefetch
        # All-to-All, once: record the second.
        simulator.simulate_iteration(0, decisions)
        with mock.patch.object(CollectiveCostModel, "all_to_all_batch",
                               recording):
            simulated = simulator.simulate_iteration(1, decisions)
        assert len(charged) == layers
        cost_model = MoECostModel.from_model_config(
            config, topology, comm_bytes_scale=comm_bytes_scale)
        costs = cost_model.evaluate_batch(plans)
        assert [cost.comm_time for cost in costs] == \
            [4 * seconds for seconds in charged]
        assert cost_model.evaluate(plans[-1]).comm_time == 4 * charged[-1]
        assert [cost.max_tokens for cost in costs] == \
            [layer.max_tokens for layer in simulated.layers]


@st.composite
def collective_models(draw):
    """A collective model on a random topology (single devices included,
    inter-node latency below intra-node latency in about half the draws)."""
    num_nodes, devices_per_node = draw(st.one_of(
        st.just((1, 1)),
        st.tuples(st.integers(1, 6), st.integers(1, 8))))
    bandwidth = st.floats(min_value=1e8, max_value=1e12)
    latency = st.floats(min_value=0.0, max_value=1e-4)
    topology = ClusterTopology(
        num_nodes=num_nodes, devices_per_node=devices_per_node,
        intra_node_bandwidth=draw(bandwidth),
        inter_node_bandwidth=draw(bandwidth),
        intra_node_latency=draw(latency), inter_node_latency=draw(latency))
    return CollectiveCostModel(
        topology, efficiency=draw(st.floats(min_value=0.05, max_value=1.0)))


@st.composite
def class_exchanges(draw):
    """A random collective model and a random batch of exchanges on it, as
    compressed sender rows of whole byte counts."""
    model = draw(collective_models())
    topology = model.topology
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n = topology.num_devices
    exchanges = draw(st.integers(1, 3))
    # Up to 2n entries per sender (repeated pairs and local entries), idle
    # senders, and zero-byte entries; sparse draws leave devices that
    # receive on a link class they send nothing on.
    row_counts = rng.integers(0, 2 * n + 1, size=(exchanges, n))
    row_counts[rng.uniform(size=row_counts.shape) < draw(
        st.floats(min_value=0.0, max_value=0.9))] = 0
    size = int(row_counts.sum())
    receivers = rng.integers(0, n, size=size)
    traffic = rng.integers(0, 10 ** 7, size=size).astype(np.float64)
    traffic[rng.uniform(size=size) < draw(
        st.floats(min_value=0.0, max_value=0.9))] = 0.0
    return model, row_counts, receivers, traffic


class TestLinkClassKernel:
    @given(exchange=class_exchanges(), scale=st.sampled_from([1.0, 1.1]))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_batch_is_the_class_sum_loop(self, exchange, scale):
        """``all_to_all_batch`` equals (``==``) the per-entry class-sum
        reference on each exchange's summed matrix (whole bytes add up
        exactly in any order), and stays within rounding of the per-pair
        loop."""
        model, row_counts, receivers, traffic = exchange
        times = model.all_to_all_batch(row_counts, receivers, traffic,
                                       scale=scale)
        n = model.topology.num_devices
        senders = np.repeat(np.tile(np.arange(n), len(row_counts)),
                            row_counts.reshape(-1))
        exchange_of = np.repeat(np.arange(len(row_counts)),
                                row_counts.sum(axis=1))
        assert times.shape == (len(row_counts),)
        for index, seconds in enumerate(times.tolist()):
            matrix = np.zeros((n, n))
            mine = exchange_of == index
            np.add.at(matrix, (senders[mine], receivers[mine]), traffic[mine])
            assert seconds == scalar_class_all_to_all(model, matrix,
                                                      scale=scale)
            assert seconds == pytest.approx(
                scalar_all_to_all(model, matrix, scale=scale), rel=1e-12)


#: Bytes per token of the closed-form pricing cases: none, one, and two
#: models' hidden vectors in bf16.
BYTES_PER_TOKEN = (0, 1, 8192, 10240)


@st.composite
def lite_routing_cases(draw):
    """A random collective model and lite routing on it: 1-4 layouts with
    replica counts 0-3 (groups of mixed counts, nodes hosting no replica
    of an expert), a shared ``(N, E)`` or stacked routing with zero rows,
    and in a quarter of the draws one row past the ``2**53`` bound of the
    closed-form split (its group's counts all 3, one byte per token, so
    every device's bytes stay below ``2**53``)."""
    model = draw(collective_models())
    n = model.topology.num_devices
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    num_experts, count = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    past_bound = draw(st.integers(0, 3)) == 0
    layouts = []
    for _ in range(count):
        replicas = rng.integers(0, 4, size=(n, num_experts))
        replicas[rng.uniform(size=replicas.shape) < rng.uniform(0, 0.9)] = 0
        replicas[rng.integers(n, size=num_experts),
                 np.arange(num_experts)] = rng.integers(1, 4, num_experts)
        if past_bound:
            replicas[:, 0] = np.where(replicas[:, 0] > 0, 3, 0)
        layouts.append(ExpertLayout(replicas,
                                    capacity=int(replicas.sum(axis=1).max())))
    shape = (n, num_experts) if draw(st.booleans()) else (count, n,
                                                         num_experts)
    routing = rng.integers(0, 600, size=shape)
    routing[rng.uniform(size=shape) < draw(st.floats(0.0, 0.9))] = 0
    bytes_per_token = draw(st.sampled_from(BYTES_PER_TOKEN))
    if past_bound:
        routing[..., int(rng.integers(n)), 0] = 2 ** 53 // 3 + 1
        bytes_per_token = 1
    return model, routing, layouts, bytes_per_token


def raised(call):
    """The message of the ValueError ``call()`` raises."""
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestClosedFormLiteRoutingPrice:
    @given(case=lite_routing_cases(), scale=st.sampled_from([1.0, 1.13]))
    @settings(max_examples=60, deadline=None)
    def test_equals_pricing_the_plans(self, case, scale):
        """``token_all_to_all`` of unbuilt lite routing equals (``==``) the
        price and loads of its plans, and ``evaluate_batch`` equals it
        field by field."""
        model, routing, layouts, bytes_per_token = case
        topology = model.topology
        plans = lite_route_batch(routing, layouts, topology)
        unbuilt = LiteRouting(routing, layouts)
        for got, want in zip(
                token_all_to_all(model, unbuilt, bytes_per_token, scale),
                token_all_to_all(model, plans, bytes_per_token, scale)):
            assert np.array_equal(got, want)
        cost_model = MoECostModel(topology, bytes_per_token, 1e9, 1e14,
                                  comm_bytes_scale=scale)
        for got, want in zip(cost_model.evaluate_batch(unbuilt),
                             cost_model.evaluate_batch(plans)):
            for field in dataclasses.fields(got):
                assert np.array_equal(getattr(got, field.name),
                                      getattr(want, field.name)), field.name

    @given(case=lite_routing_cases())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_all_zero_routing_prices_float_loads(self, case):
        """With no token routed, plans (a batch of no entries) and unbuilt
        lite routing both price float64 loads of 0, as documented, and
        ``evaluate_batch`` reports float64 ``tokens_per_device``."""
        model, routing, layouts, bytes_per_token = case
        routing = np.zeros_like(routing)
        cost_model = MoECostModel(model.topology, bytes_per_token, 1e9, 1e14)
        for routed in (lite_route_batch(routing, layouts, model.topology),
                       LiteRouting(routing, layouts)):
            seconds, loads = token_all_to_all(model, routed, bytes_per_token,
                                              1.0)
            assert seconds.dtype == loads.dtype == np.float64
            assert loads.shape == (len(layouts), model.topology.num_devices)
            assert not loads.any()
            for cost in cost_model.evaluate_batch(routed):
                assert cost.tokens_per_device.dtype == np.float64
                assert cost.max_tokens == 0

    @given(case=lite_routing_cases(), data=st.data())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_invalid_input_fails_as_building_the_plans(self, case, data):
        """Negative counts, a missing expert (per layout, so the first
        failing layout names the error), a wrong shape or a wrong topology
        raise what ``lite_route_batch`` raises."""
        model, routing, layouts, _ = case
        topology = model.topology
        routing = np.broadcast_to(
            routing, (len(layouts),) + routing.shape[-2:]).copy()
        for index, layout in enumerate(layouts):
            fault = data.draw(st.sampled_from(["none", "negative",
                                               "missing"]))
            if fault == "negative":
                routing[index, -1, -1] = -1
            elif fault == "missing":
                replicas = layout.assignment.copy()
                replicas[:, -1] = 0
                layouts[index] = ExpertLayout(replicas, layout.capacity)
                routing[index, 0, -1] = 1
        calls = [(routing, layouts, topology),
                 (routing[:, :-1], layouts, topology),
                 (routing, layouts, ClusterTopology(
                     num_nodes=1, devices_per_node=topology.num_devices + 1)),
                 (routing, [], topology)]
        cost_model = MoECostModel(topology, 1, 1e9, 1e14)
        for args in calls:
            try:
                lite_route_batch(*args)
            except ValueError as error:
                message = str(error)
            else:
                continue
            assert raised(lambda: token_all_to_all(
                CollectiveCostModel(args[2]), LiteRouting(*args[:2]), 1,
                1.0)) == message
            if args[2] is topology:
                assert raised(lambda: cost_model.evaluate_batch(
                    LiteRouting(*args[:2]))) == message


class TestUniformAllToAllPeerCounts:
    @given(model=collective_models(),
           bytes_per_pair=st.one_of(st.integers(0, 10 ** 7),
                                    st.floats(0.0, 1e7)),
           scale=st.one_of(st.sampled_from([1.0, 1.13]),
                           st.floats(0.0, 4.0)),
           data=st.data())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_equals_the_dense_matrix_price(self, model, bytes_per_pair,
                                           scale, data):
        """Priced from each member's peer counts, a uniform exchange costs
        exactly (``==``) what its dense matrix costs: the whole cluster,
        or a subgroup in any order, at whole or fractional bytes."""
        n = model.topology.num_devices
        group = data.draw(st.one_of(
            st.none(), st.permutations(range(n)).flatmap(
                lambda order: st.integers(1, n).map(lambda k: order[:k]))))
        size = n if group is None else len(group)
        dense = np.full((size, size), float(bytes_per_pair))
        np.fill_diagonal(dense, 0.0)
        assert model.uniform_all_to_all(bytes_per_pair, group, scale=scale) \
            == model.all_to_all(dense, group, scale=scale)


class TestUniformExchangeIsAffineInScale:
    @given(model=collective_models(),
           bytes_per_pair=st.integers(min_value=0, max_value=10 ** 7),
           scale=st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_price_is_latency_plus_scale_times_bandwidth_part(
            self, model, bytes_per_pair, scale):
        """A uniform exchange's price at scale ``s`` is its scale-0 price
        (the latency, charged on unscaled bytes) plus ``s`` times its
        scale-1 price less that latency: every device drains the same
        bytes per link class and pays the same latency.  Calibration fits
        ``comm_bytes_scale`` on this identity.  A skewed exchange is only
        piecewise affine in ``s``, since the device paying the worst
        latency need not drain the most, so the fit uses uniform ones."""
        def price(s):
            return model.uniform_all_to_all(bytes_per_pair, scale=s)

        latency = price(0.0)
        assert price(scale) == pytest.approx(
            latency + scale * (price(1.0) - latency), rel=1e-12)


class TestCrossSystemProperties:
    """Invariants every simulated system must keep."""

    @given(system=st.sampled_from(["laer", "flexmoe", "fsdp_ep", "megatron"]),
           num_nodes=st.sampled_from([1, 2]),
           links=st.sampled_from(["intra", "inter", "both"]),
           scale=st.floats(min_value=1.0, max_value=16.0),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_more_bandwidth_never_slows_an_iteration(self, system, num_nodes,
                                                     links, scale, seed):
        """The same decisions, simulated on a cluster whose intra- and/or
        inter-node links are ``scale`` times faster, take no longer (FSEP,
        FSDP+EP and Megatron paradigms)."""
        config = get_model_config("mixtral-8x7b-e8k2")
        topology = ClusterTopology(num_nodes=num_nodes,
                                   devices_per_node=8 // num_nodes)
        faster = dataclasses.replace(
            topology,
            intra_node_bandwidth=topology.intra_node_bandwidth
            * (scale if links != "inter" else 1.0),
            inter_node_bandwidth=topology.inter_node_bandwidth
            * (scale if links != "intra" else 1.0))
        base = make_system(system, config, topology, 1024)
        fast = make_system(system, config, faster, 1024)
        trace = SyntheticTraceSource(ScenarioContext(
            num_devices=8, num_experts=config.num_experts, num_layers=2,
            tokens_per_device=1024, top_k=config.top_k, iterations=2,
            skew=0.4, churn_prob=0.02, seed=seed)).materialize()
        base.policy.decide_iteration(trace.iteration(0))
        decisions = base.policy.decide_iteration(trace.iteration(1))
        slow_result = base.simulator.simulate_iteration(1, decisions)
        fast_result = fast.simulator.simulate_iteration(1, decisions)
        assert fast_result.total_time <= slow_result.total_time

    @given(policy=st.sampled_from(DROP_POLICIES),
           penalty=st.floats(min_value=0.0, max_value=4.0),
           loads=st.lists(st.lists(st.integers(min_value=0, max_value=5_000),
                                   min_size=4, max_size=4),
                          min_size=1, max_size=3),
           capacity=st.integers(min_value=1, max_value=5_000),
           extra=st.integers(min_value=0, max_value=5_000),
           unit_time=st.floats(min_value=1e-9, max_value=1e-3))
    @settings(max_examples=60, deadline=None)
    def test_overflow_charge_is_monotone_in_capacity(self, policy, penalty,
                                                     loads, capacity, extra,
                                                     unit_time):
        """With more capacity, no drop policy charges more overflow tokens,
        overflow time or dropped tokens, nor computes fewer tokens.  (The
        total time is not monotone under ``truncate``, so it is not
        asserted.)"""
        model = OverflowModel(overflow_penalty=penalty, drop_policy=policy)
        tokens = np.asarray(loads, dtype=np.float64)
        small = model.charge(tokens, capacity, unit_time)
        large = model.charge(tokens, capacity + extra, unit_time)
        computed, overflow, overflow_time, dropped = small
        assert np.all(large[0] >= computed)
        assert np.all(large[1] <= overflow)
        assert np.all(large[2] <= overflow_time)
        assert np.all(large[3] <= dropped)
