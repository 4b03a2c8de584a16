"""Scalar-vs-vectorized equivalence tests for the simulation kernels.

The vectorized kernels (the batched All-to-All kernel, batched routing
draws, compact lite-routing plans, relocation over node classes, closed-form
replica allocation, the one-pass iteration simulator, matrix trace
transforms) must reproduce the scalar implementations they replaced: the
per-pair collective loops to float tolerance, the per-entry class-sum
All-to-All loop and the per-layer simulator loop exactly, integer token splits, replica
counts and replica placements exactly, and seeded trace generation
deterministically.
The scalar references live in :mod:`repro.scalar_reference` (verbatim ports
of the pre-vectorization loops, shared with ``benchmarks/bench_floors.py``).
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

import repro.baselines.prophet as prophet_mod
import repro.core.lite_routing as lite_routing_mod
import repro.baselines.smartmoe as smartmoe_mod
from repro.baselines.base import PolicyDecision
from repro.baselines.prophet import ProphetPolicy
from repro.baselines.smartmoe import SmartMoEPolicy
from repro.calib.profile import CalibrationProfile
from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel
from repro.core.layout import ExpertLayout, static_ep_layout
from repro.core.layout_tuner import ExpertLayoutTuner, TunerConfig
from repro.core.lite_routing import (
    _split_rows,
    lite_route,
    lite_route_batch,
)
from repro.core.planner import LoadBalancingPlanner
from repro.core.relocation import relocate_experts
from repro.core.replica_allocation import (
    allocate_replicas_priority_queue,
    even_replicas,
)
from repro.core.routing_plan import RoutingPlan
from repro.scalar_reference import (
    scalar_all_to_all,
    scalar_class_all_to_all,
    scalar_allocate_replicas,
    scalar_lite_route,
    scalar_relocate_experts,
    scalar_simulate_iteration,
    scalar_split_evenly,
)
from repro.sim.iteration import IterationSimulator, LayerResult, OverflowModel
from repro.sim.systems import available_systems, make_system
from repro.workloads.model_configs import get_model_config
from repro.workloads.routing_traces import (
    RoutingTrace,
    RoutingTraceConfig,
    draw_routing_frame,
)
from repro.workloads.scenarios import (
    ScenarioContext,
    default_runnable_scenarios,
    make_scenario,
)

from helpers import (
    PerturbingTuner,
    perturb_replicas,
    scalar_reference_solve,
    split_row,
)

RTOL = 1e-9


def random_replicated_layout(rng, num_devices, num_experts, capacity):
    """A random layout hosting every expert, some replicated."""
    assignment = np.zeros((num_devices, num_experts), dtype=np.int64)
    for expert in range(num_experts):
        hosts = rng.choice(num_devices, size=rng.integers(1, 4), replace=False)
        assignment[hosts, expert] = 1
    # Trim devices that exceed capacity.
    for dev in range(num_devices):
        over = assignment[dev].sum() - capacity
        while over > 0:
            hosted = np.nonzero(assignment[dev])[0]
            # Drop a replica only when the expert stays hosted elsewhere.
            for expert in hosted:
                if assignment[:, expert].sum() > 1:
                    assignment[dev, expert] = 0
                    over -= 1
                    break
            else:
                break
    return ExpertLayout(assignment, capacity=max(capacity, num_experts))


# ----------------------------------------------------------------------
# Topology arrays
# ----------------------------------------------------------------------
class TestTopologyArrays:
    @pytest.fixture
    def topo(self):
        return ClusterTopology(num_nodes=4, devices_per_node=4)

    def test_device_nodes_are_cached_and_read_only(self, topo):
        first = topo.device_nodes()
        assert topo.device_nodes() is first
        with pytest.raises(ValueError):
            first[0] = 1

    def test_device_nodes_matches_node(self, topo):
        nodes = topo.device_nodes()
        assert [topo.node(d) for d in range(topo.num_devices)] == nodes.tolist()


# ----------------------------------------------------------------------
# Collectives
# ----------------------------------------------------------------------
class TestAllToAllEquivalence:
    @pytest.fixture
    def model(self):
        return CollectiveCostModel(ClusterTopology(num_nodes=4,
                                                   devices_per_node=4))

    def test_random_traffic_full_cluster(self, model):
        rng = np.random.default_rng(0)
        n = model.topology.num_devices
        for trial in range(10):
            traffic = rng.uniform(0.0, 1e9, size=(n, n))
            traffic[rng.uniform(size=(n, n)) < 0.3] = 0.0  # sparse rows too
            members = list(range(n))
            assert model.all_to_all(traffic) == pytest.approx(
                scalar_all_to_all(model, traffic, members), rel=RTOL)

    def test_random_traffic_random_groups(self, model):
        rng = np.random.default_rng(1)
        n = model.topology.num_devices
        for trial in range(20):
            size = int(rng.integers(1, n + 1))
            members = rng.choice(n, size=size, replace=False).tolist()
            traffic = rng.uniform(0.0, 1e8, size=(size, size))
            traffic[rng.uniform(size=(size, size)) < 0.4] = 0.0
            assert model.all_to_all(traffic, members) == pytest.approx(
                scalar_all_to_all(model, traffic, members), rel=RTOL, abs=0.0)

    def test_idle_sender_pays_no_latency(self, model):
        n = model.topology.num_devices
        traffic = np.zeros((n, n))
        traffic[0, n - 1] = 1e6  # single cross-node sender
        vec = model.all_to_all(traffic)
        assert vec == pytest.approx(scalar_all_to_all(
            model, traffic, list(range(n))), rel=RTOL)
        # The fixed inter-node latency of the only active sender is charged.
        assert vec > 1e6 / (model.topology.inter_node_bandwidth * model.efficiency)

    def test_latency_follows_the_classes_a_device_sends_on(self):
        """Device 2 receives a few inter-node bytes and sends many
        intra-node ones: it pays the intra-node latency, not the
        inter-node one, and sets the exchange's time."""
        topology = ClusterTopology(num_nodes=2, devices_per_node=2,
                                   intra_node_latency=1e-6,
                                   inter_node_latency=1e-3)
        model = CollectiveCostModel(topology)
        traffic = np.zeros((4, 4))
        traffic[0, 2] = 1e3
        traffic[2, 3] = 1e9
        expected = (1e9 / (topology.intra_node_bandwidth * model.efficiency)
                    + 1e-6)
        assert model.all_to_all(traffic) == \
            scalar_class_all_to_all(model, traffic)
        assert model.all_to_all(traffic) == pytest.approx(expected, rel=1e-12)

    def test_all_to_all_is_the_class_sum_loop_exactly(self, model):
        """Fractional bytes too: the kernel adds a device's entries in
        the loop's order."""
        rng = np.random.default_rng(3)
        n = model.topology.num_devices
        for trial in range(20):
            size = int(rng.integers(1, n + 1))
            members = rng.choice(n, size=size, replace=False).tolist()
            traffic = rng.uniform(0.0, 1e8, size=(size, size))
            traffic[rng.uniform(size=(size, size)) < 0.5] = 0.0
            for group in (members, None if size == n else members):
                assert model.all_to_all(traffic, group) == \
                    scalar_class_all_to_all(model, traffic, group)
        full = rng.uniform(0.0, 1e8, size=(n, n))
        assert model.all_to_all(full) == scalar_class_all_to_all(model, full)

    def test_batch_sums_each_class_before_scaling(self, model):
        """A device's entries on one link class add up exactly before the
        scale multiplies them: three exchanges of whole byte counts, split
        over entries, cost what their summed matrices cost in the class-sum
        loop."""
        rng = np.random.default_rng(4)
        n, scale = model.topology.num_devices, 1.1
        matrices = rng.integers(0, 10 ** 6, size=(3, n, n))
        matrices[rng.uniform(size=matrices.shape) < 0.6] = 0
        row_counts, receivers, traffic = [], [], []
        for matrix in matrices:
            for row in matrix:
                # Each pair split at random into three entries.
                cols = np.nonzero(row)[0]
                first = rng.integers(0, row[cols] + 1)
                second = rng.integers(0, row[cols] - first + 1)
                row_counts.append(3 * cols.size)
                receivers.append(np.repeat(cols, 3))
                traffic.append(np.stack(
                    [first, second, row[cols] - first - second], axis=1))
        batch = model.all_to_all_batch(
            np.array(row_counts).reshape(3, n), np.concatenate(receivers),
            np.concatenate(traffic).reshape(-1), scale=scale)
        for matrix, time in zip(matrices, batch):
            assert time == scalar_class_all_to_all(model, matrix, scale=scale)

    def test_ring_collectives_on_random_groups(self, model):
        rng = np.random.default_rng(2)
        n = model.topology.num_devices
        for trial in range(10):
            size = int(rng.integers(2, n + 1))
            members = rng.choice(n, size=size, replace=False).tolist()
            nodes = {model.topology.node(m) for m in members}
            slow = (model.topology.inter_node_bandwidth if len(nodes) > 1
                    else model.topology.intra_node_bandwidth)
            lat = (model.topology.inter_node_latency if len(nodes) > 1
                   else model.topology.intra_node_latency)
            p = len(members)
            expected = ((p - 1) * lat
                        + (p - 1) * 1e6 / (slow * model.efficiency))
            assert model.all_gather(1e6, members) == pytest.approx(
                expected, rel=RTOL)


# ----------------------------------------------------------------------
# Lite routing
# ----------------------------------------------------------------------
class TestLiteRoutingEquivalence:
    @pytest.fixture
    def topology(self):
        return ClusterTopology(num_nodes=2, devices_per_node=4)

    def test_batched_split_matches_scalar_rows(self):
        rng = np.random.default_rng(3)
        totals = rng.integers(0, 1000, size=64)
        weights = rng.integers(0, 4, size=(64, 8)).astype(np.float64)
        weights[weights.sum(axis=1) == 0, 0] = 1.0  # every row splittable
        # One segment per row over its positive weights, scattered back.
        rows, cols = np.nonzero(weights)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(rows,
                                                             minlength=64))))
        batched = np.zeros((64, 8), dtype=np.int64)
        batched[rows, cols] = _split_rows(totals, offsets, rows,
                                          weights[rows, cols])
        for row in range(64):
            assert batched[row].tolist() == scalar_split_evenly(
                int(totals[row]), weights[row]).tolist()
            assert batched[row].sum() == totals[row]

    def test_split_evenly_single_row_unchanged(self):
        assert split_row(10, np.array([1, 1, 1])).tolist() == \
            scalar_split_evenly(10, np.array([1, 1, 1])).tolist()

    def test_lite_route_exactly_matches_scalar(self, topology):
        rng = np.random.default_rng(4)
        for trial in range(5):
            routing = rng.integers(0, 200, size=(8, 8)).astype(np.int64)
            routing[rng.uniform(size=(8, 8)) < 0.3] = 0
            layout = random_replicated_layout(rng, 8, 8, capacity=8)
            assert np.array_equal(
                lite_route(routing, layout, topology).to_dense(),
                scalar_lite_route(routing, layout, topology).to_dense())

    def test_lite_route_static_layout_matches_scalar(self, topology):
        rng = np.random.default_rng(5)
        routing = rng.integers(0, 100, size=(8, 8)).astype(np.int64)
        layout = static_ep_layout(8, 8, 2)
        assert np.array_equal(
            lite_route(routing, layout, topology).to_dense(),
            scalar_lite_route(routing, layout, topology).to_dense())

    def test_missing_replica_still_raises(self, topology):
        layout = ExpertLayout(np.zeros((8, 2), dtype=np.int64), capacity=1)
        with pytest.raises(ValueError, match="no replica"):
            lite_route(np.ones((8, 2), dtype=np.int64), layout, topology)


# ----------------------------------------------------------------------
# Compact routing plans and relocation over node classes on every registered
# scenario
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def first_frame_problem(scenario, num_nodes, model="mixtral-8x7b-e8k2"):
    """The first frame of ``scenario`` on ``num_nodes`` x 8 devices.

    Returns the topology, the routing of each of its two layers, and per
    layer the pq, even and two perturbed replica schemes with the loads
    they are placed under.
    """
    config = get_model_config(model)
    topology = ClusterTopology(num_nodes=num_nodes, devices_per_node=8)
    ctx = ScenarioContext(num_devices=topology.num_devices,
                          num_experts=config.num_experts, num_layers=2,
                          tokens_per_device=4096, top_k=config.top_k,
                          iterations=1, seed=5)
    frame = next(iter(make_scenario(scenario, ctx).iter_iterations()))
    rng = np.random.default_rng(num_nodes)
    n, e, c = topology.num_devices, config.num_experts, config.expert_capacity
    layers = []
    for routing in frame:
        loads = routing.sum(axis=0)
        pq = allocate_replicas_priority_queue(loads, n, e, c)
        even = even_replicas(n, e, c)
        schemes = (pq, even, perturb_replicas(pq, rng),
                   perturb_replicas(even, rng))
        layers.append((routing, loads, schemes))
    return topology, c, layers


def per_layout_problem(scenario, num_nodes, model="mixtral-8x7b-e8k2"):
    """The layouts of :func:`first_frame_problem`, each with its layer's
    routing: ``(topology, routings, layouts)`` alternating layers 0 and 1."""
    topology, capacity, layers = first_frame_problem(scenario, num_nodes,
                                                     model)
    routings, layouts = [], []
    for scheme in range(4):
        for routing, loads, schemes in layers:
            routings.append(routing)
            layouts.append(relocate_experts(schemes[scheme], loads, topology,
                                            capacity))
    return topology, routings, layouts


FIRST_FRAMES = [(scenario, nodes)
                for scenario in sorted(default_runnable_scenarios())
                for nodes in (2, 4, 32)]


class TestCompactPlannerDifferential:
    @pytest.mark.parametrize("scenario,nodes", FIRST_FRAMES)
    def test_relocation_matches_scalar_scan(self, scenario, nodes):
        topology, capacity, layers = first_frame_problem(scenario, nodes)
        for _, loads, schemes in layers:
            for replicas in schemes:
                assert relocate_experts(replicas, loads, topology, capacity) \
                    == scalar_relocate_experts(replicas, loads, topology,
                                               capacity)

    @pytest.mark.parametrize("scenario,nodes", FIRST_FRAMES)
    def test_compact_plans_match_scalar_route(self, scenario, nodes):
        topology, capacity, layers = first_frame_problem(scenario, nodes)
        for routing, loads, schemes in layers:
            for replicas in schemes:
                layout = relocate_experts(replicas, loads, topology, capacity)
                plan = lite_route(routing, layout, topology)
                dense = scalar_lite_route(routing, layout, topology).to_dense()
                assert np.array_equal(plan.to_dense(), dense)

    @pytest.mark.parametrize("scenario,nodes", FIRST_FRAMES)
    def test_batch_matches_per_candidate_route(self, scenario, nodes):
        topology, capacity, layers = first_frame_problem(scenario, nodes)
        for routing, loads, schemes in layers:
            layouts = [relocate_experts(replicas, loads, topology, capacity)
                       for replicas in schemes]
            batched = lite_route_batch(routing, layouts, topology)
            assert len(batched) == len(layouts)
            for plan, layout in zip(batched, layouts):
                single = lite_route(routing, layout, topology)
                for name in ("offsets", "dest", "tokens"):
                    assert np.array_equal(getattr(plan, name),
                                          getattr(single, name))

    @pytest.mark.parametrize("scenario,nodes", FIRST_FRAMES)
    def test_per_layout_batch_matches_route_loop(self, scenario, nodes):
        """One routing per layout, as an iteration's dispatch passes them."""
        topology, routings, layouts = per_layout_problem(scenario, nodes)
        batched = lite_route_batch(np.stack(routings), layouts, topology)
        assert len(batched) == len(layouts)
        for plan, routing, layout in zip(batched, routings, layouts):
            single = lite_route(routing, layout, topology)
            for name in ("offsets", "dest", "tokens"):
                assert np.array_equal(getattr(plan, name),
                                      getattr(single, name))

    @pytest.mark.parametrize("scenario,nodes", FIRST_FRAMES)
    def test_batch_raises_the_first_error_of_the_loop(self, scenario, nodes):
        topology, routings, layouts = per_layout_problem(scenario, nodes)
        needed = np.nonzero(routings[1].sum(axis=0))[0]
        low, high = int(needed[0]), int(needed[-1])
        assert low < high
        # Layout 1 loses its highest needed expert, layout 3 its lowest, and
        # routing 2 goes negative.
        broken = list(layouts)
        for index, expert in ((1, high), (3, low)):
            assignment = layouts[index].assignment.copy()
            assignment[:, expert] = 0
            broken[index] = ExpertLayout(assignment, layouts[index].capacity)
        negative = [routing.copy() for routing in routings]
        negative[2][0, 0] = -1

        def loop(routings, layouts):
            return [lite_route(routing, layout, topology)
                    for routing, layout in zip(routings, layouts)]

        def batch(routings, layouts):
            return lite_route_batch(np.stack(routings), layouts, topology)

        for case, expected in (
                ((routings, broken),
                 f"expert {high} has no replica in the layout"),
                ((negative, broken),
                 f"expert {high} has no replica in the layout"),
                ((negative, layouts[:3] + broken[3:]),
                 "token counts must be non-negative")):
            for route in (loop, batch):
                with pytest.raises(ValueError) as raised:
                    route(*case)
                assert str(raised.value) == expected, route.__name__


# ----------------------------------------------------------------------
# Closed-form Algorithm 4 and relocation over node classes on edge inputs
# ----------------------------------------------------------------------
def edge_loads(rng, num_experts):
    """Load vectors that scenario frames rarely or never produce."""
    return {
        "counts": rng.integers(0, 4096, size=num_experts).astype(np.float64),
        "zeros": rng.integers(0, 4096, size=num_experts)
        * (rng.random(num_experts) < 0.5),
        "equal": np.full(num_experts, 512.0),
        "all-zero": np.zeros(num_experts),
        "tiny": rng.random(num_experts) * 1e-300,
        "subnormal": rng.integers(0, 4, size=num_experts) * 5e-324,
        "small": rng.integers(0, 4, size=num_experts).astype(np.float64),
    }


ALLOCATION_PROBLEMS = [(model, num_devices)
                       for model in ("mixtral-8x7b-e8k2", "mixtral-8x7b-e16k4")
                       for num_devices in (1, 2, 3, 4, 5, 8, 12, 16, 64, 256,
                                           1024)]


class TestClosedFormAllocationDifferential:
    @pytest.mark.parametrize("model,num_devices", ALLOCATION_PROBLEMS)
    def test_matches_priority_queue(self, model, num_devices):
        config = get_model_config(model)
        e, c = config.num_experts, config.expert_capacity
        rng = np.random.default_rng(num_devices)
        for _ in range(4):
            for kind, loads in edge_loads(rng, e).items():
                if num_devices * c < e:
                    for allocate in (allocate_replicas_priority_queue,
                                     scalar_allocate_replicas):
                        with pytest.raises(ValueError, match="at least the"):
                            allocate(loads, num_devices, e, c)
                    continue
                assert np.array_equal(
                    allocate_replicas_priority_queue(loads, num_devices, e, c),
                    scalar_allocate_replicas(loads, num_devices, e, c)), kind

    @pytest.mark.parametrize("scenario,nodes", FIRST_FRAMES)
    def test_first_frames_match_priority_queue(self, scenario, nodes):
        topology, capacity, layers = first_frame_problem(scenario, nodes)
        for _, loads, schemes in layers:
            assert np.array_equal(schemes[0], scalar_allocate_replicas(
                loads, topology.num_devices, loads.size, capacity))


def edge_schemes(rng, loads, num_devices, capacity):
    """Full and under-full replica schemes for ``loads``."""
    e = loads.size
    schemes = {"one-each": np.ones(e, dtype=np.int64)}
    slots = num_devices * capacity
    schemes["pq"] = allocate_replicas_priority_queue(loads, num_devices, e,
                                                     capacity)
    schemes["perturbed"] = perturb_replicas(schemes["pq"], rng)
    schemes["even"] = even_replicas(num_devices, e, capacity)
    extra = rng.multinomial(int(rng.integers(0, slots - e + 1)),
                            np.full(e, 1.0 / e))
    schemes["under-full"] = 1 + extra
    return schemes


EDGE_RELOCATIONS = [(nodes, per_node, model, capacity)
                    for nodes, per_node in ((1, 8), (3, 2), (2, 4), (8, 1))
                    for model in ("mixtral-8x7b-e8k2", "mixtral-8x7b-e16k4")
                    for capacity in (1, 2, 4)
                    if nodes * per_node * capacity
                    >= get_model_config(model).num_experts]


class TestRoundRelocationDifferential:
    """Inputs that reach the partial round and nodes that fill up partway
    through an expert: under-full schemes, capacity 1 to 4, equal and zero
    loads, one node, and nodes of one or two devices."""

    @pytest.mark.parametrize("nodes,per_node,model,capacity",
                             EDGE_RELOCATIONS)
    def test_edge_inputs_match_scalar_scan(self, nodes, per_node, model,
                                           capacity):
        topology = ClusterTopology(num_nodes=nodes, devices_per_node=per_node)
        e = get_model_config(model).num_experts
        rng = np.random.default_rng(nodes * 100 + per_node * 10 + capacity)
        for _ in range(3):
            for kind, loads in edge_loads(rng, e).items():
                for scheme, replicas in edge_schemes(
                        rng, loads, topology.num_devices, capacity).items():
                    assert relocate_experts(
                        replicas, loads, topology, capacity) == \
                        scalar_relocate_experts(
                            replicas, loads, topology, capacity), (kind, scheme)

    @pytest.mark.parametrize("nodes,per_node", ((1, 8), (3, 2), (4, 8)))
    @pytest.mark.parametrize("policy_class,module,options,fills_slots", (
        (SmartMoEPolicy, smartmoe_mod, {"relocation_interval": 1}, False),
        (ProphetPolicy, prophet_mod, {"adjustment_interval": 1}, True)),
        ids=("smartmoe", "prophet"))
    def test_baseline_schemes_match_scalar_scan(self, monkeypatch, nodes,
                                                per_node, policy_class, module,
                                                options, fills_slots):
        """SmartMoE's one replica per expert (schemes below N * C) and
        Prophet's full-capacity schemes, as the policies place them over a
        bursty run."""
        topology = ClusterTopology(num_nodes=nodes, devices_per_node=per_node)
        config = get_model_config("mixtral-8x7b-e8k2")
        calls = []

        def recorded(replicas, loads, topology, capacity):
            calls.append((np.array(replicas), np.array(loads), capacity))
            return relocate_experts(replicas, loads, topology, capacity)

        monkeypatch.setattr(module, "relocate_experts", recorded)
        policy = policy_class(topology, config.num_experts,
                              config.expert_capacity, 1.0, **options)
        ctx = ScenarioContext(num_devices=topology.num_devices,
                              num_experts=config.num_experts, num_layers=2,
                              tokens_per_device=4096, top_k=config.top_k,
                              iterations=4, seed=nodes)
        for frame in make_scenario("bursty-churn", ctx).iter_iterations():
            policy.decide_iteration(frame)

        slots = topology.num_devices * config.expert_capacity
        placed = slots if fills_slots else config.num_experts
        assert config.num_experts < slots
        assert calls and all(replicas.sum() == placed
                             for replicas, _, _ in calls)
        for replicas, loads, capacity in calls:
            assert relocate_experts(replicas, loads, topology, capacity) == \
                scalar_relocate_experts(replicas, loads, topology, capacity)


# ----------------------------------------------------------------------
# Relocation over classes of identical nodes
# ----------------------------------------------------------------------
def undivided_schemes(rng, num_nodes, num_devices, num_experts, capacity):
    """Replica counts that ``num_nodes`` does not divide, so every expert
    ends in a partial round: one scheme as full as such counts allow, one
    leaving slots free."""
    slots = num_devices * capacity
    remainders = rng.integers(1, num_nodes, size=num_experts)
    if remainders.sum() > slots:
        remainders[:] = 1
    rounds = (slots - int(remainders.sum())) // num_nodes
    share = np.full(num_experts, 1.0 / num_experts)
    return {"full": remainders + num_nodes * rng.multinomial(rounds, share),
            "under-full": remainders + num_nodes * rng.multinomial(
                int(rng.integers(0, rounds + 1)), share)}


# Capacities 1 to 4 on small topologies (nodes of one device, a single
# node); 128 x 8 at the models' capacity, since the scan is slow there.
CLASS_PROBLEMS = [(nodes, per_node, capacity)
                  for nodes, per_node in ((3, 2), (5, 1), (1, 8), (7, 3),
                                          (16, 8))
                  for capacity in (1, 2, 3, 4)] + [(128, 8, 2)]


class TestNodeClassRelocationDifferential:
    """Where the classes of identical nodes split: partial rounds, classes
    tied on their top load, capacity 1 to 4, nodes that fill up, and 3 x 2
    up to 128 x 8 devices."""

    @pytest.mark.parametrize("nodes,per_node,capacity", CLASS_PROBLEMS)
    def test_partial_rounds_match_scalar_scan(self, nodes, per_node,
                                              capacity):
        topology = ClusterTopology(num_nodes=nodes, devices_per_node=per_node)
        n = topology.num_devices
        e = min(16, n * capacity)
        rng = np.random.default_rng(nodes * 100 + per_node * 10 + capacity)
        if nodes > 1:
            schemes = undivided_schemes(rng, nodes, n, e, capacity)
            assert all(np.all(replicas % nodes) for replicas in
                       schemes.values())
        else:
            schemes = edge_schemes(rng, np.ones(e), n, capacity)
        for scheme, replicas in schemes.items():
            # Equal and all-zero loads tie classes on their top load, so
            # the device index decides; equal per-replica loads also tie
            # the experts.
            for kind, loads in (
                    ("counts", rng.integers(0, 4096, size=e) * 1.0),
                    ("equal", np.full(e, 512.0)),
                    ("all-zero", np.zeros(e)),
                    ("equal per replica", 64.0 * replicas)):
                assert relocate_experts(replicas, loads, topology,
                                        capacity) == \
                    scalar_relocate_experts(replicas, loads, topology,
                                            capacity), (scheme, kind)

    @pytest.mark.parametrize("scenario", sorted(default_runnable_scenarios()))
    def test_first_frames_at_1024_devices_match_scalar_scan(self, scenario):
        """The pq and even schemes of a scenario's first frame at 128 x 8
        devices (``TestCompactPlannerDifferential`` covers 32 x 8)."""
        topology, capacity, layers = first_frame_problem(scenario, 128)
        _, loads, schemes = layers[0]
        for replicas in schemes[:2]:
            assert relocate_experts(replicas, loads, topology, capacity) == \
                scalar_relocate_experts(replicas, loads, topology, capacity)


# ----------------------------------------------------------------------
# The closed-form lite-routing split, the layout tuner's layer batch and
# the lazily solving planner
# ----------------------------------------------------------------------
def assert_routes_like_scalar(routings, layouts, topology):
    """One batch over (routing, layout) pairs equals a ``lite_route`` call
    per pair entry for entry, and ``scalar_lite_route`` token for token."""
    batched = lite_route_batch(np.stack(routings), layouts, topology)
    assert len(batched) == len(layouts)
    for plan, routing, layout in zip(batched, routings, layouts):
        single = lite_route(routing, layout, topology)
        for name in ("offsets", "dest", "tokens"):
            assert np.array_equal(getattr(plan, name), getattr(single, name))
        assert np.array_equal(
            plan.to_dense(),
            scalar_lite_route(routing, layout, topology).to_dense())


def split_totals(monkeypatch):
    """Record the totals every ``_split_rows`` call is asked to split."""
    seen = []
    original = lite_routing_mod._split_rows

    def recorded(totals, *args):
        seen.extend(int(total) for total in totals)
        return original(totals, *args)

    monkeypatch.setattr(lite_routing_mod, "_split_rows", recorded)
    return seen


def fitted_layout(assignment):
    """A layout of ``assignment`` whose capacity fits its fullest device."""
    return ExpertLayout(assignment, capacity=int(assignment.sum(axis=1).max()))


def counted_layouts(rng, num_devices, num_experts, counts, layouts=4):
    """Layouts whose replicas carry counts drawn from ``counts``; each
    expert sits on 1 to N/2 devices, so some nodes host none of it."""
    built = []
    for _ in range(layouts):
        assignment = np.zeros((num_devices, num_experts), dtype=np.int64)
        for expert in range(num_experts):
            hosts = rng.choice(num_devices,
                               size=rng.integers(1, num_devices // 2 + 1),
                               replace=False)
            assignment[hosts, expert] = rng.choice(counts, size=hosts.size)
        built.append(fitted_layout(assignment))
    return built


def sparse_routings(rng, count, num_devices, num_experts):
    routings = rng.integers(0, 1000, size=(count, num_devices, num_experts))
    routings[rng.uniform(size=routings.shape) < 0.3] = 0
    return list(routings)


class TestClosedFormSplitDifferential:
    @pytest.fixture
    def topology(self):
        return ClusterTopology(num_nodes=3, devices_per_node=4)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_equal_count_groups_match_scalar(self, topology, monkeypatch,
                                             count):
        rng = np.random.default_rng(count)
        layouts = counted_layouts(rng, 12, 6, [count])
        seen = split_totals(monkeypatch)
        assert_routes_like_scalar(sparse_routings(rng, 4, 12, 6), layouts,
                                  topology)
        assert seen == []  # every group, intra-node or fallback, is equal

    def test_mixed_groups_match_scalar(self, topology, monkeypatch):
        rng = np.random.default_rng(11)
        layouts = counted_layouts(rng, 12, 6, [1, 2, 3, 4])
        seen = split_totals(monkeypatch)
        assert_routes_like_scalar(sparse_routings(rng, 4, 12, 6), layouts,
                                  topology)
        assert seen

    @pytest.mark.parametrize("counts", [(2, 2, 2), (1, 3, 2)],
                             ids=["equal", "mixed"])
    def test_fallback_groups_match_scalar(self, topology, monkeypatch,
                                          counts):
        """Node 0 hosts no replica of expert 0, so its senders split over
        every replica of it, on nodes 1 and 2."""
        assignment = np.zeros((12, 2), dtype=np.int64)
        assignment[[4, 7, 9], 0] = counts
        assignment[[0, 5, 10], 1] = 1
        layout = fitted_layout(assignment)
        routing = np.zeros((12, 2), dtype=np.int64)
        routing[:4, 0] = [0, 1, 7, 1000]
        routing[4:, :] = 5
        seen = split_totals(monkeypatch)
        assert_routes_like_scalar([routing], [layout], topology)
        assert bool(seen) == (len(set(counts)) > 1)
        plan = lite_route(routing, layout, topology).to_dense()
        assert plan[3, 0].tolist() == scalar_split_evenly(
            1000, assignment[:, 0]).tolist()

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_zero_totals_and_the_exactness_guard(self, monkeypatch, count):
        """Totals of 0, and totals ``T`` just below and at the bound
        ``T * count < 2**53`` of the closed form."""
        topology = ClusterTopology(num_nodes=2, devices_per_node=4)
        below, at = 2 ** 53 // count - 1, 2 ** 53 // count
        assignment = np.zeros((8, 2), dtype=np.int64)
        assignment[[0, 1, 2, 5], 0] = count
        assignment[[4, 6], 1] = count
        layout = fitted_layout(assignment)
        routing = np.zeros((8, 2), dtype=np.int64)
        routing[0, 0], routing[1, 0] = below, at      # 3 intra-node targets
        routing[4, 1], routing[5, 1] = below, at      # 2 intra-node targets
        routing[3, 1] = below                         # fallback, 2 targets
        seen = split_totals(monkeypatch)
        assert_routes_like_scalar([routing], [layout], topology)
        assert seen == [at, at] * 2  # the batch, then the single call

    @pytest.mark.parametrize("scenario", ["drifting", "bursty-churn"])
    @pytest.mark.parametrize("nodes", [2, 4])
    def test_e16k4_matches_scalar(self, scenario, nodes):
        topology, routings, layouts = per_layout_problem(
            scenario, nodes, "mixtral-8x7b-e16k4")
        assert_routes_like_scalar(routings, layouts, topology)

    def test_batch_of_mixed_layouts_matches_per_layout_calls(self, topology):
        """Equal, mixed and fallback groups of several layouts in one batch,
        each layout with its own routing."""
        rng = np.random.default_rng(5)
        layouts = (counted_layouts(rng, 12, 6, [1], 2)
                   + counted_layouts(rng, 12, 6, [2, 4], 2)
                   + counted_layouts(rng, 12, 6, [1, 2, 3], 2))
        order = rng.permutation(len(layouts))
        assert_routes_like_scalar(sparse_routings(rng, len(layouts), 12, 6),
                                  [layouts[i] for i in order], topology)


def tuner_problem(nodes=2, layers=4, iterations=6):
    """A bursty-churn trace on ``nodes`` x 8 devices, its cost model and
    capacity: ``(topology, cost_model, capacity, frames)``."""
    config = get_model_config("mixtral-8x7b-e8k2")
    topology = ClusterTopology(num_nodes=nodes, devices_per_node=8)
    ctx = ScenarioContext(num_devices=topology.num_devices,
                          num_experts=config.num_experts, num_layers=layers,
                          tokens_per_device=4096, top_k=config.top_k,
                          iterations=iterations, seed=7)
    frames = list(make_scenario("bursty-churn", ctx).iter_iterations())
    return (topology, MoECostModel.from_model_config(config, topology),
            config.expert_capacity, frames)


#: The tuner configurations the registered systems build.
TUNER_CONFIGS = {"pq+even": TunerConfig(),
                 "pq-only": TunerConfig(use_even=False),
                 "even-only": TunerConfig(use_priority_queue=False)}


class TestLayerBatchedTunerDifferential:
    @pytest.mark.parametrize("name", sorted(TUNER_CONFIGS))
    def test_solve_layers_matches_per_layer_solves(self, name):
        """6 iterations x 4 layers: each batch equals solving its layers one
        by one (a candidate per lite_route and evaluate call)."""
        topology, cost_model, capacity, frames = tuner_problem()
        batched, looped = (ExpertLayoutTuner(topology, cost_model, capacity,
                                             TUNER_CONFIGS[name])
                           for _ in range(2))
        for frame in frames:
            results = batched.solve_layers(frame)
            assert len(results) == len(frame)
            for result, routing in zip(results, frame):
                layout, plan, cost, candidate_costs = scalar_reference_solve(
                    looped, routing)
                assert result.layout == layout
                assert result.candidate_costs == candidate_costs
                assert result.candidates_evaluated == len(candidate_costs)
                for field in dataclasses.fields(cost):
                    value, expected = (getattr(result.cost, field.name),
                                       getattr(cost, field.name))
                    assert np.array_equal(value, expected), field.name
                    assert type(value) is type(expected), field.name
                assert np.array_equal(
                    lite_route(routing, result.layout, topology).to_dense(),
                    plan.to_dense())

    def test_solve_is_the_one_layer_batch(self, small_topology,
                                          small_cost_model):
        routing = np.random.default_rng(2).integers(0, 500, size=(8, 8))
        one, batch = (PerturbingTuner(small_topology, small_cost_model, 2,
                                      candidates=5)
                      for _ in range(2))
        single = one.solve(routing)
        (batched,) = batch.solve_layers(routing[None])
        assert single.layout == batched.layout
        assert single.candidate_costs == batched.candidate_costs


def eager_plan(tuner, fallback, calls):
    """The layouts a planner that solves each observation at once returns
    for ``(layer, routing)`` calls, with their ``planned_from_history``
    flags, and the layouts it holds after the last call."""
    pending, returned = {}, []
    for layer, routing in calls:
        returned.append((pending.get(layer, fallback), layer in pending))
        pending[layer] = scalar_reference_solve(tuner, routing)[0]
    return returned, pending


#: Per iteration, the order in which layers are planned: ``(layer, index of
#: the frame's matrix it is planned on)``.
PLAN_ORDERS = {
    "in-order": lambda rng, layers: [(layer, layer)
                                     for layer in range(layers)],
    "out-of-order": lambda rng, layers: [(int(layer), int(layer)) for layer
                                         in rng.permutation(layers)],
    "repeated-layer": lambda rng, layers: [(0, 0), (0, 1), (1, 2), (0, 3),
                                           (1, 0), (1, 1)],
}


def lazy_and_eager(order, config):
    topology, cost_model, capacity, frames = tuner_problem()
    planner = LoadBalancingPlanner(topology, cost_model, 8, capacity, config)
    fallback = planner.current_layout(-1)  # a layer never observed
    rng = np.random.default_rng(3)
    calls = [(layer, frame[index]) for frame in frames
             for layer, index in PLAN_ORDERS[order](rng, len(frame))]
    returned = [planner.plan_layer(layer, routing)
                for layer, routing in calls]
    expected, pending = eager_plan(
        ExpertLayoutTuner(topology, cost_model, capacity, config), fallback,
        calls)
    return planner, returned, expected, pending


class TestLazyPlannerDifferential:
    @pytest.mark.parametrize("name", sorted(TUNER_CONFIGS))
    @pytest.mark.parametrize("order", sorted(PLAN_ORDERS))
    def test_plan_layer_matches_eager_solves(self, order, name):
        planner, returned, expected, _ = lazy_and_eager(
            order, TUNER_CONFIGS[name])
        assert len(returned) == len(expected)
        for (layout, planned), (want, want_planned) in zip(returned,
                                                           expected):
            assert layout == want
            assert planned == want_planned

    @pytest.mark.parametrize("name", sorted(TUNER_CONFIGS))
    def test_current_layout_after_the_last_observation(self, monkeypatch,
                                                       name):
        solved = []
        solve_layers = ExpertLayoutTuner.solve_layers

        def counted(self, routing_by_layer):
            solved.append(len(routing_by_layer))
            return solve_layers(self, routing_by_layer)

        monkeypatch.setattr(ExpertLayoutTuner, "solve_layers", counted)
        planner, _, _, pending = lazy_and_eager("in-order",
                                                TUNER_CONFIGS[name])
        # One batch of 4 layers before each of iterations 2-6; the eager
        # reference solves through scalar_reference_solve, not the tuner.
        assert solved == [4] * 5
        for layer in sorted(pending, reverse=True):
            assert planner.current_layout(layer) == pending[layer]
        assert solved == [4] * 6

    def test_tune_layout_solves_the_batch_first(self):
        """An explicit ``tune_layout`` between ``plan_layer`` calls solves
        the layers observed before it, and its own layer on its latest
        observation."""
        config = TUNER_CONFIGS["pq+even"]
        topology, cost_model, capacity, frames = tuner_problem()
        planner = LoadBalancingPlanner(topology, cost_model, 8, capacity,
                                       config)
        eager = ExpertLayoutTuner(topology, cost_model, capacity, config)
        for frame in frames[:3]:
            planner.plan_layer(0, frame[0])
            planner.plan_layer(1, frame[1])
            planner.observe(2, frame[2])
            tuned = planner.tune_layout(2)
            expected = [scalar_reference_solve(eager, routing)[0]
                        for routing in frame[:3]]
            assert [planner.current_layout(0), planner.current_layout(1),
                    tuned] == expected


# ----------------------------------------------------------------------
# The one-pass iteration simulator against the per-layer loop
# ----------------------------------------------------------------------
def assert_same_iteration(simulator, decisions):
    """``simulate_iteration`` equals the per-layer reference exactly, down
    to every field's type (results serialize to JSON)."""
    fast = simulator.simulate_iteration(3, decisions)
    exact = scalar_simulate_iteration(simulator, 3, decisions)
    assert (fast.iteration, fast.total_time, fast.breakdown) == \
        (exact.iteration, exact.total_time, exact.breakdown)
    assert len(fast.layers) == len(exact.layers) == len(decisions)
    for ours, reference in zip(fast.layers, exact.layers):
        for field in dataclasses.fields(LayerResult):
            value, expected = (getattr(ours, field.name),
                               getattr(reference, field.name))
            assert value == expected, field.name
            assert type(value) is type(expected), field.name
        assert ours.total_time == reference.total_time
    return fast


def first_frame(scenario, nodes):
    topology, _, layers = first_frame_problem(scenario, nodes)
    return topology, np.stack([routing for routing, _, _ in layers])


def system_decisions(name, topology, frame, **kwargs):
    system = make_system(name, get_model_config("mixtral-8x7b-e8k2"),
                         topology, 4096, **kwargs)
    return system.simulator, system.policy.decide_iteration(frame)


SIMULATED_FRAMES = [(scenario, nodes)
                    for scenario in ("drifting", "bursty-churn", "phase-shift")
                    for nodes in (2, 4, 32)]


class TestOnePassSimulatorDifferential:
    @pytest.mark.parametrize("scenario,nodes", SIMULATED_FRAMES)
    def test_every_system_matches_the_layer_loop(self, scenario, nodes):
        topology, frame = first_frame(scenario, nodes)
        for name in available_systems():
            assert_same_iteration(*system_decisions(name, topology, frame))

    @pytest.mark.parametrize("overflow", [
        OverflowModel(overflow_penalty=1.5, token_capacity=6000),
        OverflowModel(token_capacity=6000, drop_policy="truncate"),
        OverflowModel(overflow_penalty=3.0, token_capacity=6000,
                      drop_policy="recompute"),
        OverflowModel(overflow_penalty=0.5)],
        ids=["penalty", "truncate", "recompute", "memory-capacity"])
    def test_overflow_settings_match(self, overflow):
        topology, frame = first_frame("bursty-churn", 2)
        charged = False
        for name in available_systems():
            simulator, decisions = system_decisions(
                name, topology, frame, overflow=overflow)
            result = assert_same_iteration(simulator, decisions)
            charged |= any(layer.overflow_tokens > 0
                           for layer in result.layers)
        # A pinned capacity of 6000 routed tokens overflows bursty-churn's
        # hottest devices (8192 routed tokens per device on average).
        assert charged or overflow.token_capacity is None

    def test_activation_checkpointing_matches(self):
        topology, frame = first_frame("drifting", 2)
        for name in available_systems():
            assert_same_iteration(*system_decisions(
                name, topology, frame, activation_checkpointing=True))

    def test_calibrated_topology_matches(self):
        profile = CalibrationProfile(
            intra_node_bandwidth_scale=0.9, inter_node_bandwidth_scale=0.7,
            inter_node_latency_s=2e-5, comm_bytes_scale=1.1)
        topology, frame = first_frame("phase-shift", 4)
        for name in available_systems():
            simulator, decisions = system_decisions(
                name, topology, frame, calibration=profile)
            assert simulator.comm_bytes_scale == 1.1
            assert_same_iteration(simulator, decisions)

    @pytest.mark.parametrize("nodes", [4, 32])
    def test_dense_plans_keep_the_row_sum_order(self, nodes):
        """Every sender reaching every device: numpy's pairwise row sums
        (blocked, and split recursively past 128 columns) must round as
        the per-layer matrix form does."""
        topology = ClusterTopology(num_nodes=nodes, devices_per_node=8)
        n = topology.num_devices
        simulator = make_system("laer", get_model_config("mixtral-8x7b-e8k2"),
                                topology, 4096).simulator
        rng = np.random.default_rng(nodes)
        layout = static_ep_layout(n, 8, 2)
        decisions = [PolicyDecision(layout, RoutingPlan.from_dense(
            rng.integers(0, 50, size=(n, 8, n)))) for _ in range(2)]
        assert_same_iteration(simulator, decisions)

    @pytest.mark.parametrize("scale", [1.1, 0.73])
    def test_a_pairs_tokens_add_up_before_the_byte_scale(self, scale):
        """One pair per layer, fed by all eight experts: its bytes are
        ``((sum of tokens) * H * 2) * scale``, which rounds differently from
        scaling each expert's share first in about a quarter of layers."""
        topology = ClusterTopology(num_nodes=2, devices_per_node=8)
        n = topology.num_devices
        simulator = make_system(
            "fsdp_ep", get_model_config("mixtral-8x7b-e8k2"), topology, 4096,
            calibration=CalibrationProfile(comm_bytes_scale=scale)).simulator
        rng = np.random.default_rng(6)
        layout = static_ep_layout(n, 8, 2)
        decisions = []
        for _ in range(32):
            routing = np.zeros((n, 8), dtype=np.int64)
            routing[0] = rng.integers(1, 5000, size=8)
            decisions.append(PolicyDecision(layout, RoutingPlan.from_owners(
                routing, np.full((n, 8), n - 1))))
        assert_same_iteration(simulator, decisions)

    def test_empty_entries_open_no_link(self):
        """An entry without tokens (lite routing gives one to each replica
        a short row cannot reach) pays no latency: sender 0 pays for its
        one intra-node destination, not for its empty inter-node entries."""
        topology = ClusterTopology(num_nodes=2, devices_per_node=8)
        n = topology.num_devices
        simulator = make_system(
            "fsdp_ep", get_model_config("mixtral-8x7b-e8k2"), topology,
            4096).simulator
        routing = np.zeros((n, 8), dtype=np.int64)
        routing[0, 0] = 10_000
        owners = np.full((n, 8), n - 1)
        owners[0, 0] = 1
        assert_same_iteration(simulator, [PolicyDecision(
            static_ep_layout(n, 8, 2), RoutingPlan.from_owners(routing, owners))])

    def test_single_device_exchanges_nothing(self):
        topology = ClusterTopology(num_nodes=1, devices_per_node=1)
        simulator = IterationSimulator(
            config=get_model_config("mixtral-8x7b-e8k2"), topology=topology,
            tokens_per_device=4096)
        layout = ExpertLayout(np.ones((1, 8), dtype=np.int64), capacity=8)
        decisions = [PolicyDecision(layout, RoutingPlan.from_owners(
            np.full((1, 8), 1024 * (layer + 1)), np.zeros((1, 8))))
            for layer in range(2)]
        result = assert_same_iteration(simulator, decisions)
        assert result.breakdown["all_to_all"] == 0.0
        assert all(layer.all_to_all_time == 0.0 for layer in result.layers)

    def test_local_plan_exchanges_nothing(self):
        topology = ClusterTopology(num_nodes=2, devices_per_node=8)
        n = topology.num_devices
        simulator = make_system("laer", get_model_config("mixtral-8x7b-e8k2"),
                                topology, 4096).simulator
        owners = np.repeat(np.arange(n)[:, None], 8, axis=1)
        decisions = [PolicyDecision(static_ep_layout(n, 8, 2),
                                    RoutingPlan.from_owners(
                                        np.full((n, 8), 512), owners))]
        result = assert_same_iteration(simulator, decisions)
        # Balanced and local: no token exchange and no imbalance stall.
        assert result.layers[0].all_to_all_time == 0.0

    def test_plan_for_another_cluster_raises(self):
        topology, frame = first_frame("drifting", 2)
        simulator, decisions = system_decisions("fsdp_ep", topology, frame)
        other = ClusterTopology(num_nodes=1, devices_per_node=8)
        _, foreign = system_decisions(
            "fsdp_ep", other, np.ascontiguousarray(frame[:, :8]))
        for mixed in (foreign, [decisions[0], foreign[1]]):
            for simulate in (simulator.simulate_iteration,
                             lambda it, d: scalar_simulate_iteration(
                                 simulator, it, d)):
                with pytest.raises(ValueError):
                    simulate(0, mixed)


# ----------------------------------------------------------------------
# Trace kernels
# ----------------------------------------------------------------------
class TestTraceKernels:
    CONFIG = RoutingTraceConfig(num_devices=6, num_experts=8, num_layers=3,
                                tokens_per_device=512, top_k=2, seed=11)

    def test_draw_routing_frame_deterministic_and_conserving(self):
        probs = np.random.default_rng(0).dirichlet(
            [0.5] * self.CONFIG.num_experts, size=self.CONFIG.num_layers)
        a = draw_routing_frame(np.random.default_rng(42), probs, self.CONFIG)
        b = draw_routing_frame(np.random.default_rng(42), probs, self.CONFIG)
        assert np.array_equal(a, b)
        assert a.shape == (3, 6, 8)
        assert a.dtype == np.int64
        assert (a.sum(axis=2) == 512 * 2).all()

    def test_draw_without_noise_matches_per_row_multinomial(self):
        config = RoutingTraceConfig(num_devices=4, num_experts=8, num_layers=2,
                                    tokens_per_device=256, top_k=2,
                                    device_noise=0.0, seed=0)
        probs = np.random.default_rng(1).dirichlet([0.5] * 8, size=2)
        frame = draw_routing_frame(np.random.default_rng(9), probs, config)
        # Batched Generator.multinomial fills leading axes in C order, so the
        # noise-free frame equals per-(layer, device) sequential draws.
        rng = np.random.default_rng(9)
        for layer in range(2):
            for dev in range(4):
                assert np.array_equal(frame[layer, dev],
                                      rng.multinomial(512, probs[layer]))

    def test_mean_imbalance_matches_scalar_loop(self):
        rng = np.random.default_rng(12)
        routing = rng.integers(0, 64, size=(4, 3, 6, 8))
        trace = RoutingTrace(routing=routing, top_k=2, tokens_per_device=512)
        expected = np.mean([trace.imbalance(it, layer)
                            for it in range(4) for layer in range(3)])
        assert trace.mean_imbalance() == pytest.approx(expected, rel=RTOL)

    def test_mean_imbalance_zero_load_layer_counts_as_balanced(self):
        routing = np.zeros((2, 2, 4, 4), dtype=np.int64)
        routing[0, 0, 0, 0] = 8
        trace = RoutingTrace(routing=routing, top_k=1, tokens_per_device=8)
        expected = np.mean([trace.imbalance(it, layer)
                            for it in range(2) for layer in range(2)])
        assert trace.mean_imbalance() == pytest.approx(expected, rel=RTOL)

    def test_remap_devices_matches_scalar_loop(self):
        rng = np.random.default_rng(13)
        routing = rng.integers(0, 50, size=(3, 2, 6, 8))
        trace = RoutingTrace(routing=routing, top_k=2, tokens_per_device=512)
        for new_devices in (1, 4, 7, 16):
            remapped = trace.remap_devices(new_devices)
            iters, layers, _, experts = routing.shape
            expected = np.zeros((iters, layers, new_devices, experts),
                                dtype=np.int64)
            for it in range(iters):
                for layer in range(layers):
                    totals = routing[it, layer].sum(axis=0)
                    base, rem = totals // new_devices, totals % new_devices
                    expected[it, layer] = base[None, :]
                    for j in range(experts):
                        expected[it, layer, :int(rem[j]), j] += 1
            assert np.array_equal(remapped.routing, expected)
            assert remapped.tokens_per_device == int(
                expected[0, 0].sum(axis=1).max())


# ----------------------------------------------------------------------
# Seeded determinism of every registered scenario on the batched draw path
# ----------------------------------------------------------------------
class TestScenarioDeterminism:
    CTX = ScenarioContext(num_devices=4, num_experts=8, num_layers=2,
                          tokens_per_device=256, top_k=2, iterations=6,
                          seed=21)

    @pytest.mark.parametrize("name", sorted(default_runnable_scenarios()))
    def test_two_independent_builds_agree(self, name):
        first = list(make_scenario(name, self.CTX).iter_iterations())
        second = list(make_scenario(name, self.CTX).iter_iterations())
        assert len(first) == self.CTX.iterations
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", sorted(default_runnable_scenarios()))
    def test_seed_changes_the_draws(self, name):
        other = ScenarioContext(num_devices=4, num_experts=8, num_layers=2,
                                tokens_per_device=256, top_k=2, iterations=6,
                                seed=22)
        first = list(make_scenario(name, self.CTX).iter_iterations())
        second = list(make_scenario(name, other).iter_iterations())
        assert not all(np.array_equal(a, b) for a, b in zip(first, second))
