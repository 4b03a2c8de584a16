"""Scalar-vs-vectorized equivalence tests for the simulation kernels.

The vectorized kernels (matrix-form collectives, batched routing draws,
batched lite-routing splits, matrix trace transforms) must reproduce the
scalar implementations they replaced: collectives to float tolerance,
integer token splits exactly, and seeded trace generation deterministically.
The scalar references live in :mod:`repro.scalar_reference` (verbatim ports
of the pre-vectorization loops, shared with ``benchmarks/bench_floors.py``).
"""

import numpy as np
import pytest

from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import (
    LINK_TYPE_ORDER,
    ClusterTopology,
    group_by_node,
)
from repro.core.layout import ExpertLayout, static_ep_layout
from repro.core.lite_routing import (
    _split_evenly,
    _split_evenly_batched,
    global_even_route,
    lite_route,
    lite_route_single_rank,
)
from repro.scalar_reference import (
    scalar_all_to_all,
    scalar_lite_route,
    scalar_split_evenly,
)
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
# Topology matrices
# ----------------------------------------------------------------------
class TestTopologyMatrices:
    @pytest.fixture
    def topo(self):
        return ClusterTopology(num_nodes=4, devices_per_node=4)

    def test_matrices_match_pairwise_lookups(self, topo):
        n = topo.num_devices
        bw = topo.bandwidth_matrix()
        lat = topo.latency_matrix()
        kinds = topo.link_type_matrix()
        for i in range(n):
            for j in range(n):
                assert bw[i, j] == topo.bandwidth(i, j)
                assert lat[i, j] == topo.latency(i, j)
                assert LINK_TYPE_ORDER[kinds[i, j]] is topo.link_type(i, j)

    def test_group_slice_matches_global_ranks(self, topo):
        group = [1, 4, 9, 14]
        bw = topo.bandwidth_matrix(group)
        lat = topo.latency_matrix(group)
        kinds = topo.link_type_matrix(group)
        for a, ga in enumerate(group):
            for b, gb in enumerate(group):
                assert bw[a, b] == topo.bandwidth(ga, gb)
                assert lat[a, b] == topo.latency(ga, gb)
                assert LINK_TYPE_ORDER[kinds[a, b]] is topo.link_type(ga, gb)

    def test_full_matrices_are_cached_and_read_only(self, topo):
        first = topo.bandwidth_matrix()
        assert topo.bandwidth_matrix() is first
        assert topo.latency_matrix() is topo.latency_matrix()
        assert topo.device_nodes() is topo.device_nodes()
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_device_nodes_matches_node(self, topo):
        nodes = topo.device_nodes()
        assert [topo.node(d) for d in range(topo.num_devices)] == nodes.tolist()

    def test_group_by_node_matches_scalar(self, topo):
        devices = [3, 0, 7, 12, 5, 15]
        groups = group_by_node(topo, devices)
        expected = [[] for _ in range(topo.num_nodes)]
        for dev in devices:
            expected[topo.node(dev)].append(dev)
        assert groups == expected
        with pytest.raises(ValueError):
            group_by_node(topo, [99])


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
        batched = _split_evenly_batched(totals, weights)
        for row in range(64):
            assert batched[row].tolist() == scalar_split_evenly(
                int(totals[row]), weights[row]).tolist()
            assert batched[row].sum() == totals[row]

    def test_split_evenly_single_row_unchanged(self):
        assert _split_evenly(10, np.array([1, 1, 1])).tolist() == \
            scalar_split_evenly(10, np.array([1, 1, 1])).tolist()

    def test_lite_route_exactly_matches_scalar(self, topology):
        rng = np.random.default_rng(4)
        for trial in range(5):
            routing = rng.integers(0, 200, size=(8, 8)).astype(np.int64)
            routing[rng.uniform(size=(8, 8)) < 0.3] = 0
            layout = random_replicated_layout(rng, 8, 8, capacity=8)
            assert np.array_equal(
                lite_route(routing, layout, topology),
                scalar_lite_route(routing, layout, topology))

    def test_lite_route_static_layout_matches_scalar(self, topology):
        rng = np.random.default_rng(5)
        routing = rng.integers(0, 100, size=(8, 8)).astype(np.int64)
        layout = static_ep_layout(8, 8, 2)
        assert np.array_equal(lite_route(routing, layout, topology),
                              scalar_lite_route(routing, layout, topology))

    def test_single_rank_matches_batched_rows(self, topology):
        rng = np.random.default_rng(6)
        routing = rng.integers(0, 50, size=(8, 8)).astype(np.int64)
        layout = random_replicated_layout(rng, 8, 8, capacity=8)
        plan = lite_route(routing, layout, topology)
        for rank in range(8):
            assert np.array_equal(
                lite_route_single_rank(routing[rank], layout, topology, rank),
                plan[rank])

    def test_global_even_route_matches_scalar_split(self, topology):
        rng = np.random.default_rng(7)
        routing = rng.integers(0, 80, size=(8, 8)).astype(np.int64)
        layout = random_replicated_layout(rng, 8, 8, capacity=8)
        plan = global_even_route(routing, layout)
        for rank in range(8):
            for expert in range(8):
                tokens = int(routing[rank, expert])
                expected = (scalar_split_evenly(
                    tokens, layout.assignment[:, expert].astype(np.float64))
                    if tokens else np.zeros(8, dtype=np.int64))
                assert plan[rank, expert].tolist() == expected.tolist()

    def test_missing_replica_still_raises(self, topology):
        layout = ExpertLayout(np.zeros((8, 2), dtype=np.int64), capacity=1)
        with pytest.raises(ValueError, match="no replica"):
            lite_route(np.ones((8, 2), dtype=np.int64), layout, topology)


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
