"""Tests comparing the heuristic layout tuner against exhaustive search."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel
from repro.core.layout_tuner import ExpertLayoutTuner, TunerConfig
from repro.workloads.model_configs import get_model_config

from reference_solver import enumerate_layouts, solve_reference


@pytest.fixture
def tiny_topology():
    return ClusterTopology(num_nodes=1, devices_per_node=3)


@pytest.fixture
def cost_model(tiny_topology):
    return MoECostModel.from_model_config(
        get_model_config("mixtral-8x7b-e8k2"), tiny_topology)


class TestEnumerateLayouts:
    def test_count_small_instance(self):
        # 2 devices, 2 experts, capacity 1: each device picks one expert, the
        # layouts covering both experts are (0,1) and (1,0).
        layouts = list(enumerate_layouts(2, 2, 1))
        assert len(layouts) == 2

    def test_all_layouts_complete_and_within_capacity(self):
        for layout in enumerate_layouts(3, 3, 2):
            layout.validate()
            assert np.all(layout.assignment.sum(axis=1) == 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_layouts(0, 2, 1))


class TestReferenceSolution:
    def test_reference_finds_balanced_layout(self, tiny_topology, cost_model):
        routing = np.array([
            [90, 5, 5],
            [80, 10, 10],
            [85, 5, 10],
        ], dtype=np.int64)
        solution = solve_reference(routing, tiny_topology, cost_model, capacity=2)
        # The overloaded expert 0 must be replicated in the optimum.
        assert solution.layout.replicas_per_expert()[0] >= 2
        assert solution.layouts_evaluated > 10

    def test_heuristic_close_to_optimal(self, tiny_topology, cost_model):
        """Algorithm 2 should land within 15% of the exhaustive optimum."""
        rng = np.random.default_rng(3)
        for _ in range(3):
            routing = rng.integers(0, 200, size=(3, 3)).astype(np.int64)
            reference = solve_reference(routing, tiny_topology, cost_model,
                                        capacity=2)
            tuner = ExpertLayoutTuner(tiny_topology, cost_model, capacity=2,
                                      config=TunerConfig(num_candidates=2))
            heuristic = tuner.solve(routing)
            assert heuristic.cost.total <= reference.cost.total * 1.15 + 1e-12

    def test_reference_never_above_static_heuristic(self, tiny_topology,
                                                    cost_model):
        rng = np.random.default_rng(5)
        routing = rng.integers(0, 100, size=(3, 3)).astype(np.int64)
        reference = solve_reference(routing, tiny_topology, cost_model, capacity=2)
        tuner = ExpertLayoutTuner(tiny_topology, cost_model, capacity=2)
        heuristic = tuner.solve(routing)
        assert reference.cost.total <= heuristic.cost.total + 1e-12

    def test_layout_cap_enforced(self, tiny_topology, cost_model):
        routing = np.ones((3, 3), dtype=np.int64)
        with pytest.raises(RuntimeError):
            solve_reference(routing, tiny_topology, cost_model, capacity=2,
                            max_layouts=3)

    def test_topology_mismatch_rejected(self, cost_model):
        other = ClusterTopology(num_nodes=1, devices_per_node=2)
        routing = np.ones((3, 3), dtype=np.int64)
        with pytest.raises(ValueError):
            solve_reference(routing, other, cost_model, capacity=2)
