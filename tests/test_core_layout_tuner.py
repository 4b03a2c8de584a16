"""Tests for the expert layout tuner (Algorithm 2)."""

import dataclasses
import sys

import numpy as np
import pytest

import repro.core.relocation as relocation_mod
from repro.api.runner import run_experiment
from repro.api.specs import ClusterSpec, ExperimentSpec, WorkloadSpec
from repro.core.cost_model import MoECostModel
from repro.core.layout import static_ep_layout
from repro.core.layout_tuner import ExpertLayoutTuner, TunerConfig
from repro.core.lite_routing import lite_route
from repro.workloads.model_configs import tiny_test_config
from repro.workloads.routing_traces import RoutingTraceConfig
from repro.workloads.scenarios import SyntheticTraceSource

from helpers import PerturbingTuner, scalar_reference_solve


@pytest.fixture
def tuner(small_topology, small_cost_model):
    return ExpertLayoutTuner(small_topology, small_cost_model, capacity=2)


def skewed_routing(num_devices=8, num_experts=8, seed=0):
    config = RoutingTraceConfig(
        num_devices=num_devices, num_experts=num_experts, num_layers=1,
        tokens_per_device=2048, top_k=2, skew=0.3, seed=seed)
    return SyntheticTraceSource(config, 1).materialize().layer(0, 0)


class TestTunerConfig:
    def test_defaults(self):
        cfg = TunerConfig()
        assert cfg.use_priority_queue and cfg.use_even

    def test_validation(self):
        with pytest.raises(ValueError):
            TunerConfig(use_priority_queue=False, use_even=False)

    def test_one_candidate_with_one_analytic_scheme(self, small_topology,
                                                    small_cost_model):
        for config in (TunerConfig(use_even=False),
                       TunerConfig(use_priority_queue=False)):
            result = ExpertLayoutTuner(small_topology, small_cost_model, 2,
                                       config).solve(skewed_routing())
            assert result.candidates_evaluated == 1
            assert len(result.candidate_costs) == 1


class TestCandidateGeneration:
    def test_two_analytic_schemes(self, tuner):
        loads = np.array([100.0, 50, 25, 12, 6, 3, 2, 1])
        schemes = tuner.candidate_replica_schemes(loads, 8)
        assert len(schemes) == 2
        assert all(s.sum() == 16 for s in schemes)


class TestSolve:
    def test_result_is_valid(self, tuner, small_topology, small_cost_model):
        routing = skewed_routing()
        result = tuner.solve(routing)
        result.layout.validate()
        small_cost_model.check_constraints(result.layout, result.routing_plan,
                                           routing)
        assert result.candidates_evaluated == 2
        assert len(result.candidate_costs) == 2
        assert result.cost.total == pytest.approx(min(result.candidate_costs))

    def test_beats_static_ep_on_skewed_load(self, tuner, small_topology,
                                            small_cost_model):
        """The tuned layout must cost no more than the static EP baseline."""
        routing = skewed_routing(seed=3)
        tuned = tuner.solve(routing)
        static = static_ep_layout(8, 8, 2)
        static_plan = lite_route(routing, static, small_topology)
        static_cost = small_cost_model.evaluate(static_plan)
        assert tuned.cost.total <= static_cost.total + 1e-12
        assert tuned.cost.max_tokens <= static_cost.max_tokens

    def test_near_ideal_balance_on_skewed_load(self, tuner):
        routing = skewed_routing(seed=5)
        result = tuner.solve(routing)
        ideal = routing.sum() / 8
        assert result.cost.max_tokens <= 1.35 * ideal

    def test_balanced_load_stays_balanced(self, tuner):
        routing = np.full((8, 8), 512, dtype=np.int64)
        result = tuner.solve(routing)
        ideal = routing.sum() / 8
        assert result.cost.max_tokens == pytest.approx(ideal, rel=0.05)

    def test_multi_scheme_no_worse_than_single(self, small_topology,
                                               small_cost_model):
        """Using both schemes can only improve on either alone (Fig. 12)."""
        routing = skewed_routing(seed=9)
        both = ExpertLayoutTuner(small_topology, small_cost_model, 2,
                                 TunerConfig()).solve(routing)
        pq_only = ExpertLayoutTuner(
            small_topology, small_cost_model, 2,
            TunerConfig(use_even=False)).solve(routing)
        even_only = ExpertLayoutTuner(
            small_topology, small_cost_model, 2,
            TunerConfig(use_priority_queue=False)).solve(routing)
        assert both.cost.total <= pq_only.cost.total + 1e-12
        assert both.cost.total <= even_only.cost.total + 1e-12

    def test_shape_validation(self, tuner):
        with pytest.raises(ValueError):
            tuner.solve(np.zeros((3, 8), dtype=np.int64))

    def test_capacity_validation(self, small_topology, small_cost_model):
        with pytest.raises(ValueError):
            ExpertLayoutTuner(small_topology, small_cost_model, capacity=0)


def assert_matches_scalar_reference(make_tuner, routing):
    """``make_tuner()`` builds a fresh tuner for either path."""
    batched = make_tuner().solve(routing)
    layout, plan, cost, candidate_costs = scalar_reference_solve(
        make_tuner(), routing)
    # Not approx: the batched path must be the same arithmetic.
    assert batched.candidate_costs == candidate_costs
    assert batched.candidates_evaluated == len(candidate_costs)
    assert batched.cost.total == cost.total
    assert batched.cost.comm_time == cost.comm_time
    assert np.array_equal(batched.cost.tokens_per_device,
                          cost.tokens_per_device)
    assert np.array_equal(batched.routing_plan.to_dense(), plan.to_dense())
    assert np.array_equal(batched.layout.assignment, layout.assignment)


class TestBatchEval:
    @pytest.mark.parametrize("candidates", [1, 2, 4, 8])
    def test_batched_solve_is_bit_identical_to_scalar(
            self, small_topology, small_cost_model, candidates):
        """One candidate (the laer_pq_only ablation) up to eight (seeded
        perturbations beyond pq and even)."""
        assert_matches_scalar_reference(
            lambda: PerturbingTuner(
                small_topology, small_cost_model, 2,
                TunerConfig(use_even=candidates > 1), candidates=candidates),
            skewed_routing(seed=candidates))

    def test_tie_breaks_pick_the_first_candidate(self, small_topology,
                                                 small_cost_model):
        """Equal-cost candidates resolve like the scalar reference."""
        assert_matches_scalar_reference(
            lambda: ExpertLayoutTuner(small_topology, small_cost_model, 2),
            np.full((8, 8), 64, dtype=np.int64))

    @pytest.mark.parametrize("candidates", [2, 4])
    def test_tied_distinct_candidates_keep_the_first(
            self, monkeypatch, small_topology, small_cost_model, candidates):
        """Candidates whose layouts differ but whose costs tie: every layer
        of a batch keeps its first candidate's layout."""
        score = MoECostModel.evaluate_batch

        def tied(cost_model, plans):
            return [dataclasses.replace(cost, total=1.0)
                    for cost in score(cost_model, plans)]

        monkeypatch.setattr(MoECostModel, "evaluate_batch", tied)
        routings = np.stack([skewed_routing(seed=seed) for seed in (1, 2)])
        results = PerturbingTuner(small_topology, small_cost_model, 2,
                                  candidates=candidates).solve_layers(routings)
        # A second tuner draws the same perturbation stream.
        reference = PerturbingTuner(small_topology, small_cost_model, 2,
                                    candidates=candidates)
        for routing, result in zip(routings, results):
            loads = routing.sum(axis=0)
            layouts = [relocation_mod.relocate_experts(
                           replicas, loads, small_topology, 2)
                       for replicas in reference.candidate_replica_schemes(
                           loads, routing.shape[1])]
            assert all(layout != layouts[0] for layout in layouts[1:])
            assert result.candidate_costs == [1.0] * candidates
            assert result.layout == layouts[0]

    def test_batch_eval_emits_planner_span(self, small_topology,
                                           small_cost_model, tmp_path):
        from repro.telemetry import trace as trace_mod
        tracer = trace_mod.Tracer(tmp_path / "trace", scope="test")
        trace_mod.install(tracer)
        try:
            PerturbingTuner(small_topology, small_cost_model, 2,
                            candidates=4).solve(skewed_routing(seed=1))
        finally:
            trace_mod.uninstall()
        events = trace_mod.read_events(tmp_path / "trace")
        spans = [e for e in events if e.get("name") == "planner.batch-eval"]
        assert spans and spans[0]["attrs"]["candidates"] == 4


class TestRelocationEntryPoint:
    def test_every_candidate_is_placed_by_one_relocate_call(self,
                                                            monkeypatch):
        """perfbench's tracer rebinds ``relocate_experts`` in every loaded
        module and counts ``sum(int(r) for r in replicas)`` per call, so
        every candidate must be placed by its own call with a 1-D replica
        vector, also when the planner solves a whole iteration's layers in
        one ``solve_layers`` batch."""
        original = relocation_mod.relocate_experts
        calls = []

        def traced(replicas, *args):
            calls.append(np.asarray(replicas))
            return original(replicas, *args)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "relocate_experts", None) is original):
                monkeypatch.setattr(module, "relocate_experts", traced)
        candidates = []
        solve_layers = ExpertLayoutTuner.solve_layers

        def counted_solve_layers(self, routing_by_layer):
            results = solve_layers(self, routing_by_layer)
            candidates.extend(result.candidates_evaluated
                              for result in results)
            return results

        monkeypatch.setattr(ExpertLayoutTuner, "solve_layers",
                            counted_solve_layers)
        run_experiment(ExperimentSpec(
            name="relocate-entry-point",
            cluster=ClusterSpec(num_nodes=2, devices_per_node=4),
            workload=WorkloadSpec(tokens_per_device=1024, layers=2,
                                  iterations=3, warmup=1),
            systems=("laer",), reference="laer"))

        slots = 8 * 2  # N * C of mixtral-8x7b-e8k2 on 2 x 4 devices
        assert candidates and len(calls) == sum(candidates)
        assert all(replicas.ndim == 1 and sum(int(r) for r in replicas) == slots
                   for replicas in calls)
        # 2 layers x 2 candidates, solved before each of the 3 iterations
        # that follow the first; the 4th iteration's routing is never solved.
        assert len(calls) == 12
