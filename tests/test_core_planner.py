"""Tests for the load-balancing planner (Fig. 3 / Fig. 7 workflow)."""

import numpy as np
import pytest

from repro.core.planner import IterationPlan, LoadBalancingPlanner
from repro.workloads.scenarios import ScenarioContext, SyntheticTraceSource


@pytest.fixture
def planner(small_topology, small_cost_model):
    return LoadBalancingPlanner(small_topology, small_cost_model, num_experts=8,
                                capacity=2)


def make_trace(iterations=5, seed=0, layers=2):
    ctx = ScenarioContext(
        num_devices=8, num_experts=8, num_layers=layers, tokens_per_device=2048,
        top_k=2, iterations=iterations, skew=0.35, seed=seed)
    return SyntheticTraceSource(ctx).materialize()


class TestPlannerValidation:
    def test_capacity_must_be_positive(self, small_topology, small_cost_model):
        with pytest.raises(ValueError, match="capacity must be positive"):
            LoadBalancingPlanner(small_topology, small_cost_model,
                                 num_experts=8, capacity=0)


class TestHistory:
    def test_observe_and_predict_latest(self, planner):
        routing = np.full((8, 8), 10, dtype=np.int64)
        planner.observe(0, routing)
        predicted = planner.predicted_routing(0)
        assert np.array_equal(predicted, routing)

    def test_no_history_returns_none(self, planner):
        assert planner.predicted_routing(3) is None

    def test_observe_wrong_shape(self, planner):
        with pytest.raises(ValueError):
            planner.observe(0, np.zeros((4, 8), dtype=np.int64))


class TestLayoutTuning:
    def test_fallback_before_history(self, planner):
        layout = planner.current_layout(0)
        layout.validate()
        assert layout.num_experts == 8

    def test_tune_layout_uses_history(self, planner):
        trace = make_trace()
        planner.observe(0, trace.layer(0, 0))
        layout = planner.tune_layout(0)
        layout.validate()
        assert planner.current_layout(0) == layout

    def test_fallback_for_non_divisible_expert_count(self, small_topology,
                                                     small_cost_model):
        planner = LoadBalancingPlanner(small_topology, small_cost_model,
                                       num_experts=6, capacity=2)
        layout = planner.current_layout(0)
        layout.validate()


class TestPlanIteration:
    def test_plans_are_valid(self, planner, small_cost_model):
        trace = make_trace()
        plans = planner.plan_iteration(trace.iteration(0))
        assert len(plans) == trace.num_layers
        for layer, plan in enumerate(plans):
            assert isinstance(plan, IterationPlan)
            small_cost_model.check_constraints(plan.layout, plan.routing_plan,
                                               trace.layer(0, layer))
            assert not plan.planned_from_history  # first iteration: fallback

    def test_second_iteration_uses_tuned_layouts(self, planner):
        trace = make_trace()
        planner.plan_iteration(trace.iteration(0))
        plans = planner.plan_iteration(trace.iteration(1))
        assert all(plan.planned_from_history for plan in plans)

    def test_adaptation_improves_balance(self, planner):
        """After warm-up the planner should track the skewed distribution."""
        trace = make_trace(iterations=6, seed=4)
        first = planner.plan_iteration(trace.iteration(0))
        later = None
        for it in range(1, 6):
            later = planner.plan_iteration(trace.iteration(it))
        ideal = trace.layer(5, 0).sum() / 8
        assert later[0].cost.max_tokens < first[0].cost.max_tokens
        assert later[0].cost.max_tokens <= 1.6 * ideal

    def test_reset_clears_state(self, planner):
        trace = make_trace()
        planner.plan_iteration(trace.iteration(0))
        planner.reset()
        plans = planner.plan_iteration(trace.iteration(1))
        assert all(not plan.planned_from_history for plan in plans)

    def test_wrong_rank_input(self, planner):
        with pytest.raises(ValueError):
            planner.plan_iteration(np.zeros((8, 8), dtype=np.int64))

    def test_dispatch_respects_given_layout(self, planner, small_topology):
        trace = make_trace()
        planner.observe(1, trace.layer(0, 1))
        layouts = [planner.current_layout(0), planner.tune_layout(1)]
        plans = planner.dispatch(trace.iteration(0), layouts)
        for layer, (layout, plan) in enumerate(zip(layouts, plans)):
            assert np.array_equal(plan.row_sums(), trace.layer(0, layer))
            hosted = layout.assignment[plan.dest, plan.rows() % 8] > 0
            assert np.all(hosted | (plan.tokens == 0))


def frozen_copy(array):
    array = np.array(array, dtype=np.int64)
    array.flags.writeable = False
    return array


class TestReadOnlyState:
    """The planner hands out its layouts and keeps read-only routing
    frames as they are; only a writable input is copied."""

    def test_current_layout_is_the_pending_layout_itself(self, planner):
        fallback = planner.current_layout(0)
        assert planner.current_layout(0) is fallback
        assert planner.current_layout(1) is fallback
        assert planner.tune_layout(2) is fallback     # no history yet
        trace = make_trace()
        planner.observe(0, trace.layer(0, 0))
        tuned = planner.tune_layout(0)
        assert planner.current_layout(0) is tuned

    def test_plan_layer_hands_out_the_pending_layout(self, planner):
        trace = make_trace(iterations=2)
        first = [planner.plan_layer(layer, trace.layer(0, layer))[0]
                 for layer in range(2)]
        assert first[0] is first[1] is planner.current_layout(3)  # fallback
        pending = [planner.current_layout(layer) for layer in range(2)]
        second = [planner.plan_layer(layer, trace.layer(1, layer))[0]
                  for layer in range(2)]
        assert all(got is want for got, want in zip(second, pending))
        assert pending[0] is not first[0]

    def test_read_only_frame_is_kept_without_a_copy(self, planner):
        frame = frozen_copy(make_trace().layer(0, 0))
        planner.observe(0, frame)
        assert planner.predicted_routing(0) is frame
        planner.plan_layer(1, frame)
        assert planner.predicted_routing(1) is frame

    def test_writable_routing_is_copied_once(self, planner, small_topology,
                                             small_cost_model):
        trace = make_trace(iterations=2)
        reference = LoadBalancingPlanner(small_topology, small_cost_model,
                                         num_experts=8, capacity=2)
        for layer in range(2):
            reference.plan_layer(layer, trace.layer(0, layer))
        buffer = np.array(trace.layer(0, 0), dtype=np.int64)
        planner.observe(0, buffer)
        kept = planner.predicted_routing(0)
        assert kept is not buffer and not kept.flags.writeable
        assert planner.predicted_routing(0) is kept
        for layer in range(2):
            buffer[:] = trace.layer(0, layer)
            planner.plan_layer(layer, buffer)
        buffer[:] = trace.layer(1, 0)     # the caller reuses its buffer
        for layer in range(2):
            assert np.array_equal(planner.predicted_routing(layer),
                                  trace.layer(0, layer))
            assert planner.current_layout(layer) == reference.current_layout(layer)
