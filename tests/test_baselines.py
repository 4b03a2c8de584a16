"""Tests for the load-balancing policies of the compared systems."""

import numpy as np
import pytest

from repro.baselines import (
    FasterMoEPolicy,
    FlexMoEPolicy,
    LAERPolicy,
    LoadBalancingPolicy,
    OracleBalancedPolicy,
    ProphetPolicy,
    SmartMoEPolicy,
    StaticEPPolicy,
)
from repro.baselines.static_ep import ep_owners
from repro.core.cost_model import MoECostModel
from repro.core.layout import ExpertLayout
from repro.core.lite_routing import lite_route
from repro.core.routing_plan import RoutingPlan
from repro.sim.systems import available_systems, make_system
from repro.workloads.model_configs import get_model_config
from repro.workloads.routing_traces import RoutingTraceConfig
from repro.workloads.scenarios import (
    ScenarioContext,
    SyntheticTraceSource,
    make_scenario,
)

EXPERT_BYTES = float(get_model_config("mixtral-8x7b-e8k2").expert_param_bytes)


def make_trace(iterations=6, seed=0, devices=8, experts=8):
    config = RoutingTraceConfig(
        num_devices=devices, num_experts=experts, num_layers=2,
        tokens_per_device=2048, top_k=2, skew=0.35, seed=seed)
    return SyntheticTraceSource(config, iterations).materialize()


def ep_group_route(routing, capacity):
    """Classic EP routing, as StaticEPPolicy places tokens."""
    num_devices, num_experts = routing.shape
    return RoutingPlan.from_owners(
        routing, ep_owners(num_devices, num_experts, capacity))


def check_decision(decision, routing):
    """Every policy decision must satisfy the planner constraints."""
    decision.layout.validate()
    assert np.array_equal(decision.routing_plan.row_sums(), routing)
    hosted = decision.layout.assignment.T > 0
    received = decision.routing_plan.to_dense().sum(axis=0)
    assert np.all(received[~hosted] == 0)
    assert decision.relayout_bytes_exposed >= 0
    assert decision.grad_sync_extra_bytes >= 0


def max_relative_tokens(decision):
    tokens = decision.routing_plan.to_dense().sum(axis=(0, 1))
    return tokens.max() / (decision.routing_plan.tokens.sum() / tokens.shape[0])


class TestEPGroupRoute:
    def test_routes_to_owner_in_group(self):
        routing = np.full((8, 8), 10, dtype=np.int64)
        plan = ep_group_route(routing, capacity=2).to_dense()
        # Sender 0 belongs to the first row of P_ep=4 devices; expert 5 owner
        # is device 2 of that row.
        assert plan[0, 5, 2] == 10
        # Sender 5 belongs to the second row (devices 4..7).
        assert plan[5, 5, 6] == 10

    def test_conservation(self):
        rng = np.random.default_rng(0)
        routing = rng.integers(0, 50, size=(8, 8)).astype(np.int64)
        plan = ep_group_route(routing, capacity=2)
        assert np.array_equal(plan.row_sums(), routing)

    def test_validation(self):
        with pytest.raises(ValueError):
            ep_group_route(np.zeros((8, 7), dtype=np.int64), capacity=2)
        with pytest.raises(ValueError):
            ep_group_route(np.zeros((6, 8), dtype=np.int64), capacity=2)


class TestStaticEP:
    def test_decisions_valid_and_static(self, small_topology):
        policy = StaticEPPolicy(small_topology, 8, 2, EXPERT_BYTES)
        trace = make_trace()
        first = policy.decide_iteration(trace.iteration(0))
        second = policy.decide_iteration(trace.iteration(1))
        for layer in range(2):
            check_decision(first[layer], trace.layer(0, layer))
            assert first[layer].layout == second[layer].layout
            assert first[layer].relayout_bytes_exposed == 0

    def test_suffers_from_imbalance(self, small_topology):
        policy = StaticEPPolicy(small_topology, 8, 2, EXPERT_BYTES)
        trace = make_trace(seed=5)
        decisions = policy.decide_iteration(trace.iteration(0))
        assert max_relative_tokens(decisions[0]) > 1.3


class TestFasterMoE:
    def test_shadows_hot_experts_after_first_iteration(self, small_topology):
        policy = FasterMoEPolicy(small_topology, 8, 2, EXPERT_BYTES,
                                 max_shadow_experts=2)
        trace = make_trace(seed=7)
        policy.decide_iteration(trace.iteration(0))
        decisions = policy.decide_iteration(trace.iteration(1))
        shadowed = decisions[0].metadata["shadow_experts"]
        assert len(shadowed) <= 2
        if shadowed:
            assert decisions[0].relayout_bytes_exposed > 0
            assert decisions[0].grad_sync_extra_bytes > 0
        for layer in range(2):
            check_decision(decisions[layer], trace.layer(1, layer))

    def test_budget_respected(self, small_topology):
        policy = FasterMoEPolicy(small_topology, 8, 2, EXPERT_BYTES,
                                 max_shadow_experts=1)
        trace = make_trace(seed=8)
        policy.decide_iteration(trace.iteration(0))
        decisions = policy.decide_iteration(trace.iteration(1))
        assert len(decisions[0].metadata["shadow_experts"]) <= 1

    def test_validation(self, small_topology):
        with pytest.raises(ValueError):
            FasterMoEPolicy(small_topology, 8, 2, EXPERT_BYTES, hot_threshold=0.5)


class TestSmartMoE:
    def test_relocates_only_at_interval(self, small_topology):
        policy = SmartMoEPolicy(small_topology, 8, 2, EXPERT_BYTES,
                                relocation_interval=3)
        trace = make_trace(iterations=8, seed=9)
        migrations = []
        for it in range(7):
            decisions = policy.decide_iteration(trace.iteration(it))
            for layer, decision in enumerate(decisions):
                check_decision(decision, trace.layer(it, layer))
            migrations.append(decisions[0].relayout_bytes_exposed)
        # Migration cost can only appear on multiples of the interval.
        for it, cost in enumerate(migrations):
            if it % 3 != 0 or it == 0:
                assert cost == 0.0

    def test_migration_moves_optimizer_state(self, small_topology):
        """A relocation moves 6x each moved replica's bf16 parameter bytes:
        fp32 master weights and two Adam moments."""
        policy = SmartMoEPolicy(small_topology, 8, 2, EXPERT_BYTES,
                                relocation_interval=1)
        trace = make_trace(iterations=4, seed=10)
        before = policy.decide_iteration(trace.iteration(0))[0].layout
        decision = policy.decide_iteration(trace.iteration(1))[0]
        moved = decision.layout.difference(before)
        assert moved > 0 and decision.metadata["relocated"]
        assert decision.relayout_bytes_exposed == moved * EXPERT_BYTES * 6.0


class TestProphet:
    def test_decisions_valid(self, small_topology):
        policy = ProphetPolicy(small_topology, 8, 2, EXPERT_BYTES,
                               adjustment_interval=2)
        trace = make_trace(iterations=5, seed=11)
        for it in range(5):
            decisions = policy.decide_iteration(trace.iteration(it))
            for layer, decision in enumerate(decisions):
                check_decision(decision, trace.layer(it, layer))

    def test_layouts_fill_every_slot(self, small_topology):
        """Algorithm 4 places exactly N * C replicas at every re-plan."""
        policy = ProphetPolicy(small_topology, 8, 2, EXPERT_BYTES,
                               adjustment_interval=1)
        trace = make_trace(iterations=3, seed=12)
        for it in range(3):
            for decision in policy.decide_iteration(trace.iteration(it)):
                decision.layout.validate(require_full_capacity=True)
                assert decision.layout.replicas_per_expert().sum() == \
                    small_topology.num_devices * 2


class TestFlexMoE:
    def test_bounded_adjustments(self, small_topology):
        policy = FlexMoEPolicy(small_topology, 8, 2, EXPERT_BYTES,
                               max_adjustments_per_iteration=1)
        trace = make_trace(iterations=5, seed=13)
        previous_layout = None
        for it in range(5):
            decisions = policy.decide_iteration(trace.iteration(it))
            for layer, decision in enumerate(decisions):
                check_decision(decision, trace.layer(it, layer))
                # FSEP restores every replica each iteration, so FlexMoE's
                # adjustments move no bytes.
                assert decision.relayout_bytes_exposed == 0.0
            if previous_layout is not None:
                assert decisions[0].layout.difference(previous_layout) <= 1
            previous_layout = decisions[0].layout

    def test_adapts_towards_balance(self, small_topology):
        policy = FlexMoEPolicy(small_topology, 8, 2, EXPERT_BYTES,
                               max_adjustments_per_iteration=2)
        trace = make_trace(iterations=10, seed=14)
        first = policy.decide_iteration(trace.iteration(0))
        last = None
        for it in range(1, 10):
            last = policy.decide_iteration(trace.iteration(it))
        assert max_relative_tokens(last[0]) < max_relative_tokens(first[0]) + 0.2


class TestLAERAndOracle:
    def make_cost_model(self, topology):
        return MoECostModel.from_model_config(
            get_model_config("mixtral-8x7b-e8k2"), topology)

    def test_laer_balances_better_than_static(self, small_topology):
        cost_model = self.make_cost_model(small_topology)
        laer = LAERPolicy(small_topology, 8, 2, EXPERT_BYTES, cost_model)
        static = StaticEPPolicy(small_topology, 8, 2, EXPERT_BYTES)
        trace = make_trace(iterations=6, seed=16)
        laer_last = static_last = None
        for it in range(6):
            laer_last = laer.decide_iteration(trace.iteration(it))
            static_last = static.decide_iteration(trace.iteration(it))
        assert (max_relative_tokens(laer_last[0])
                < max_relative_tokens(static_last[0]))
        assert laer_last[0].relayout_bytes_exposed == 0.0

    def test_laer_decisions_valid(self, small_topology):
        cost_model = self.make_cost_model(small_topology)
        policy = LAERPolicy(small_topology, 8, 2, EXPERT_BYTES, cost_model)
        trace = make_trace(iterations=3, seed=17)
        for it in range(3):
            decisions = policy.decide_iteration(trace.iteration(it))
            for layer, decision in enumerate(decisions):
                check_decision(decision, trace.layer(it, layer))

    def test_oracle_at_least_as_balanced_as_laer(self, small_topology):
        cost_model = self.make_cost_model(small_topology)
        oracle = OracleBalancedPolicy(small_topology, 8, 2, EXPERT_BYTES, cost_model)
        laer = LAERPolicy(small_topology, 8, 2, EXPERT_BYTES, cost_model)
        trace = make_trace(iterations=5, seed=18)
        oracle_vals, laer_vals = [], []
        for it in range(5):
            oracle_vals.append(max_relative_tokens(
                oracle.decide_iteration(trace.iteration(it))[0]))
            laer_vals.append(max_relative_tokens(
                laer.decide_iteration(trace.iteration(it))[0]))
        assert np.mean(oracle_vals) <= np.mean(laer_vals) + 0.05

    def test_reset(self, small_topology):
        cost_model = self.make_cost_model(small_topology)
        policy = LAERPolicy(small_topology, 8, 2, EXPERT_BYTES, cost_model)
        trace = make_trace(iterations=2, seed=19)
        policy.decide_iteration(trace.iteration(0))
        assert policy.iteration == 1
        policy.reset()
        assert policy.iteration == 0


def reference_decide_iteration(policy, routing_by_layer):
    """Per-layer reference of ``decide_iteration``: every layer whose
    decision leaves the plan unset is lite-routed on its own, right after
    it is decided."""
    decisions = []
    for layer, routing in enumerate(np.asarray(routing_by_layer,
                                               dtype=np.int64)):
        decision = policy.decide_layer(layer, routing)
        if decision.routing_plan is None:
            decision.routing_plan = lite_route(routing, decision.layout,
                                               policy.topology)
        decisions.append(decision)
    policy._iteration += 1
    return decisions


class TestDecideIteration:
    @pytest.mark.parametrize("name", available_systems())
    def test_batched_dispatch_matches_per_layer_reference(self, name,
                                                          small_topology):
        config = get_model_config("mixtral-8x7b-e8k2")
        source = make_scenario("bursty-churn", ScenarioContext(
            num_devices=small_topology.num_devices,
            num_experts=config.num_experts, num_layers=3,
            tokens_per_device=2048, top_k=config.top_k, iterations=6,
            seed=4))
        batched, reference = (
            make_system(name, config, small_topology, 2048).policy
            for _ in range(2))
        for frame in source.iter_iterations():
            got = batched.decide_iteration(frame)
            want = reference_decide_iteration(reference, frame)
            assert len(got) == len(want) == 3
            for mine, theirs in zip(got, want):
                assert mine.layout == theirs.layout
                for part in ("offsets", "dest", "tokens"):
                    assert np.array_equal(getattr(mine.routing_plan, part),
                                          getattr(theirs.routing_plan, part))
                assert (mine.relayout_bytes_exposed
                        == theirs.relayout_bytes_exposed)
                assert (mine.grad_sync_extra_bytes
                        == theirs.grad_sync_extra_bytes)
                assert mine.metadata == theirs.metadata
        assert batched.iteration == reference.iteration == 6

    def test_no_policy_overrides_decide_iteration(self):
        """perfbench's tracer sets the base class's ``decide_iteration`` on
        every policy class, so an override would run only untraced: a
        traced run would time a path the untraced run does not take."""
        policies, pending = [], list(LoadBalancingPolicy.__subclasses__())
        while pending:
            cls = pending.pop()
            policies.append(cls)
            pending.extend(cls.__subclasses__())
        assert {LAERPolicy, OracleBalancedPolicy, SmartMoEPolicy} <= set(policies)
        assert [cls.__name__ for cls in policies
                if "decide_iteration" in cls.__dict__] == []


def decide_run(policy, trace, iterations):
    """Every iteration's decisions, ``[iteration][layer]``."""
    return [policy.decide_iteration(trace.iteration(it))
            for it in range(iterations)]


def same_layout_as_before(runs):
    """``[iteration][layer]``: whether the layer's layout is the very object
    of the previous iteration (None for the first iteration)."""
    return [[None if it == 0 else decision.layout is runs[it - 1][layer].layout
             for layer, decision in enumerate(decisions)]
            for it, decisions in enumerate(runs)]


def hot_routing(hot, devices=8, experts=8):
    """A routing where expert ``hot`` draws 20x the tokens of the others."""
    routing = np.full((devices, experts), 10, dtype=np.int64)
    routing[:, hot] = 200
    return routing


class TestSharedLayouts:
    """Layouts are read-only, so a policy hands out the same layout object
    for as long as its placement is unchanged."""

    def test_static_ep_hands_out_one_layout(self, small_topology):
        policy = StaticEPPolicy(small_topology, 8, 2, EXPERT_BYTES)
        runs = decide_run(policy, make_trace(iterations=4, seed=20), 4)
        assert policy.layout is policy.layout
        assert all(decision.layout is policy.layout
                   for decisions in runs for decision in decisions)
        assert not policy._owners.flags.writeable

    def test_prophet_shares_layout_between_resolves(self, small_topology):
        policy = ProphetPolicy(small_topology, 8, 2, EXPERT_BYTES,
                               adjustment_interval=3)
        runs = decide_run(policy, make_trace(iterations=8, seed=21), 8)
        for it, same in enumerate(same_layout_as_before(runs)[1:], start=1):
            assert same == [it % 3 != 0] * 2
            assert all(decision.metadata["resolved"] == (it % 3 == 0)
                       for decision in runs[it])

    def test_smartmoe_shares_layout_between_relocations(self, small_topology):
        policy = SmartMoEPolicy(small_topology, 8, 2, EXPERT_BYTES,
                                relocation_interval=3)
        runs = decide_run(policy, make_trace(iterations=8, seed=22), 8)
        for it, same in enumerate(same_layout_as_before(runs)[1:], start=1):
            assert same == [it % 3 != 0] * 2

    def test_flexmoe_shares_layout_without_adjustment(self, small_topology):
        trace = make_trace(iterations=8, seed=23)
        idle = FlexMoEPolicy(small_topology, 8, 2, EXPERT_BYTES,
                             imbalance_trigger=1e9)
        idle_runs = decide_run(idle, trace, 8)
        assert all(all(same) for same in same_layout_as_before(idle_runs)[1:])
        policy = FlexMoEPolicy(small_topology, 8, 2, EXPERT_BYTES)
        runs = decide_run(policy, trace, 8)
        adjusted = [[decision.metadata["adjustments"] > 0
                     for decision in decisions] for decisions in runs]
        for it, same in enumerate(same_layout_as_before(runs)[1:], start=1):
            assert same == [not changed for changed in adjusted[it]]
        assert any(any(changed) for changed in adjusted)

    def test_fastermoe_reuses_layout_for_a_repeated_shadow_set(
            self, small_topology):
        policy = FasterMoEPolicy(small_topology, 8, 2, EXPERT_BYTES,
                                 max_shadow_experts=1)
        layouts = []
        for hot in (0, 0, 0, 5, 5):
            routing = hot_routing(hot)
            decision = policy.decide_layer(0, routing)
            check_decision(decision, routing)
            layouts.append(decision.layout)
            policy._iteration += 1
        # Iteration 0 shadows nothing; 1 and 2 shadow expert 0, 3 expert 0
        # (chosen from iteration 2's routing), 4 expert 5.
        assert [layout is layouts[1] for layout in layouts] == [
            False, True, True, True, False]
        assert layouts[4].assignment[:, 5].min() == 1

    def test_fastermoe_keeps_its_own_copy_of_a_writable_routing(
            self, small_topology):
        policy = FasterMoEPolicy(small_topology, 8, 2, EXPERT_BYTES,
                                 max_shadow_experts=1)
        routing = hot_routing(3)
        policy.decide_layer(0, routing)
        routing[:] = hot_routing(6)        # the caller reuses its buffer
        decision = policy.decide_layer(0, routing)
        assert decision.metadata["shadow_experts"] == [3]

    def test_layouts_built_only_on_placement_changes(self, small_topology,
                                                     monkeypatch):
        """Counted over StaticEP, Prophet, SmartMoE, FlexMoE and FasterMoE:
        every layout construction is a placement change."""
        built = []
        post_init = ExpertLayout.__post_init__

        def counting(layout):
            built.append(layout)
            post_init(layout)

        monkeypatch.setattr(ExpertLayout, "__post_init__", counting)
        iterations, layers = 10, 2
        trace = make_trace(iterations=iterations, seed=24)
        policies = {
            "static": StaticEPPolicy(small_topology, 8, 2, EXPERT_BYTES),
            "prophet": ProphetPolicy(small_topology, 8, 2, EXPERT_BYTES,
                                     adjustment_interval=4),
            "smartmoe": SmartMoEPolicy(small_topology, 8, 2, EXPERT_BYTES,
                                       relocation_interval=4),
            "flexmoe": FlexMoEPolicy(small_topology, 8, 2, EXPERT_BYTES),
            "fastermoe": FasterMoEPolicy(small_topology, 8, 2, EXPERT_BYTES),
        }
        runs = {name: decide_run(policy, trace, iterations)
                for name, policy in policies.items()}
        shadow_sets = [[sorted(decision.metadata["shadow_experts"])
                        for decision in decisions]
                       for decisions in runs["fastermoe"]]
        changes = {
            "static": 1,
            "prophet": sum(decision.metadata["resolved"]
                           for decisions in runs["prophet"]
                           for decision in decisions),
            "smartmoe": layers * (1 + (iterations - 1) // 4),
            "flexmoe": layers + sum(decision.metadata["adjustments"] > 0
                                    for decisions in runs["flexmoe"]
                                    for decision in decisions),
            # The static base layout, then one per new shadow set.
            "fastermoe": 1 + sum(
                it == 0 or shadow_sets[it][layer] != shadow_sets[it - 1][layer]
                for it in range(iterations) for layer in range(layers)),
        }
        assert changes["prophet"] == layers * 3
        assert len(built) <= sum(changes.values())
        assert len(built) < layers * iterations * len(policies)
