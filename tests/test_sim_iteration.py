"""Tests for the per-iteration cost assembly."""

import numpy as np
import pytest

from repro.baselines import LAERPolicy, StaticEPPolicy
from repro.baselines.base import PolicyDecision
from repro.core.comm_schedule import CommScheduleConfig
from repro.core.cost_model import MoECostModel
from repro.core.layout import static_ep_layout
from repro.core.routing_plan import RoutingPlan
from repro.sim.iteration import IterationSimulator, OverflowModel
from repro.workloads.model_configs import get_model_config
from repro.workloads.routing_traces import balanced_routing
from repro.workloads.scenarios import ScenarioContext, SyntheticTraceSource

CONFIG = get_model_config("mixtral-8x7b-e8k2")
EXPERT_BYTES = float(CONFIG.expert_param_bytes)


def make_simulator(topology, paradigm="fsep", overflow_penalty=0.0,
                   token_capacity=None, drop_policy="penalty", **kwargs):
    overflow = OverflowModel(overflow_penalty, token_capacity, drop_policy)
    return IterationSimulator(config=CONFIG, topology=topology,
                              tokens_per_device=8192, paradigm=paradigm,
                              num_layers=8, overflow=overflow, **kwargs)


def skewed_routing(topology, seed=0, layers=2):
    ctx = ScenarioContext(
        num_devices=topology.num_devices, num_experts=8, num_layers=layers,
        tokens_per_device=8192, top_k=2, iterations=1, skew=0.35, seed=seed)
    return SyntheticTraceSource(ctx).materialize().iteration(0)


class TestComponentCosts:
    def test_prefetch_paradigm_differences(self, small_topology):
        fsep = make_simulator(small_topology, "fsep")
        fsdp_ep = make_simulator(small_topology, "fsdp_ep", ep_size=4)
        megatron = make_simulator(small_topology, "megatron", ep_size=4, tp_size=2)
        assert fsep.prefetch_time() > 0
        assert fsdp_ep.prefetch_time() > 0
        assert megatron.prefetch_time() == 0.0

    def test_fsep_volume_close_to_fsdp(self, paper_topology):
        """Sec. 3.1: FSEP's restore volume is within ~10-30% of FSDP's."""
        fsep = make_simulator(paper_topology, "fsep")
        fsdp_ep = make_simulator(paper_topology, "fsdp_ep", ep_size=4)
        ratio = fsep.prefetch_time() / fsdp_ep.prefetch_time()
        assert 0.9 < ratio < 1.6

    def test_grad_sync_positive_for_all_paradigms(self, small_topology):
        for paradigm, kwargs in (("fsep", {}), ("fsdp_ep", {"ep_size": 4}),
                                 ("megatron", {"ep_size": 4})):
            sim = make_simulator(small_topology, paradigm, **kwargs)
            assert sim.grad_sync_time() >= 0

    def test_fsep_prices_its_uniform_all_to_all_once(self, small_topology,
                                                     monkeypatch):
        """FSEP's gradient sync is its prefetch's uniform All-to-All, so the
        per-layer invariants price that collective once."""
        sim = make_simulator(small_topology, "fsep")
        calls = []
        priced = type(sim.collectives).uniform_all_to_all

        def counted(collectives, *args, **kwargs):
            calls.append(args)
            return priced(collectives, *args, **kwargs)

        monkeypatch.setattr(type(sim.collectives), "uniform_all_to_all",
                            counted)
        _, prefetch, _, grad_sync = sim._invariant_times()
        assert len(calls) == 1
        assert grad_sync == prefetch == sim.grad_sync_time()

    def test_token_a2a_zero_for_local_plan(self, small_topology):
        sim = make_simulator(small_topology)
        n = small_topology.num_devices
        plan = np.zeros((n, 8, n), dtype=np.int64)
        for dev in range(n):
            plan[dev, :, dev] = 10
        layout = static_ep_layout(n, 8, 2)
        result = sim.simulate_iteration(
            0, [PolicyDecision(layout, RoutingPlan.from_dense(plan))])
        # Balanced local traffic: no token exchange and no imbalance stall.
        assert result.layers[0].all_to_all_time == 0.0

    def test_exposed_time_from_bytes(self, small_topology):
        sim = make_simulator(small_topology)
        assert sim.exposed_time_from_bytes(0.0) == 0.0
        assert sim.exposed_time_from_bytes(1e9) > 0.0

    def test_validation(self, small_topology):
        with pytest.raises(ValueError):
            IterationSimulator(config=CONFIG, topology=small_topology,
                               tokens_per_device=0)
        with pytest.raises(ValueError):
            IterationSimulator(config=CONFIG, topology=small_topology,
                               tokens_per_device=8, paradigm="bogus")


class TestSimulateIteration:
    def test_imbalanced_slower_than_balanced(self, small_topology):
        sim = make_simulator(small_topology)
        policy = StaticEPPolicy(small_topology, 8, 2, EXPERT_BYTES)
        skewed = policy.decide_iteration(skewed_routing(small_topology, seed=1))
        policy.reset()
        balanced = policy.decide_iteration(balanced_routing(
            small_topology.num_devices, 8, 8192, 2, num_layers=2).iteration(0))
        slow = sim.simulate_iteration(0, skewed)
        fast = sim.simulate_iteration(0, balanced)
        assert slow.total_time > fast.total_time
        assert slow.max_relative_tokens > fast.max_relative_tokens

    def test_breakdown_sums_to_total(self, small_topology):
        sim = make_simulator(small_topology)
        policy = StaticEPPolicy(small_topology, 8, 2, EXPERT_BYTES)
        decisions = policy.decide_iteration(skewed_routing(small_topology))
        result = sim.simulate_iteration(0, decisions)
        assert sum(result.breakdown.values()) == pytest.approx(result.total_time,
                                                               rel=0.05)

    def test_layer_scaling(self, small_topology):
        policy = StaticEPPolicy(small_topology, 8, 2, EXPERT_BYTES)
        decisions = policy.decide_iteration(skewed_routing(small_topology))
        sim8 = make_simulator(small_topology)
        sim16 = IterationSimulator(config=CONFIG, topology=small_topology,
                                   tokens_per_device=8192, num_layers=16)
        t8 = sim8.simulate_iteration(0, decisions).total_time
        t16 = sim16.simulate_iteration(0, decisions).total_time
        assert t16 == pytest.approx(2 * t8, rel=1e-6)

    def test_throughput(self, small_topology):
        sim = make_simulator(small_topology)
        policy = StaticEPPolicy(small_topology, 8, 2, EXPERT_BYTES)
        result = sim.simulate_iteration(
            0, policy.decide_iteration(skewed_routing(small_topology)))
        assert result.throughput(global_tokens=8 * 8192) > 0

    def test_empty_decisions_rejected(self, small_topology):
        sim = make_simulator(small_topology)
        with pytest.raises(ValueError):
            sim.simulate_iteration(0, [])

    def test_comm_opt_off_is_slower(self, small_topology):
        cost_model = MoECostModel.from_model_config(CONFIG, small_topology)
        policy = LAERPolicy(small_topology, 8, 2, EXPERT_BYTES, cost_model)
        routing = skewed_routing(small_topology, seed=2)
        decisions = policy.decide_iteration(routing)
        with_opt = make_simulator(small_topology,
                                  schedule=CommScheduleConfig.all_enabled())
        without = make_simulator(small_topology,
                                 schedule=CommScheduleConfig.none_enabled())
        assert (without.simulate_iteration(0, decisions).total_time
                > with_opt.simulate_iteration(0, decisions).total_time)

    def test_activation_checkpointing_adds_recompute(self, small_topology):
        policy = StaticEPPolicy(small_topology, 8, 2, EXPERT_BYTES)
        decisions = policy.decide_iteration(skewed_routing(small_topology))
        plain = make_simulator(small_topology)
        ckpt = make_simulator(small_topology, activation_checkpointing=True)
        assert (ckpt.simulate_iteration(0, decisions).total_time
                > plain.simulate_iteration(0, decisions).total_time)


class TestCapacityOverflow:
    """The token-drop/recompute penalty for memory-overflowing hotspots."""

    def decisions(self, topology, seed=1):
        policy = StaticEPPolicy(topology, 8, 2, EXPERT_BYTES)
        return policy.decide_iteration(skewed_routing(topology, seed=seed))

    def test_off_by_default(self, small_topology):
        sim = make_simulator(small_topology)
        result = sim.simulate_iteration(0, self.decisions(small_topology))
        assert "overflow" not in result.breakdown
        assert all(layer.overflow_time == 0.0 for layer in result.layers)

    def test_penalty_charges_overflowing_tokens(self, small_topology):
        decisions = self.decisions(small_topology)
        plain = make_simulator(small_topology)
        base = plain.simulate_iteration(0, decisions)
        # A capacity below the hottest device's routed tokens must overflow.
        capacity = max(layer.max_tokens for layer in base.layers) // 2
        charged = make_simulator(small_topology, overflow_penalty=1.0,
                                 token_capacity=capacity)
        result = charged.simulate_iteration(0, decisions)
        assert result.total_time > base.total_time
        assert result.breakdown["overflow"] > 0.0
        assert any(layer.overflow_tokens > 0 for layer in result.layers)
        # The charge scales linearly with the penalty factor.
        double = make_simulator(small_topology, overflow_penalty=2.0,
                                token_capacity=capacity)
        assert double.simulate_iteration(0, decisions).breakdown["overflow"] \
            == pytest.approx(2 * result.breakdown["overflow"])

    def test_no_overflow_below_capacity(self, small_topology):
        decisions = self.decisions(small_topology)
        plain = make_simulator(small_topology)
        base = plain.simulate_iteration(0, decisions)
        roomy = make_simulator(small_topology, overflow_penalty=1.0,
                               token_capacity=10 ** 9)
        result = roomy.simulate_iteration(0, decisions)
        assert result.total_time == pytest.approx(base.total_time)
        assert result.breakdown["overflow"] == 0.0

    def test_capacity_derived_from_device_memory(self, small_topology):
        for paradigm, kwargs in (("fsep", {}), ("fsdp_ep", {"ep_size": 4}),
                                 ("megatron", {"ep_size": 4, "tp_size": 2})):
            sim = make_simulator(small_topology, paradigm,
                                 overflow_penalty=1.0, **kwargs)
            assert sim.device_token_capacity() > 0
        pinned = make_simulator(small_topology, overflow_penalty=1.0,
                                token_capacity=123)
        assert pinned.device_token_capacity() == 123

    def test_derived_capacity_is_in_routed_token_units(self):
        """The routing plan's per-device sums count top_k routed copies per
        input token, so the memory-derived budget must carry the same
        factor: a memory-feasible, perfectly balanced workload must not
        read as overflowing."""
        from repro.cluster.memory import MemoryModel
        from repro.cluster.topology import ClusterTopology

        # Big enough that Mixtral-8x7B's sharded states genuinely fit.
        topology = ClusterTopology(num_nodes=8, devices_per_node=8)
        sim = make_simulator(topology, overflow_penalty=1.0)
        memory = MemoryModel(CONFIG, topology, activation_checkpointing=False)
        input_budget = memory.max_tokens_per_device("fsep")
        assert input_budget >= 8192  # the config is memory-feasible here
        assert sim.device_token_capacity() == input_budget * CONFIG.top_k
        # Balanced routing at the simulator's own tokens_per_device (well
        # within memory) must charge zero overflow.
        policy = StaticEPPolicy(topology, 8, 2, EXPERT_BYTES)
        decisions = policy.decide_iteration(balanced_routing(
            topology.num_devices, 8, 8192, 2, num_layers=2).iteration(0))
        result = sim.simulate_iteration(0, decisions)
        assert result.breakdown["overflow"] == 0.0

    def test_model_switch_and_serialized_keys(self):
        off = OverflowModel()
        assert not off.active and off.to_dict() == {}
        # A pinned capacity alone compares nothing against it.
        assert not OverflowModel(token_capacity=1024).active
        assert OverflowModel(overflow_penalty=0.5).active
        assert OverflowModel(drop_policy="truncate").active
        assert OverflowModel(0.0, 1024, "recompute").to_dict() == {
            "token_capacity": 1024, "drop_policy": "recompute"}

    def test_validation(self):
        with pytest.raises(ValueError, match="overflow_penalty"):
            OverflowModel(overflow_penalty=-1.0)
        with pytest.raises(ValueError, match="token_capacity"):
            OverflowModel(token_capacity=0)


class TestDropPolicies:
    """Paper-faithful alternatives to the linear overflow penalty."""

    def decisions(self, topology, seed=1):
        policy = StaticEPPolicy(topology, 8, 2, EXPERT_BYTES)
        return policy.decide_iteration(skewed_routing(topology, seed=seed))

    def overflowing_capacity(self, topology, decisions):
        base = make_simulator(topology).simulate_iteration(0, decisions)
        return max(layer.max_tokens for layer in base.layers) // 2

    def test_truncate_drops_tokens_instead_of_charging(self, small_topology):
        decisions = self.decisions(small_topology)
        base = make_simulator(small_topology).simulate_iteration(0, decisions)
        capacity = self.overflowing_capacity(small_topology, decisions)
        sim = make_simulator(small_topology, drop_policy="truncate",
                             token_capacity=capacity)
        result = sim.simulate_iteration(0, decisions)
        # Clamping the hottest device's compute makes the step *faster*:
        # truncation trades quality (dropped tokens) for time.
        assert result.total_time < base.total_time
        assert result.breakdown["overflow"] == 0.0
        assert any(layer.dropped_tokens > 0 for layer in result.layers)
        assert all(layer.overflow_time == 0.0 for layer in result.layers)

    def test_truncate_activates_capacity_without_penalty(self, small_topology):
        decisions = self.decisions(small_topology)
        capacity = self.overflowing_capacity(small_topology, decisions)
        # No overflow_penalty set: the non-default policy alone turns the
        # capacity model on.
        sim = make_simulator(small_topology, drop_policy="truncate",
                             token_capacity=capacity)
        result = sim.simulate_iteration(0, decisions)
        assert "overflow" in result.breakdown
        assert any(layer.overflow_tokens > 0 for layer in result.layers)

    def test_truncate_is_noop_below_capacity(self, small_topology):
        decisions = self.decisions(small_topology)
        base = make_simulator(small_topology).simulate_iteration(0, decisions)
        sim = make_simulator(small_topology, drop_policy="truncate",
                             token_capacity=10 ** 9)
        result = sim.simulate_iteration(0, decisions)
        assert result.total_time == pytest.approx(base.total_time)
        assert all(layer.dropped_tokens == 0 for layer in result.layers)

    def test_recompute_charges_overflow_at_unit_cost(self, small_topology):
        decisions = self.decisions(small_topology)
        base = make_simulator(small_topology).simulate_iteration(0, decisions)
        capacity = self.overflowing_capacity(small_topology, decisions)
        sim = make_simulator(small_topology, drop_policy="recompute",
                             token_capacity=capacity)
        result = sim.simulate_iteration(0, decisions)
        assert result.total_time > base.total_time
        assert result.breakdown["overflow"] > 0.0
        assert all(layer.dropped_tokens == 0 for layer in result.layers)
        # Recompute is the linear penalty at factor 1.0, bit for bit ...
        unit = make_simulator(small_topology, overflow_penalty=1.0,
                              token_capacity=capacity)
        # ... and ignores the penalty factor entirely.
        scaled = make_simulator(small_topology, drop_policy="recompute",
                                overflow_penalty=3.0, token_capacity=capacity)
        for other in (unit, scaled):
            same = other.simulate_iteration(0, decisions)
            assert same.total_time == result.total_time
            assert same.breakdown == result.breakdown
            assert ([layer.overflow_time for layer in same.layers]
                    == [layer.overflow_time for layer in result.layers])

    def test_policies_rank_consistently(self, small_topology):
        decisions = self.decisions(small_topology)
        capacity = self.overflowing_capacity(small_topology, decisions)
        times = {}
        for policy in ("truncate", "recompute"):
            sim = make_simulator(small_topology, drop_policy=policy,
                                 token_capacity=capacity)
            times[policy] = sim.simulate_iteration(0, decisions).total_time
        assert times["truncate"] < times["recompute"]

    def test_validation(self):
        with pytest.raises(ValueError, match="drop_policy"):
            OverflowModel(drop_policy="discard")
