"""Tests for the planner's joint cost model (Sec. 3.2)."""

import numpy as np
import pytest

from repro.api import WorkloadSpec
from repro.baselines.base import PolicyDecision
from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel
from repro.core.layout import static_ep_layout
from repro.core.lite_routing import lite_route, lite_route_batch
from repro.core.relocation import relocate_experts
from repro.core.routing_plan import RoutingPlan
from repro.sim.iteration import IterationSimulator
from repro.workloads.model_configs import get_model_config, tiny_test_config

from helpers import PerturbingTuner


@pytest.fixture
def cost_model(small_topology):
    return MoECostModel.from_model_config(tiny_test_config(), small_topology)


def balanced_plan(n=8, e=8, tokens=64):
    """Every device keeps its tokens locally, evenly over experts (dense)."""
    plan = np.zeros((n, e, n), dtype=np.int64)
    for device in range(n):
        plan[device, :, device] = tokens // e
    return plan


compact = RoutingPlan.from_dense


def comm_time(cost_model, plan):
    return cost_model.evaluate(compact(plan)).comm_time


def comp_time(cost_model, plan):
    return cost_model.evaluate(compact(plan)).comp_time


class TestCostTerms:
    def test_local_plan_has_zero_comm(self, cost_model):
        assert comm_time(cost_model, balanced_plan()) == 0.0

    def test_remote_plan_has_positive_comm(self, cost_model):
        plan = balanced_plan()
        plan[0, 0, 0] = 0
        plan[0, 0, 7] = 8
        assert comm_time(cost_model, plan) > 0.0

    def test_inter_node_costs_more_than_intra(self, cost_model):
        intra = np.zeros((8, 8, 8), dtype=np.int64)
        intra[0, 0, 1] = 100
        inter = np.zeros((8, 8, 8), dtype=np.int64)
        inter[0, 0, 4] = 100
        assert comm_time(cost_model, inter) > comm_time(cost_model, intra)

    def test_comp_time_uses_max_device(self, cost_model):
        plan = balanced_plan()
        base = comp_time(cost_model, plan)
        plan[0, 0, 0] += 1000
        assert comp_time(cost_model, plan) > base

    def test_comp_time_checkpointing_factor(self, small_topology):
        config = tiny_test_config()
        plain = MoECostModel.from_model_config(config, small_topology)
        ckpt = MoECostModel.from_model_config(config, small_topology,
                                              activation_checkpointing=True)
        plan = balanced_plan()
        assert comp_time(ckpt, plan) == pytest.approx(
            4 / 3 * comp_time(plain, plan))

    def test_tokens_per_device(self, cost_model):
        cost = cost_model.evaluate(compact(balanced_plan(tokens=64)))
        assert np.all(cost.tokens_per_device == 64)

    def test_evaluate_consistency(self, cost_model):
        plan = compact(balanced_plan())
        breakdown = cost_model.evaluate(plan)
        assert breakdown.total == pytest.approx(
            breakdown.comm_time + breakdown.comp_time)
        assert breakdown.max_tokens == 64

    def test_plan_validation(self, cost_model):
        with pytest.raises(ValueError):
            cost_model.evaluate(compact(np.zeros((3, 3, 3))))
        bad = balanced_plan()
        bad[0, 0, 0] = -1
        with pytest.raises(ValueError):
            compact(bad)


class TestConstraints:
    def test_valid_plan_passes(self, small_topology, cost_model):
        routing = np.random.default_rng(0).integers(
            0, 50, size=(8, 8)).astype(np.int64)
        layout = static_ep_layout(8, 8, 2)
        plan = lite_route(routing, layout, small_topology)
        cost_model.check_constraints(layout, plan, routing)

    def test_conservation_violation_detected(self, small_topology, cost_model):
        routing = np.full((8, 8), 10, dtype=np.int64)
        layout = static_ep_layout(8, 8, 2)
        plan = lite_route(routing, layout, small_topology).to_dense()
        plan[0, 0, :] = 0
        with pytest.raises(ValueError, match="conserve"):
            cost_model.check_constraints(layout, compact(plan), routing)

    def test_placement_violation_detected(self, small_topology, cost_model):
        routing = np.full((8, 8), 10, dtype=np.int64)
        layout = static_ep_layout(8, 8, 2)
        plan = lite_route(routing, layout, small_topology).to_dense()
        # Send expert 0 tokens to a device that does not host expert 0.
        bad_device = [d for d in range(8) if layout.assignment[d, 0] == 0][0]
        plan[0, 0, :] = 0
        plan[0, 0, bad_device] = 10
        with pytest.raises(ValueError, match="does not host"):
            cost_model.check_constraints(layout, compact(plan), routing)


class TestConstruction:
    def test_from_model_config_fields(self, paper_topology):
        config = get_model_config("mixtral-8x7b-e8k2")
        model = MoECostModel.from_model_config(config, paper_topology)
        assert model.comm_bytes_per_token == config.hidden_size * 2
        assert model.compute_flops_per_token == config.expert_flops_per_token
        assert model.comm_bytes_scale == 1.0
        # The calibrated overhead scales each pair's bytes, as the
        # simulator applies it, not the bytes per token.
        calibrated = MoECostModel.from_model_config(
            config, paper_topology, comm_bytes_scale=1.1)
        assert calibrated.comm_bytes_per_token == config.hidden_size * 2
        assert calibrated.comm_bytes_scale == 1.1

    def test_validation(self, small_topology):
        with pytest.raises(ValueError):
            MoECostModel(small_topology, comm_bytes_per_token=-1,
                         compute_flops_per_token=1, device_flops=1)
        with pytest.raises(ValueError):
            MoECostModel(small_topology, comm_bytes_per_token=1,
                         compute_flops_per_token=0, device_flops=1)
        with pytest.raises(ValueError, match="comm_bytes_scale"):
            MoECostModel(small_topology, comm_bytes_per_token=1,
                         compute_flops_per_token=1, device_flops=1,
                         comm_bytes_scale=0.0)

    def test_bytes_per_token_must_be_whole(self, small_topology):
        """Closed-form lite routing prices whole bytes per token exactly."""
        with pytest.raises(ValueError, match="whole number"):
            MoECostModel(small_topology, comm_bytes_per_token=1.5,
                         compute_flops_per_token=1, device_flops=1)
        assert MoECostModel(small_topology, comm_bytes_per_token=8192.0,
                            compute_flops_per_token=1,
                            device_flops=1).comm_bytes_per_token == 8192


class TestEvaluateBatch:
    def test_batch_matches_scalar_bitwise(self, small_topology,
                                          small_cost_model):
        rng = np.random.default_rng(17)
        plans = [compact(plan) for plan in rng.integers(
            0, 300, size=(5, 8, 8, 8))]
        batched = small_cost_model.evaluate_batch(plans)
        for index in range(len(plans)):
            scalar = small_cost_model.evaluate(plans[index])
            assert batched[index].comm_time == scalar.comm_time
            assert batched[index].comp_time == scalar.comp_time
            assert batched[index].total == scalar.total

    def test_batch_shape_validation(self, small_cost_model):
        with pytest.raises(ValueError):
            small_cost_model.evaluate_batch([])
        with pytest.raises(ValueError):
            small_cost_model.evaluate_batch(
                [compact(np.zeros((8, 8, 8))), compact(np.zeros((7, 8, 7)))])
        with pytest.raises(ValueError):
            small_cost_model.evaluate_batch([compact(np.zeros((7, 8, 7)))])


def stable_ranks(values: np.ndarray) -> np.ndarray:
    ranks = np.empty(len(values))
    ranks[np.argsort(values, kind="stable")] = np.arange(len(values))
    return ranks


class TestAgreesWithSimulator:
    """The planner's ``T_comm`` is four times the token All-to-All that the
    simulator charges for the same plan, so on every frame, at every cluster
    size, the cost model must pick the candidate layout the simulator finds
    fastest: a disagreeing argmin means the planner optimises a cost it is
    not charged.  Each frame's candidates are the pq and even schemes and
    seeded perturbations of them."""

    @pytest.mark.parametrize("nodes,num_candidates,iterations", [
        (4, 12, 16), (32, 12, 8), (128, 6, 6)],
        ids=["4x8", "32x8", "128x8"])
    def test_cost_model_ranks_candidates_like_the_simulator(
            self, nodes, num_candidates, iterations):
        config = get_model_config("mixtral-8x7b-e8k2")
        topology = ClusterTopology(num_nodes=nodes, devices_per_node=8)
        cost_model = MoECostModel.from_model_config(config, topology)
        capacity = config.expert_capacity
        misses, correlations = [], []
        for scenario in ("steady", "drifting", "bursty-churn", "phase-shift"):
            workload = WorkloadSpec(scenario=scenario, iterations=iterations,
                                    seed=0)
            simulator = IterationSimulator(
                config=config, topology=topology,
                tokens_per_device=workload.tokens_per_device, paradigm="fsep")
            frames = list(workload.make_source(
                topology.num_devices).iter_iterations())[workload.warmup:]
            for index, frame in enumerate(frames):
                routing = frame[0]
                loads = routing.sum(axis=0)
                tuner = PerturbingTuner(topology, cost_model, capacity,
                                        candidates=num_candidates)
                layouts = [relocate_experts(replicas, loads, topology,
                                            capacity)
                           for replicas in tuner.candidate_replica_schemes(
                               loads, routing.shape[1])]
                assert len(layouts) == num_candidates
                plans = lite_route_batch(routing, layouts, topology)
                costs = np.array([cost.total for cost in
                                  cost_model.evaluate_batch(plans)])
                times = np.array([
                    simulator.simulate_iteration(
                        0, [PolicyDecision(layout, plan)]).layers[0].total_time
                    for layout, plan in zip(layouts, plans)])
                pick = times[int(np.argmin(costs))]
                if pick != times.min():
                    misses.append((scenario, index, pick / times.min() - 1.0))
                if np.ptp(costs) == 0 or np.ptp(times) == 0:
                    correlations.append(1.0)
                else:
                    correlations.append(float(np.corrcoef(
                        stable_ranks(costs), stable_ranks(times))[0, 1]))
        assert len(correlations) == 4 * iterations
        # Measured: every argmin agrees and every rank correlation is 1.0
        # at all three sizes.  The serial-sum T_comm this model replaced
        # missed 2 of 64, 4 of 32 and 3 of 24 (worst regret 0.90%, 5.6%
        # and 28.7%).
        assert misses == []
        assert np.mean(correlations) >= 0.90
