"""Tests for streaming engine consumption, comparisons and resets."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.layout_tuner import TunerConfig
from repro.baselines.laer import LAERPolicy
from repro.sim.engine import RunResult, TrainingRunSimulator, compare_systems
from repro.sim.iteration import IterationResult, LayerResult
from repro.sim.systems import SystemBuildContext, available_systems, make_system
from repro.workloads.model_configs import get_model_config
from repro.workloads.scenarios import ScenarioContext, make_scenario

CONFIG = get_model_config("mixtral-8x7b-e8k2")


@pytest.fixture(scope="module")
def topology():
    return ClusterTopology(num_nodes=1, devices_per_node=4)


@pytest.fixture(scope="module")
def context(topology):
    return ScenarioContext(
        num_devices=topology.num_devices, num_experts=CONFIG.num_experts,
        num_layers=2, tokens_per_device=2048, top_k=CONFIG.top_k,
        iterations=6, seed=13)


def _assert_runs_identical(a: RunResult, b: RunResult) -> None:
    assert a.num_iterations == b.num_iterations
    assert a.tokens_per_iteration == b.tokens_per_iteration
    assert a.mean_iteration_time == b.mean_iteration_time
    assert a.throughput == b.throughput
    assert a.mean_breakdown() == b.mean_breakdown()
    assert a.mean_relative_max_tokens() == b.mean_relative_max_tokens()
    assert (a.per_layer_relative_max_tokens()
            == b.per_layer_relative_max_tokens())


class TestStreaming:
    @pytest.mark.parametrize("system_name", ["fsdp_ep", "laer", "fastermoe"])
    def test_streamed_equals_materialized(self, topology, context,
                                          system_name):
        """Same seed => bit-identical RunResult, streamed or materialized."""
        source = make_scenario("bursty-churn", context)
        system = make_system(system_name, CONFIG, topology, 2048)
        streamed = TrainingRunSimulator(system).run(source, warmup=1)
        materialized = TrainingRunSimulator(system).run(
            source.materialize(), warmup=1)
        _assert_runs_identical(streamed, materialized)

    def test_warmup_validation(self, topology, context):
        source = make_scenario("drifting", context)
        system = make_system("fsdp_ep", CONFIG, topology, 2048)
        with pytest.raises(ValueError, match="warmup leaves no iterations"):
            TrainingRunSimulator(system).run(source, warmup=99)


class TestCompareSystems:
    def test_results_do_not_depend_on_system_order(self, topology, context):
        # Every system consumes its own fork of the workload, so running the
        # systems in reverse order changes no result.
        source = make_scenario("phase-shift", context)
        names = ("megatron", "fsdp_ep", "flexmoe", "laer")

        def build(order):
            return [make_system(name, CONFIG, topology, 2048)
                    for name in order]

        forward = compare_systems(build(names), source, warmup=1)
        backward = compare_systems(build(names[::-1]), source, warmup=1)
        assert list(forward) == list(names)
        for name in names:
            _assert_runs_identical(forward[name], backward[name])


class TestDegenerateResults:
    def test_zero_iterations_throughput_is_zero(self):
        empty = RunResult(system="empty", tokens_per_iteration=1000)
        assert empty.throughput == 0.0

    def test_zero_time_throughput_is_zero(self):
        degenerate = RunResult(system="degenerate", tokens_per_iteration=1000)
        degenerate.add(IterationResult(iteration=0, total_time=0.0,
                                       breakdown={}, layers=[]))
        assert degenerate.mean_iteration_time == 0.0
        assert degenerate.throughput == 0.0

    def test_zero_time_iteration_throughput_is_zero(self):
        iteration = IterationResult(iteration=0, total_time=0.0,
                                    breakdown={}, layers=[])
        assert iteration.throughput(global_tokens=1000) == 0.0

    def test_speedup_over_handles_degenerate_pairs(self):
        layer = LayerResult(layer=0, forward_time=1.0, backward_time=1.0,
                            attention_time=0.5, expert_compute_time=1.0,
                            all_to_all_time=0.4, exposed_comm_time=0.1,
                            relayout_time=0.0, max_tokens=10,
                            ideal_tokens=10.0)
        real = RunResult(system="real", tokens_per_iteration=1000)
        real.add(IterationResult(iteration=0, total_time=2.0,
                                 breakdown={"expert_compute": 2.0},
                                 layers=[layer]))
        empty_a = RunResult(system="a", tokens_per_iteration=1000)
        empty_b = RunResult(system="b", tokens_per_iteration=1000)
        assert empty_a.speedup_over(empty_b) == 1.0   # both degenerate
        assert real.speedup_over(empty_a) == float("inf")
        assert empty_a.speedup_over(real) == 0.0
        assert real.speedup_over(real) == 1.0


class TestResetRegression:
    def test_back_to_back_runs_identical_for_every_system(self, topology,
                                                          context):
        """reset() must clear *all* adaptive state, not just the counter."""
        source = make_scenario("bursty-churn", context)
        for name in available_systems():
            system = make_system(name, CONFIG, topology, 2048)
            simulator = TrainingRunSimulator(system)
            first = simulator.run(source, warmup=1)
            second = simulator.run(source, warmup=1)
            _assert_runs_identical(first, second)

    def test_laer_perturbation_rng_reset_between_runs(self, topology,
                                                      context):
        """A tuner that consumes its perturbation RNG still repeats exactly."""
        source = make_scenario("drifting", context)
        ctx = SystemBuildContext(name="laer_rng", config=CONFIG,
                                 topology=topology, tokens_per_device=2048)
        policy = LAERPolicy(*ctx.policy_args(), ctx.cost_model(),
                            tuner_config=TunerConfig(num_candidates=5))
        system = ctx.build(policy)
        simulator = TrainingRunSimulator(system)
        state_before = policy.planner.tuner._rng.bit_generator.state
        first = simulator.run(source, warmup=1)
        # The run consumed perturbation draws; a reset must restore the seed.
        system.reset()
        assert (policy.planner.tuner._rng.bit_generator.state
                == state_before)
        second = simulator.run(source, warmup=1)
        _assert_runs_identical(first, second)
