"""Tests for streaming engine consumption, comparisons and resets."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.layout_tuner import TunerConfig
from repro.baselines.laer import LAERPolicy
from repro.baselines.static_ep import StaticEPPolicy
from repro.sim.engine import RunResult, compare_systems
from repro.sim.iteration import IterationResult
from repro.sim.systems import SystemBuildContext, available_systems, make_system
from repro.workloads import routing_traces, scenarios
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


def _run_alone(system, workload, warmup: int) -> RunResult:
    return compare_systems([system], workload, warmup=warmup)[system.name]


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
        streamed = _run_alone(system, source, warmup=1)
        materialized = _run_alone(system, source.materialize(), warmup=1)
        _assert_runs_identical(streamed, materialized)

    def test_warmup_validation(self, topology, context):
        source = make_scenario("drifting", context)
        system = make_system("fsdp_ep", CONFIG, topology, 2048)
        with pytest.raises(ValueError, match="warmup leaves no iterations"):
            _run_alone(system, source, warmup=99)


class TestCompareSystems:
    def test_results_do_not_depend_on_system_order(self, topology, context):
        # Systems share nothing but the read-only frame, so running the
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

    def test_lockstep_equals_each_system_alone(self, topology, context):
        source = make_scenario("bursty-churn", context)
        names = available_systems()
        together = compare_systems(
            [make_system(name, CONFIG, topology, 2048) for name in names],
            source, warmup=1)
        assert list(together) == list(names)
        for name in names:
            alone = _run_alone(make_system(name, CONFIG, topology, 2048),
                               source, warmup=1)
            _assert_runs_identical(together[name], alone)

    def test_draws_each_frame_once(self, topology, context, monkeypatch):
        draw = routing_traces.draw_routing_frame
        draws = []

        def counted(*args):
            draws.append(args)
            return draw(*args)

        for module in (routing_traces, scenarios):
            monkeypatch.setattr(module, "draw_routing_frame", counted)
        systems = [make_system(name, CONFIG, topology, 2048)
                   for name in ("fsdp_ep", "flexmoe", "laer")]
        compare_systems(systems, make_scenario("drifting", context), warmup=1)
        assert len(draws) == context.iterations

    def test_policies_get_read_only_frames(self, topology, context):
        class Scribbler(StaticEPPolicy):
            def decide_layer(self, layer, routing):
                routing[0, 0] += 1
                return super().decide_layer(layer, routing)

        ctx = SystemBuildContext(name="scribbler", config=CONFIG,
                                 topology=topology, tokens_per_device=2048)
        system = ctx.build(Scribbler(*ctx.policy_args()))
        with pytest.raises(ValueError, match="read-only"):
            compare_systems([system], make_scenario("steady", context))

    def test_a_system_runs_once_per_comparison(self, topology, context):
        system = make_system("fsdp_ep", CONFIG, topology, 2048)
        with pytest.raises(ValueError, match="only once"):
            compare_systems([system, system],
                            make_scenario("steady", context))


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


class TestResetRegression:
    def test_back_to_back_runs_identical_for_every_system(self, topology,
                                                          context):
        """reset() must clear *all* adaptive state, not just the counter."""
        source = make_scenario("bursty-churn", context)
        for name in available_systems():
            system = make_system(name, CONFIG, topology, 2048)
            first = _run_alone(system, source, warmup=1)
            second = _run_alone(system, source, warmup=1)
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
        state_before = policy.planner.tuner._rng.bit_generator.state
        first = _run_alone(system, source, warmup=1)
        # The run consumed perturbation draws; a reset must restore the seed.
        system.reset()
        assert (policy.planner.tuner._rng.bit_generator.state
                == state_before)
        second = _run_alone(system, source, warmup=1)
        _assert_runs_identical(first, second)
