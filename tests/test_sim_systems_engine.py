"""Tests for the system specs and the trace-driven run simulator."""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.sim.engine import compare_systems
from repro.sim.systems import available_systems, choose_megatron_tp, make_system
from repro.workloads.model_configs import get_model_config
from repro.workloads.routing_traces import RoutingTraceConfig
from repro.workloads.scenarios import SyntheticTraceSource

CONFIG = get_model_config("mixtral-8x7b-e8k2")


@pytest.fixture(scope="module")
def topology():
    return ClusterTopology(num_nodes=2, devices_per_node=4)


@pytest.fixture(scope="module")
def trace(topology):
    config = RoutingTraceConfig(
        num_devices=topology.num_devices, num_experts=8, num_layers=2,
        tokens_per_device=8192, top_k=2, skew=0.4, seed=21)
    return SyntheticTraceSource(config, 8).materialize()


class TestSystemFactory:
    def test_all_listed_systems_buildable(self, topology):
        for name in available_systems():
            system = make_system(name, CONFIG, topology, tokens_per_device=8192)
            assert system.name == name
            assert system.simulator.tokens_per_device == 8192

    def test_unknown_system_rejected(self, topology):
        with pytest.raises(ValueError):
            make_system("deepspeed", CONFIG, topology, 8192)

    def test_megatron_uses_tensor_parallelism(self, topology):
        system = make_system("megatron", CONFIG, topology, 8192)
        assert system.paradigm == "megatron"
        assert system.tp_size >= 2

    def test_laer_uses_fsep(self, topology):
        system = make_system("laer", CONFIG, topology, 8192)
        assert system.paradigm == "fsep"
        assert system.policy.name == "laer-moe"

    def test_choose_megatron_tp_larger_for_bigger_models(self, paper_topology):
        e8k2 = choose_megatron_tp(get_model_config("mixtral-8x7b-e8k2"),
                                  paper_topology, 16384)
        e16k4 = choose_megatron_tp(get_model_config("mixtral-8x7b-e16k4"),
                                   paper_topology, 16384)
        assert e8k2 >= e16k4

    def test_ablation_variants_differ_in_config(self, topology):
        pq = make_system("laer_pq_only", CONFIG, topology, 8192)
        even = make_system("laer_even_only", CONFIG, topology, 8192)
        no_opt = make_system("laer_no_comm_opt", CONFIG, topology, 8192)
        assert pq.policy.planner.tuner.config.use_even is False
        assert even.policy.planner.tuner.config.use_priority_queue is False
        assert no_opt.simulator.schedule.relaxed_prefetch is False


def run_alone(system, trace, warmup):
    return compare_systems([system], trace, warmup=warmup)[system.name]


class TestRunSimulator:
    def test_run_produces_iterations(self, topology, trace):
        system = make_system("fsdp_ep", CONFIG, topology, 8192)
        result = run_alone(system, trace, warmup=2)
        assert result.num_iterations == 6
        assert result.mean_iteration_time > 0
        assert result.throughput > 0

    def test_warmup_validation(self, topology, trace):
        system = make_system("fsdp_ep", CONFIG, topology, 8192)
        with pytest.raises(ValueError):
            run_alone(system, trace, warmup=100)

    def test_breakdown_fractions_sum_to_about_one(self, topology, trace):
        system = make_system("fsdp_ep", CONFIG, topology, 8192)
        result = run_alone(system, trace, warmup=1)
        assert sum(result.breakdown_fractions().values()) == pytest.approx(1.0,
                                                                           abs=0.05)


class TestPaperClaims:
    """End-to-end claims of the paper, checked on a small cluster."""

    @pytest.fixture(scope="class")
    def results(self, topology, trace):
        systems = [make_system(name, CONFIG, topology, 8192)
                   for name in ("megatron", "fsdp_ep", "flexmoe", "laer", "oracle")]
        return compare_systems(systems, trace, warmup=2)

    def test_laer_faster_than_all_baselines(self, results):
        laer = results["laer"].throughput
        assert laer > results["megatron"].throughput
        assert laer > results["fsdp_ep"].throughput
        assert laer > results["flexmoe"].throughput

    def test_laer_speedup_in_paper_range(self, results):
        """Fig. 8: up to 1.69x over Megatron, 1.50x over FSDP+EP."""
        laer = results["laer"].throughput
        speedup_megatron = laer / results["megatron"].throughput
        speedup_fsdp = laer / results["fsdp_ep"].throughput
        assert 1.1 < speedup_megatron < 2.2
        assert 1.1 < speedup_fsdp < 2.0

    def test_laer_close_to_oracle(self, results):
        assert (results["oracle"].throughput
                / results["laer"].throughput) < 1.15

    def test_all_to_all_fraction_drops(self, results):
        """Fig. 1(b) / Fig. 10(a): imbalance inflates the A2A share above 40%,
        LAER brings it below ~20-25%."""
        assert results["fsdp_ep"].all_to_all_fraction() > 0.30
        assert results["laer"].all_to_all_fraction() < 0.25

    def test_relative_max_tokens_near_one_for_laer(self, results):
        """Fig. 10(b): LAER stays close to the perfect-balance line."""
        assert results["laer"].mean_relative_max_tokens() < 1.5
        assert (results["fsdp_ep"].mean_relative_max_tokens()
                > results["laer"].mean_relative_max_tokens())
