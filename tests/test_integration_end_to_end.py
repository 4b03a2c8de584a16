"""Cross-module integration tests tying the reproduction together.

These tests walk the same paths the benchmark harness uses: extract a routing
trace from a real (small) training run, feed it through the planner and the
iteration simulator, and check the paper's qualitative claims end to end.
"""

import numpy as np
import pytest

from repro.analysis.breakdown import breakdown_table_from_runs
from repro.cluster.topology import ClusterTopology
from repro.sim.engine import compare_systems
from repro.sim.systems import make_system
from repro.training.trainer import Trainer, TrainerConfig
from repro.workloads.datasets import SyntheticTextDataset, WIKITEXT_LIKE
from repro.workloads.model_configs import get_model_config, tiny_test_config
from repro.workloads.routing_traces import RoutingTrace


@pytest.fixture(scope="module")
def training_trace():
    """A routing trace extracted from an actual small training run."""
    dataset = SyntheticTextDataset(WIKITEXT_LIKE)
    trainer = Trainer(tiny_test_config(),
                      TrainerConfig(batch_size=4, seq_length=32, num_devices=8,
                                    learning_rate=3e-3, seed=11),
                      dataset)
    result = trainer.train(6)
    return result.routing_trace


class TestTraceToSimulatorPipeline:
    def test_extracted_trace_is_consumable(self, training_trace):
        assert isinstance(training_trace, RoutingTrace)
        assert training_trace.num_devices == 8
        assert training_trace.num_experts == 8

    def test_real_trace_shows_imbalance(self, training_trace):
        """Fig. 1(a): real gating produces imbalanced expert loads."""
        assert training_trace.mean_imbalance() > 1.15

    def test_systems_run_on_real_trace(self, training_trace):
        # Scale the small run's routing counts up to a production batch size so
        # the overlap condition (Eq. 1) holds, then compare the systems.
        trace = training_trace.scaled(512)
        topology = ClusterTopology(num_nodes=2, devices_per_node=4)
        config = get_model_config("mixtral-8x7b-e8k2")
        systems = [make_system(name, config, topology,
                               tokens_per_device=trace.tokens_per_device)
                   for name in ("fsdp_ep", "laer")]
        results = compare_systems(systems, trace, warmup=1)
        assert results["laer"].throughput >= results["fsdp_ep"].throughput * 0.95

    def test_breakdown_table_from_real_trace(self, training_trace):
        trace = training_trace.scaled(512)
        topology = ClusterTopology(num_nodes=2, devices_per_node=4)
        config = get_model_config("mixtral-8x7b-e8k2")
        systems = [make_system(name, config, topology,
                               tokens_per_device=trace.tokens_per_device)
                   for name in ("fsdp_ep", "flexmoe", "laer")]
        results = compare_systems(systems, trace, warmup=1)
        table = breakdown_table_from_runs(results)
        rows = table.as_rows()
        assert {row["system"] for row in rows} == {"fsdp_ep", "flexmoe", "laer"}
        assert table.all_to_all_fraction("laer") <= table.all_to_all_fraction(
            "fsdp_ep") + 1e-9


class TestScalabilityClaim:
    def test_speedup_stable_across_cluster_sizes(self):
        """Table 4: the MLP speedup stays roughly constant from 8 to 32+ GPUs."""
        from repro.workloads.routing_traces import RoutingTraceConfig
        from repro.workloads.scenarios import SyntheticTraceSource
        config = get_model_config("mixtral-8x7b-e8k2")
        base = SyntheticTraceSource(RoutingTraceConfig(
            num_devices=8, num_experts=8, num_layers=2, tokens_per_device=8192,
            top_k=2, skew=0.4, seed=31), 6).materialize()
        speedups = []
        for num_devices in (8, 16, 32):
            topology = ClusterTopology.homogeneous(num_devices, devices_per_node=8)
            trace = base.remap_devices(num_devices)
            systems = [make_system(name, config, topology, tokens_per_device=8192)
                       for name in ("fsdp_ep", "laer")]
            results = compare_systems(systems, trace, warmup=1)
            speedups.append(results["laer"].throughput
                            / results["fsdp_ep"].throughput)
        assert all(s > 1.0 for s in speedups)
        assert max(speedups) - min(speedups) < 0.45


class TestAnalysisConsistency:
    def test_volume_ratio_example_matches_simulator(self):
        """The closed-form FSEP/FSDP ratio agrees with the simulator's costs."""
        topology = ClusterTopology.paper_cluster()
        config = get_model_config("mixtral-8x7b-e8k2")
        fsep_system = make_system("laer", config, topology, 16384)
        fsdp_system = make_system("fsdp_ep", config, topology, 16384)
        sim_ratio = (fsep_system.simulator.prefetch_time()
                     / fsdp_system.simulator.prefetch_time())
        # Sec. 3.1: V_fsep / V_fsdp = (P_fsep - 1) * P_fsdp / (P_fsep * (P_fsdp - 1)).
        analytic = (32 - 1) * 8 / (32 * (8 - 1))
        assert sim_ratio == pytest.approx(analytic, rel=0.35)
