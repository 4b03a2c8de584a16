"""Shared helpers for the paper-figure benchmarks.

Every ``bench_fig*``/``bench_tab*`` test regenerates one table or figure of
the paper: it runs the corresponding experiment on the simulated cluster
(or the numpy trainer), prints the same rows/series the paper reports, and
asserts the paper's qualitative shape.  ``bench_floors.py`` holds the
same-host performance floors; the absolute timings live in ``perfbench/``.

The absolute numbers differ from the paper (the substrate is an analytic
simulator, not a 32-A100 testbed), but the qualitative shape -- who wins, by
roughly what factor, where the crossovers fall -- should match.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import pytest

from repro.api import ClusterSpec, ExperimentSpec, WorkloadSpec
from repro.api.specs import SystemSpec
from repro.cluster.topology import ClusterTopology
from repro.sim.engine import RunResult, compare_systems
from repro.sim.systems import make_system
from repro.workloads.model_configs import MoEModelConfig, get_model_config
from repro.workloads.routing_traces import (
    RoutingTrace,
    RoutingTraceConfig,
    SyntheticRoutingTraceGenerator,
)

#: Tokens per device per micro-batch used across the simulator benchmarks
#: (8K context as in Sec. 5.2, two sequences per device).
TOKENS_PER_DEVICE = 16384

#: Iterations simulated per benchmark run (after warm-up).
BENCH_ITERATIONS = 8
BENCH_WARMUP = 2

#: Number of representative MoE layers carried by the synthetic traces.
TRACE_LAYERS = 4

#: Dataset name -> (trace seed, skew).  The two corpora produce slightly
#: different routing skew in practice; C4's broader distribution routes a bit
#: more evenly.
DATASET_TRACE_PARAMS = {
    "wikitext": {"seed": 101, "skew": 0.45},
    "c4": {"seed": 202, "skew": 0.6},
}

#: Auxiliary-loss weight -> extra smoothing of the routing skew.  A small
#: auxiliary loss (1e-4) mildly rebalances routing; 1e-2 rebalances strongly.
AUX_LOSS_SKEW_MULTIPLIER = {0.0: 1.0, 1e-4: 1.6, 1e-2: 8.0}


@pytest.fixture(scope="session")
def paper_cluster() -> ClusterTopology:
    """The 4-node x 8-A100 evaluation cluster."""
    return ClusterTopology.paper_cluster()


def make_trace(config: MoEModelConfig, topology: ClusterTopology,
               dataset: str = "wikitext", aux_loss_weight: float = 0.0,
               iterations: int = BENCH_ITERATIONS + BENCH_WARMUP,
               layers: int = TRACE_LAYERS) -> RoutingTrace:
    """Build the synthetic routing trace for one experimental configuration."""
    params = DATASET_TRACE_PARAMS[dataset]
    skew = params["skew"] * AUX_LOSS_SKEW_MULTIPLIER.get(aux_loss_weight, 1.0)
    generator = SyntheticRoutingTraceGenerator(RoutingTraceConfig(
        num_devices=topology.num_devices,
        num_experts=config.num_experts,
        num_layers=layers,
        tokens_per_device=TOKENS_PER_DEVICE,
        top_k=config.top_k,
        skew=skew,
        # Hot experts drift gradually across iterations (Fig. 1a); abrupt
        # whole-distribution churn is disabled here because every adaptive
        # system (LAER-MoE included) necessarily lags one iteration behind it.
        drift=0.08,
        churn_prob=0.0,
        seed=params["seed"],
    ))
    return generator.generate(iterations)


def run_systems(system_names: Sequence[str], config: MoEModelConfig,
                topology: ClusterTopology, trace: RoutingTrace
                ) -> Dict[str, RunResult]:
    """Simulate several systems over one trace."""
    systems = [make_system(name, config, topology, TOKENS_PER_DEVICE)
               for name in system_names]
    return compare_systems(systems, trace, warmup=BENCH_WARMUP)


def experiment_spec(model: str, systems: Sequence[Union[str, SystemSpec]],
                    reference: str, topology: ClusterTopology,
                    dataset: str = "wikitext", aux_loss_weight: float = 0.0,
                    name: str = "benchmark") -> ExperimentSpec:
    """Build the declarative spec for one benchmark configuration.

    Mirrors :func:`make_trace` exactly (same seeds, skew and drift per
    dataset/aux-loss scenario) so spec-driven benchmarks reproduce the
    numbers of the hand-wired pipeline they replaced.
    """
    params = DATASET_TRACE_PARAMS[dataset]
    skew = params["skew"] * AUX_LOSS_SKEW_MULTIPLIER.get(aux_loss_weight, 1.0)
    return ExperimentSpec(
        name=name,
        cluster=ClusterSpec.from_topology(topology),
        workload=WorkloadSpec(
            model=model,
            tokens_per_device=TOKENS_PER_DEVICE,
            layers=TRACE_LAYERS,
            iterations=BENCH_ITERATIONS,
            warmup=BENCH_WARMUP,
            skew=skew,
            drift=0.08,
            churn_prob=0.0,
            seed=params["seed"],
        ),
        systems=tuple(systems),
        reference=reference,
    )


def model_configs(names: Sequence[str]) -> List[MoEModelConfig]:
    return [get_model_config(name) for name in names]
