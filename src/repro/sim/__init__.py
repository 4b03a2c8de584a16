"""Analytic iteration simulator.

Turns a (model configuration, cluster topology, training system, routing
trace) tuple into per-iteration times and component breakdowns:

* :mod:`repro.sim.iteration` -- the per-iteration cost assembly: attention,
  token All-to-All, expert computation (after load balancing), parameter
  prefetch, gradient synchronisation and re-layout overheads.
* :mod:`repro.sim.systems` -- the decorator-based registry of training
  systems compared in the paper (Megatron, FSDP+EP, FlexMoE, LAER-MoE, plus
  ablations as parameterized registry entries).
* :mod:`repro.sim.engine` -- runs systems in lockstep over a routing trace
  and aggregates throughput, breakdowns and balance statistics.
"""

from repro.sim.iteration import (
    DROP_POLICIES,
    IterationSimulator,
    IterationResult,
    LayerResult,
)
from repro.sim.systems import (
    SystemSpec,
    SystemBuildContext,
    make_system,
    available_systems,
    register_system,
    register_system_variant,
    unregister_system,
    registered_system,
    system_descriptions,
    choose_megatron_tp,
)
from repro.sim.engine import RunResult, compare_systems

__all__ = [
    "DROP_POLICIES",
    "IterationSimulator",
    "IterationResult",
    "LayerResult",
    "SystemSpec",
    "SystemBuildContext",
    "make_system",
    "available_systems",
    "register_system",
    "register_system_variant",
    "unregister_system",
    "registered_system",
    "system_descriptions",
    "choose_megatron_tp",
    "RunResult",
    "compare_systems",
]
