"""Workloads: model configurations, routing traces, and synthetic datasets.

This subpackage provides the inputs the experiments consume:

* The Table 2 model configuration registry (Mixtral-8x7B, Mixtral-8x22B,
  Qwen-8x7B in their e8k2 and e16k4 variants).
* Routing traces and the scenario registry of streaming trace sources
  (:mod:`repro.workloads.scenarios`): :class:`SyntheticTraceSource` draws the
  skewed, drifting expert-load distributions the paper observes during
  Mixtral training (Fig. 1a), other scenarios add bursts, cycles, phases,
  stragglers and tenants, and recorded traces from real (small) numpy
  training runs replay through the same protocol.
* Synthetic token datasets standing in for WikiText-103 and C4.
"""

from repro.workloads.model_configs import (
    MoEModelConfig,
    MODEL_REGISTRY,
    get_model_config,
    list_model_configs,
    MIXTRAL_8X7B_E8K2,
    MIXTRAL_8X7B_E16K4,
    MIXTRAL_8X22B_E8K2,
    MIXTRAL_8X22B_E16K4,
    QWEN_8X7B_E8K2,
    QWEN_8X7B_E16K4,
)
from repro.workloads.routing_traces import (
    RoutingTrace,
    RoutingTraceConfig,
    balanced_routing,
    routing_from_assignments,
)
from repro.workloads.trace_io import (
    TraceSummary,
    load_assignments,
    load_trace,
    save_assignments,
    save_trace,
    summarize_trace,
)
from repro.workloads.scenarios import (
    AssignmentReplayTraceSource,
    BurstyChurnTraceSource,
    DiurnalTraceSource,
    FileTraceSource,
    MixtureTraceSource,
    PhaseShiftTraceSource,
    ScenarioContext,
    StragglerTraceSource,
    SyntheticTraceSource,
    TraceSource,
    available_scenario_wrappers,
    available_scenarios,
    default_runnable_scenarios,
    make_scenario,
    register_scenario,
    register_scenario_wrapper,
    registered_scenario,
    registered_scenario_wrapper,
    scenario_descriptions,
    unregister_scenario,
)
from repro.workloads.datasets import (
    SyntheticTextDataset,
    DatasetConfig,
    WIKITEXT_LIKE,
    C4_LIKE,
)

__all__ = [
    "MoEModelConfig",
    "MODEL_REGISTRY",
    "get_model_config",
    "list_model_configs",
    "MIXTRAL_8X7B_E8K2",
    "MIXTRAL_8X7B_E16K4",
    "MIXTRAL_8X22B_E8K2",
    "MIXTRAL_8X22B_E16K4",
    "QWEN_8X7B_E8K2",
    "QWEN_8X7B_E16K4",
    "RoutingTrace",
    "RoutingTraceConfig",
    "balanced_routing",
    "routing_from_assignments",
    "save_trace",
    "load_trace",
    "save_assignments",
    "load_assignments",
    "summarize_trace",
    "TraceSummary",
    "TraceSource",
    "SyntheticTraceSource",
    "FileTraceSource",
    "AssignmentReplayTraceSource",
    "BurstyChurnTraceSource",
    "DiurnalTraceSource",
    "PhaseShiftTraceSource",
    "StragglerTraceSource",
    "MixtureTraceSource",
    "ScenarioContext",
    "register_scenario",
    "registered_scenario",
    "unregister_scenario",
    "register_scenario_wrapper",
    "registered_scenario_wrapper",
    "available_scenario_wrappers",
    "make_scenario",
    "available_scenarios",
    "default_runnable_scenarios",
    "scenario_descriptions",
    "SyntheticTextDataset",
    "DatasetConfig",
    "WIKITEXT_LIKE",
    "C4_LIKE",
]
