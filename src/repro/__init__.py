"""LAER-MoE reproduction: Load-Adaptive Expert Re-layout for MoE training.

This package is a from-scratch Python reproduction of the ASPLOS 2026 paper
*LAER-MoE: Load-Adaptive Expert Re-layout for Efficient Mixture-of-Experts
Training*.  It contains:

* ``repro.api`` -- the declarative front door: JSON-serializable experiment
  specs (:class:`repro.api.ExperimentSpec`), the experiment runner executing
  them end to end in this process, and structured, serializable results.
  Start here.
* ``repro.study`` -- declarative sweeps: axes over systems / scenarios /
  cluster sizes expanded into experiment grids, executed resumably in this
  process by :class:`repro.study.StudyRunner`.
* ``repro.fleet`` -- the one way to use several processes: N workers drain
  a study's grid through a file queue into one shared store
  (``repro fleet run --workers N``), storing the same runs as the
  in-process :class:`repro.study.StudyRunner`.
* ``repro.store`` -- the persistent result store sweeps accumulate into:
  content-hashed run JSONs, an incrementally maintained index, and
  cross-run ``query`` / ``diff`` / ``regressions``.
* ``repro.core`` -- the paper's contribution: the FSEP parallel paradigm
  (shard / unshard / reshard of fully-sharded expert parameters with arbitrary
  per-iteration expert layouts), the load-balancing planner (expert layout
  tuner + token dispatcher), and the communication-scheduling optimisations.
* ``repro.cluster`` -- cluster topology and communication/compute/memory cost
  models (the hardware substrate).
* ``repro.model`` -- a numpy MoE transformer with hand-written backward passes
  (the model substrate used for convergence studies and trace extraction).
  Only the convergence path (``repro.training``, ``repro.core.executor``)
  imports it; ``import repro.api`` does not.
* ``repro.parallel`` -- the tensor-parallel cost model of the Megatron
  baseline.
* ``repro.sim`` -- an analytic iteration simulator (per-layer costs under the
  Fig. 5 communication schedule) that reproduces the paper's end-to-end
  comparisons and breakdowns.
* ``repro.baselines`` -- GShard-style EP, FasterMoE, SmartMoE, Prophet and
  FlexMoE load-balancing policies, plus a perfectly-balanced oracle.
* ``repro.workloads`` -- Table 2 model configurations, synthetic routing
  traces and synthetic datasets.
* ``repro.registry`` -- the one name -> factory registry class behind the
  system, scenario, scenario-wrapper and study registries.
* ``repro.training`` -- end-to-end numpy training used by the convergence
  experiments.
* ``repro.analysis`` -- breakdowns and report formatting used by the CLI and
  the benchmark harness.
"""

__version__ = "1.0.0"

from repro.cluster import ClusterTopology, CollectiveCostModel
from repro.workloads import (
    get_model_config,
    list_model_configs,
    MoEModelConfig,
    RoutingTrace,
    SyntheticTraceSource,
)
from repro.core import (
    ExpertLayout,
    FSEPShardedExperts,
    LoadBalancingPlanner,
    MoECostModel,
    lite_route,
)
from repro.api import (
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    run_experiment,
)

__all__ = [
    "__version__",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "run_experiment",
    "ClusterTopology",
    "CollectiveCostModel",
    "get_model_config",
    "list_model_configs",
    "MoEModelConfig",
    "RoutingTrace",
    "SyntheticTraceSource",
    "ExpertLayout",
    "FSEPShardedExperts",
    "LoadBalancingPlanner",
    "MoECostModel",
    "lite_route",
]
