"""The paper's core contribution: FSEP and the load-balancing planner.

(For running whole experiments on top of these primitives, use the
declarative :mod:`repro.api` package -- spec, runner and serializable
results.)

Modules:

* :mod:`repro.core.layout` -- the :class:`ExpertLayout` abstraction (which
  device restores which experts, ``A`` in the paper).
* :mod:`repro.core.fsep` -- Fully Sharded Expert Parallelism: shard / unshard /
  reshard of flattened expert parameters with arbitrary layouts (Fig. 4).
* :mod:`repro.core.cost_model` -- the joint communication + computation cost
  model of Sec. 3.2 (Eq. 2-4).
* :mod:`repro.core.routing_plan` -- the compact token routing plan ``S``
  (per (sender, expert) destination rows).
* :mod:`repro.core.lite_routing` -- Algorithm 3 (token dispatcher).
* :mod:`repro.core.replica_allocation` -- Algorithm 4 (priority-queue replica
  allocation) and the even scheme.
* :mod:`repro.core.relocation` -- Algorithm 1 (greedy topology-aware expert
  relocation).
* :mod:`repro.core.layout_tuner` -- Algorithm 2 (the named replica schemes,
  each placed, routed and scored by the cost model; the cheapest wins).
* :mod:`repro.core.planner` -- the load-balancing planner combining the
  asynchronous layout tuner with the synchronous token dispatcher (Fig. 3/7).
* :mod:`repro.core.comm_schedule` -- the fine-grained communication scheduling
  optimisations of Fig. 5.
* :mod:`repro.core.executor` -- an FSEP executor that runs real (numpy) MoE
  computation under a plan.  This package does not import it, because it
  loads the numpy model (:mod:`repro.model`) that no simulated run needs;
  import it directly.
"""

from repro.core.layout import ExpertLayout, static_ep_layout
from repro.core.fsep import FSEPShardedExperts, UnshardResult, ReshardResult
from repro.core.cost_model import MoECostModel, CostBreakdown
from repro.core.routing_plan import RoutingPlan
from repro.core.lite_routing import lite_route
from repro.core.replica_allocation import allocate_replicas_priority_queue, even_replicas
from repro.core.relocation import relocate_experts
from repro.core.layout_tuner import ExpertLayoutTuner, TunerConfig, TunerResult
from repro.core.planner import LoadBalancingPlanner, IterationPlan
from repro.core.comm_schedule import (
    CommScheduleConfig,
    LayerTimings,
    ScheduleResult,
    schedule_layer,
)

__all__ = [
    "ExpertLayout",
    "static_ep_layout",
    "FSEPShardedExperts",
    "UnshardResult",
    "ReshardResult",
    "MoECostModel",
    "CostBreakdown",
    "RoutingPlan",
    "lite_route",
    "allocate_replicas_priority_queue",
    "even_replicas",
    "relocate_experts",
    "ExpertLayoutTuner",
    "TunerConfig",
    "TunerResult",
    "LoadBalancingPlanner",
    "IterationPlan",
    "CommScheduleConfig",
    "LayerTimings",
    "ScheduleResult",
    "schedule_layer",
]
