"""LAER-MoE's own policy: the load-balancing planner on top of FSEP.

The layout of every layer is re-solved every iteration by the expert layout
tuner from the previous iteration's routing (asynchronous, CPU-side), and the
actual tokens are dispatched by lite routing.  Because FSEP restores expert
parameters through the same All-to-All regardless of which experts a device
restores, changing the layout costs nothing extra -- the defining property of
the paper's design.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import LoadBalancingPolicy, PolicyDecision
from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel
from repro.core.layout_tuner import TunerConfig
from repro.core.planner import LoadBalancingPlanner, PlannerConfig


class LAERPolicy(LoadBalancingPolicy):
    """Per-iteration expert re-layout using the LAER-MoE planner."""

    name = "laer-moe"

    def __init__(self, topology: ClusterTopology, num_experts: int,
                 capacity: int, expert_param_bytes: float,
                 cost_model: MoECostModel,
                 tuner_config: Optional[TunerConfig] = None):
        super().__init__(topology, num_experts, capacity, expert_param_bytes)
        planner_config = PlannerConfig(
            capacity=capacity, tuner=tuner_config or TunerConfig())
        self.planner = LoadBalancingPlanner(topology, cost_model, num_experts,
                                            planner_config)

    def reset(self) -> None:
        super().reset()
        self.planner.reset()

    # ------------------------------------------------------------------
    def decide_layer(self, layer: int, routing: np.ndarray) -> PolicyDecision:
        layout, _ = self.planner.plan_layer(layer, routing)
        return PolicyDecision(
            layout=layout,
            relayout_bytes_exposed=0.0,
            grad_sync_extra_bytes=0.0,
            metadata={"per_iteration_relayout": True},
        )
