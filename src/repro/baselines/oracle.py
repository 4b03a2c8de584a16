"""Oracle policy: re-layout from the *current* iteration's routing.

No real system can do this (the layout must be known before the dispatch), so
the oracle serves as a lower bound on MoE-layer time.  It is used by the tests
to sandwich LAER-MoE between the static baseline and the unattainable optimum,
and by the motivation experiment's "balanced" reference (Fig. 1b).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import LoadBalancingPolicy, PolicyDecision
from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel
from repro.core.layout_tuner import ExpertLayoutTuner


class OracleBalancedPolicy(LoadBalancingPolicy):
    """Solve the layout with perfect knowledge of the iteration's routing."""

    name = "oracle"

    def __init__(self, topology: ClusterTopology, num_experts: int,
                 capacity: int, expert_param_bytes: float,
                 cost_model: MoECostModel):
        super().__init__(topology, num_experts, capacity, expert_param_bytes)
        self.tuner = ExpertLayoutTuner(topology, cost_model, capacity)

    def decide_layer(self, layer: int, routing: np.ndarray) -> PolicyDecision:
        # Lite routing places the tokens: decide_iteration dispatches every
        # layer of the iteration in one batch.
        return PolicyDecision(
            layout=self.tuner.solve(routing).layout,
            relayout_bytes_exposed=0.0,
            grad_sync_extra_bytes=0.0,
            metadata={"oracle": True},
        )
