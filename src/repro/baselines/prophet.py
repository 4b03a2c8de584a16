"""Prophet-style forecast-driven expert replication.

Prophet (CLUSTER'23) forecasts per-expert load from recent history and
replicates hot experts across nodes under a replication budget.  Replicas are
adjusted at a fixed interval; every adjustment moves parameters and optimizer
state for the replicas that change, and replicated experts need extra gradient
synchronisation proportional to their replica count (the "skewed parameter
traffic" the paper mentions).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.baselines.base import LoadBalancingPolicy, PolicyDecision
from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout
from repro.core.relocation import relocate_experts
from repro.core.replica_allocation import allocate_replicas_priority_queue


class ProphetPolicy(LoadBalancingPolicy):
    """Replicate forecast-hot experts under a budget, at a fixed interval."""

    name = "prophet"

    def __init__(self, topology: ClusterTopology, num_experts: int,
                 capacity: int, expert_param_bytes: float,
                 adjustment_interval: int = 50,
                 replication_budget: int | None = None,
                 ema_decay: float = 0.5,
                 state_multiplier: float = 6.0):
        """Create the policy.

        Args:
            adjustment_interval: Iterations between replication re-planning.
            replication_budget: Maximum total replicas beyond one per expert;
                defaults to ``N * C - E`` (whatever spare capacity exists).
            ema_decay: Weight of the newest observation in the load forecast.
            state_multiplier: Migration bytes per changed replica relative to
                the bf16 parameter size.
        """
        super().__init__(topology, num_experts, capacity, expert_param_bytes)
        if adjustment_interval < 1:
            raise ValueError("adjustment_interval must be at least 1")
        if not 0.0 < ema_decay <= 1.0:
            raise ValueError("ema_decay must be in (0, 1]")
        spare = topology.num_devices * capacity - num_experts
        if spare < 0:
            raise ValueError("cluster capacity cannot host one replica per expert")
        self.adjustment_interval = adjustment_interval
        self.replication_budget = (spare if replication_budget is None
                                   else min(replication_budget, spare))
        self.ema_decay = ema_decay
        self.state_multiplier = state_multiplier
        self._layouts: Dict[int, ExpertLayout] = {}
        self._forecast: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        super().reset()
        self._layouts.clear()
        self._forecast.clear()

    # ------------------------------------------------------------------
    def _solve_layout(self, layer: int) -> ExpertLayout:
        forecast = self._forecast.get(layer)
        if forecast is None:
            forecast = np.ones(self.num_experts, dtype=np.float64)
        # Replica allocation under the budget: start from the proportional
        # allocation over the full capacity and trim the excess replicas of the
        # least-loaded experts until the budget is respected.
        replicas = allocate_replicas_priority_queue(
            forecast, self.topology.num_devices, self.num_experts, self.capacity)
        extra = int(replicas.sum()) - self.num_experts
        budget_excess = extra - self.replication_budget
        if budget_excess > 0:
            per_replica = forecast / replicas
            order = np.argsort(per_replica, kind="stable")
            idx = 0
            while budget_excess > 0 and idx < order.size:
                expert = order[idx]
                if replicas[expert] > 1:
                    replicas[expert] -= 1
                    budget_excess -= 1
                else:
                    idx += 1
        return relocate_experts(replicas, forecast, self.topology, self.capacity)

    # ------------------------------------------------------------------
    def decide_layer(self, layer: int, routing: np.ndarray) -> PolicyDecision:
        routing = np.asarray(routing, dtype=np.int64)
        migration = 0.0
        needs_solve = (layer not in self._layouts
                       or (self._iteration % self.adjustment_interval == 0
                           and self._iteration > 0))
        if needs_solve:
            new_layout = self._solve_layout(layer)
            migration = self.migration_bytes(self._layouts.get(layer), new_layout,
                                             self.state_multiplier)
            self._layouts[layer] = new_layout

        layout = self._layouts[layer]

        # Replicated experts need their gradients synchronised across replicas.
        extra_replicas = int(layout.replicas_per_expert().sum()) - self.num_experts
        grad_extra = 2.0 * extra_replicas * self.expert_param_bytes \
            / max(1, self.topology.num_devices)

        prev = self._forecast.get(layer)
        observed = routing.sum(axis=0).astype(np.float64)
        if prev is None:
            self._forecast[layer] = observed
        else:
            self._forecast[layer] = ((1.0 - self.ema_decay) * prev
                                     + self.ema_decay * observed)

        return PolicyDecision(
            layout=layout,
            relayout_bytes_exposed=migration,
            grad_sync_extra_bytes=grad_extra,
            metadata={"resolved": needs_solve},
        )
