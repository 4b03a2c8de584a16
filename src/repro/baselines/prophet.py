"""Prophet-style forecast-driven expert replication.

Prophet (CLUSTER'23) forecasts per-expert load from recent history and
replicates hot experts across nodes into the cluster's spare expert slots.
Replicas are adjusted at a fixed interval; every adjustment moves parameters
and optimizer state for the replicas that change, and replicated experts need
extra gradient synchronisation proportional to their replica count (the
"skewed parameter traffic" the paper mentions).
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
    """Replicate forecast-hot experts into the spare slots, at a fixed interval."""

    name = "prophet"

    def __init__(self, topology: ClusterTopology, num_experts: int,
                 capacity: int, expert_param_bytes: float,
                 adjustment_interval: int = 50,
                 ema_decay: float = 0.5):
        """Create the policy.

        Every re-plan places exactly ``N * C`` replicas (Algorithm 4): one
        per expert, and the ``N * C - E`` spare slots to the forecast-hot
        experts.  It moves each changed replica's optimizer state, priced by
        :meth:`LoadBalancingPolicy.migration_bytes`.

        Args:
            adjustment_interval: Iterations between replication re-planning.
            ema_decay: Weight of the newest observation in the load forecast.
        """
        super().__init__(topology, num_experts, capacity, expert_param_bytes)
        if adjustment_interval < 1:
            raise ValueError("adjustment_interval must be at least 1")
        if not 0.0 < ema_decay <= 1.0:
            raise ValueError("ema_decay must be in (0, 1]")
        if num_experts > topology.num_devices * capacity:
            raise ValueError("cluster capacity cannot host one replica per expert")
        self.adjustment_interval = adjustment_interval
        self.ema_decay = ema_decay
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
        replicas = allocate_replicas_priority_queue(
            forecast, self.topology.num_devices, self.num_experts, self.capacity)
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
            migration = self.migration_bytes(self._layouts.get(layer), new_layout)
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
