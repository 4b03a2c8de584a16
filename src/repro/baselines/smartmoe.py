"""SmartMoE-style periodic expert relocation.

SmartMoE (ATC'23) keeps one replica per expert but periodically reshuffles
which device hosts which expert so hot and cold experts end up co-located,
equalising per-device load.  Relocation moves parameters *and* optimizer
state, so SmartMoE keeps the relocation frequency low (hundreds of
iterations); between relocations the placement goes stale as routing drifts.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.baselines.base import LoadBalancingPolicy, PolicyDecision
from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout
from repro.core.relocation import relocate_experts


class SmartMoEPolicy(LoadBalancingPolicy):
    """Relocate experts (one replica each) every ``relocation_interval`` iterations."""

    name = "smartmoe"

    def __init__(self, topology: ClusterTopology, num_experts: int,
                 capacity: int, expert_param_bytes: float,
                 relocation_interval: int = 100):
        """Create the policy.

        Every relocation re-places the ``E`` single replicas by the load
        history, leaving the ``N * C - E`` spare slots empty.  It moves each
        relocated replica's parameters and optimizer state, priced by
        :meth:`LoadBalancingPolicy.migration_bytes`.

        Args:
            relocation_interval: Iterations between placement re-solves.
        """
        super().__init__(topology, num_experts, capacity, expert_param_bytes)
        if relocation_interval < 1:
            raise ValueError("relocation_interval must be at least 1")
        if num_experts > topology.num_devices * capacity:
            raise ValueError("cluster capacity cannot host one replica per expert")
        self.relocation_interval = relocation_interval
        self._layouts: Dict[int, ExpertLayout] = {}
        self._history: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        super().reset()
        self._layouts.clear()
        self._history.clear()

    # ------------------------------------------------------------------
    def _initial_layout(self) -> ExpertLayout:
        """Round-robin single-replica placement filling device capacity order."""
        n = self.topology.num_devices
        assignment = np.zeros((n, self.num_experts), dtype=np.int64)
        for expert in range(self.num_experts):
            assignment[expert % n, expert] = 1
        return ExpertLayout(assignment, self.capacity)

    def _solve_layout(self, layer: int) -> ExpertLayout:
        """Re-place the (single-replica) experts using the accumulated history."""
        history = self._history.get(layer)
        if history is None:
            return self._initial_layout()
        loads = history.sum(axis=0)
        replicas = np.ones(self.num_experts, dtype=np.int64)
        return relocate_experts(replicas, loads, self.topology, self.capacity)

    # ------------------------------------------------------------------
    def decide_layer(self, layer: int, routing: np.ndarray) -> PolicyDecision:
        routing = np.asarray(routing, dtype=np.int64)
        relocated = False
        migration = 0.0
        if layer not in self._layouts:
            self._layouts[layer] = self._initial_layout()
        elif self._iteration % self.relocation_interval == 0 and self._iteration > 0:
            new_layout = self._solve_layout(layer)
            migration = self.migration_bytes(self._layouts[layer], new_layout)
            relocated = migration > 0
            self._layouts[layer] = new_layout

        layout = self._layouts[layer]

        # Accumulate an exponential moving average of the load history so the
        # next relocation reflects recent behaviour.
        prev = self._history.get(layer)
        if prev is None:
            self._history[layer] = routing.astype(np.float64)
        else:
            self._history[layer] = 0.7 * prev + 0.3 * routing

        return PolicyDecision(
            layout=layout,
            relayout_bytes_exposed=migration,
            grad_sync_extra_bytes=0.0,
            metadata={"relocated": relocated},
        )
