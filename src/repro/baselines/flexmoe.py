"""FlexMoE-style incremental replica/placement adjustment.

FlexMoE (SIGMOD'23) dynamically tunes both the replica count and the placement
of experts, but every adjustment (adding, removing or moving a replica) has a
cost, so its scheduler applies only a bounded number of adjustment operations
per step and skips adjustments whose estimated gain does not exceed the
penalty.  The result is an expert layout that *tracks* the routing
distribution with a lag, instead of being re-solved from scratch every
iteration the way LAER-MoE's planner does.

The paper evaluates FlexMoE's scheduler on top of FSEP, where FSEP's
every-iteration restore makes a replica change free, so the policy exposes no
re-layout bytes.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.baselines.base import LoadBalancingPolicy, PolicyDecision
from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout, round_robin_layout


class FlexMoEPolicy(LoadBalancingPolicy):
    """Bounded, penalty-aware incremental adjustment of the expert layout."""

    name = "flexmoe"

    def __init__(self, topology: ClusterTopology, num_experts: int,
                 capacity: int, expert_param_bytes: float,
                 max_adjustments_per_iteration: int = 2,
                 imbalance_trigger: float = 1.15):
        """Create the policy.

        Args:
            max_adjustments_per_iteration: Maximum replica slots changed per
                layer per iteration (FlexMoE's adjustment budget).
            imbalance_trigger: Adjustments run only when the ratio of the
                hottest expert's per-replica load to the average exceeds this
                threshold (the penalty on cheap-but-pointless adjustments).
        """
        super().__init__(topology, num_experts, capacity, expert_param_bytes)
        if max_adjustments_per_iteration < 1:
            raise ValueError("max_adjustments_per_iteration must be at least 1")
        if imbalance_trigger < 1.0:
            raise ValueError("imbalance_trigger must be at least 1.0")
        self.max_adjustments = max_adjustments_per_iteration
        self.imbalance_trigger = imbalance_trigger
        self._layouts: Dict[int, ExpertLayout] = {}
        self._history: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        super().reset()
        self._layouts.clear()
        self._history.clear()

    # ------------------------------------------------------------------
    def _adjust_layout(self, layout: ExpertLayout,
                       expert_loads: np.ndarray) -> tuple[ExpertLayout, int]:
        """Apply up to ``max_adjustments`` expand/shrink operations.

        Each operation takes one replica slot away from the expert with the
        lowest per-replica load (provided it keeps at least one replica) and
        gives it to the expert with the highest per-replica load, on the
        least-loaded device with that slot.  Without an operation the input
        layout itself is returned.
        """
        assignment = layout.assignment.copy()
        changes = 0
        loads = expert_loads.astype(np.float64)
        for _ in range(self.max_adjustments):
            replicas = assignment.sum(axis=0).astype(np.float64)
            per_replica = loads / np.maximum(replicas, 1)
            mean = per_replica.mean()
            hot = int(np.argmax(per_replica))
            if mean == 0 or per_replica[hot] < self.imbalance_trigger * mean:
                break
            # Donor: the expert with the lowest per-replica load that still has
            # a spare replica to give.
            donor_order = np.argsort(per_replica, kind="stable")
            donor = -1
            for candidate in donor_order:
                if candidate != hot and replicas[candidate] > 1:
                    donor = int(candidate)
                    break
            if donor < 0:
                break
            # Remove one replica of the donor from the device where it matters
            # least (the device with the highest total load hosting it).
            device_loads = assignment @ per_replica
            donor_devices = np.nonzero(assignment[:, donor] > 0)[0]
            victim_device = int(donor_devices[np.argmax(device_loads[donor_devices])])
            assignment[victim_device, donor] -= 1
            # Add a replica of the hot expert on the least-loaded device that
            # now has a free slot and does not already host it (prefer new
            # devices to spread the load).
            free = assignment.sum(axis=1) < self.capacity
            prefer = free & (assignment[:, hot] == 0)
            pool = np.nonzero(prefer if prefer.any() else free)[0]
            target_device = int(pool[np.argmin(device_loads[pool])])
            assignment[target_device, hot] += 1
            changes += 1
        if not changes:
            return layout, 0
        return ExpertLayout(assignment, self.capacity), changes

    # ------------------------------------------------------------------
    def decide_layer(self, layer: int, routing: np.ndarray) -> PolicyDecision:
        routing = np.asarray(routing, dtype=np.int64)
        if layer not in self._layouts:
            self._layouts[layer] = round_robin_layout(
                self.topology.num_devices, self.num_experts, self.capacity)

        changes = 0
        history = self._history.get(layer)
        if history is not None:
            self._layouts[layer], changes = self._adjust_layout(
                self._layouts[layer], history)

        layout = self._layouts[layer]
        observed = routing.sum(axis=0).astype(np.float64)
        if history is None:
            self._history[layer] = observed
        else:
            self._history[layer] = 0.5 * history + 0.5 * observed

        return PolicyDecision(
            layout=layout,
            relayout_bytes_exposed=0.0,
            grad_sync_extra_bytes=0.0,
            metadata={"adjustments": changes},
        )
