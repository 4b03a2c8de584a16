"""FasterMoE-style shadow-expert replication.

FasterMoE (PPoPP'22) keeps the static EP placement but, every iteration,
*broadcasts* the hottest experts ("shadow experts") to all devices so their
tokens can be computed locally.  The price is the broadcast of the shadow
experts' parameters each iteration and an All-Reduce of their gradients across
all devices -- communication that is not hidden and grows with the number of
shadowed experts, which is why FasterMoE limits how many experts it shadows.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import LoadBalancingPolicy, PolicyDecision
from repro.baselines.static_ep import ep_owners
from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout, static_ep_layout
from repro.core.routing_plan import RoutingPlan, read_only


class FasterMoEPolicy(LoadBalancingPolicy):
    """Shadow the hottest experts onto every device each iteration."""

    name = "fastermoe"

    def __init__(self, topology: ClusterTopology, num_experts: int,
                 capacity: int, expert_param_bytes: float,
                 max_shadow_experts: int = 2, hot_threshold: float = 1.5):
        """Create the policy.

        Args:
            max_shadow_experts: Maximum experts broadcast per layer per
                iteration (FasterMoE's shadowing budget).
            hot_threshold: An expert is shadowed when its load exceeds this
                multiple of the mean expert load.
        """
        super().__init__(topology, num_experts, capacity, expert_param_bytes)
        if max_shadow_experts < 0:
            raise ValueError("max_shadow_experts must be non-negative")
        if hot_threshold <= 1.0:
            raise ValueError("hot_threshold must exceed 1.0")
        self.max_shadow_experts = max_shadow_experts
        self.hot_threshold = hot_threshold
        self._base_layout = static_ep_layout(
            topology.num_devices, num_experts, capacity)
        self._owners = ep_owners(topology.num_devices, num_experts, capacity)
        self._owners.flags.writeable = False
        self._last_routing: dict[int, np.ndarray] = {}
        # Per layer: the last shadow set (sorted), its layout and owners.
        self._shadowed: dict[int, tuple[tuple[int, ...], ExpertLayout,
                                        np.ndarray]] = {}

    def reset(self) -> None:
        super().reset()
        self._last_routing.clear()
        self._shadowed.clear()

    # ------------------------------------------------------------------
    def _select_shadow_experts(self, layer: int) -> np.ndarray:
        """Pick the experts to shadow from the previous iteration's loads."""
        previous = self._last_routing.get(layer)
        if previous is None or self.max_shadow_experts == 0:
            return np.zeros(0, dtype=np.int64)
        loads = previous.sum(axis=0).astype(np.float64)
        mean = loads.mean() if loads.size else 0.0
        if mean == 0:
            return np.zeros(0, dtype=np.int64)
        hot = np.nonzero(loads > self.hot_threshold * mean)[0]
        if hot.size > self.max_shadow_experts:
            order = np.argsort(-loads[hot], kind="stable")
            hot = hot[order[:self.max_shadow_experts]]
        return hot

    def _shadow_placement(self, layer: int, shadows: np.ndarray
                          ) -> tuple[ExpertLayout, np.ndarray]:
        """The layout and (read-only) owner table of ``layer`` with
        ``shadows`` on every device, rebuilt only when its shadow set changes."""
        key = tuple(sorted(shadows.tolist()))
        last = self._shadowed.get(layer)
        if last is not None and last[0] == key:
            return last[1], last[2]
        # Shadowed experts become locally available on every device; the
        # effective capacity grows by the number of shadows.
        assignment = self._base_layout.assignment.copy()
        for expert in shadows:
            assignment[:, expert] = np.maximum(assignment[:, expert], 1)
        capacity = int(max(self.capacity, assignment.sum(axis=1).max()))
        layout = ExpertLayout(assignment, capacity)
        # Routing: shadowed experts are computed locally, the rest follow the
        # classic EP route.
        owners = self._owners.copy()
        owners[:, shadows] = np.arange(self.topology.num_devices)[:, None]
        owners.flags.writeable = False
        self._shadowed[layer] = (key, layout, owners)
        return layout, owners

    # ------------------------------------------------------------------
    def decide_layer(self, layer: int, routing: np.ndarray) -> PolicyDecision:
        routing = np.asarray(routing, dtype=np.int64)
        shadows = self._select_shadow_experts(layer)
        layout, owners = self._shadow_placement(layer, shadows)
        plan = RoutingPlan.from_owners(routing, owners)

        # Broadcast of shadow parameters (each device receives each shadowed
        # expert once) and All-Reduce of their gradients (2x volume, ring).
        shadow_bytes = float(shadows.size) * self.expert_param_bytes
        relayout_exposed = shadow_bytes
        grad_extra = 2.0 * shadow_bytes

        self._last_routing[layer] = read_only(routing)
        return PolicyDecision(
            layout=layout,
            routing_plan=plan,
            relayout_bytes_exposed=relayout_exposed,
            grad_sync_extra_bytes=grad_extra,
            metadata={"shadow_experts": shadows.tolist()},
        )
