"""Static expert parallelism (GShard / Megatron / FSDP+EP layout).

Expert placement is fixed for the whole run: the devices form ``P_ep = E / C``
expert-parallel groups and EP rank ``r`` always hosts experts
``[r * C, (r + 1) * C)``.  Each data-parallel replica routes its tokens to the
owner inside its own EP group, so a hot expert overloads every device that
hosts it -- this is exactly the imbalance Fig. 1 and Fig. 6(a) illustrate.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import LoadBalancingPolicy, PolicyDecision
from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout, static_ep_layout
from repro.core.routing_plan import RoutingPlan


def ep_owners(num_devices: int, num_experts: int, capacity: int) -> np.ndarray:
    """``(N, E)`` classic EP owner table: the device that computes sender
    ``i``'s tokens for expert ``j``.

    The devices are organised in rows of ``P_ep = E / C`` consecutive ranks;
    the owner is the device of the sender's own row whose EP rank is
    ``j // C``.
    """
    if num_experts % capacity != 0:
        raise ValueError("num_experts must be a multiple of capacity")
    p_ep = num_experts // capacity
    if num_devices % p_ep != 0:
        raise ValueError("num_devices must be a multiple of E/C")
    row_start = (np.arange(num_devices) // p_ep) * p_ep
    return row_start[:, None] + np.arange(num_experts)[None, :] // capacity


class StaticEPPolicy(LoadBalancingPolicy):
    """Fixed expert placement with no replication or relocation.

    Classic EP routing: every sender's tokens go to the expert's owner
    inside the sender's own group (:func:`ep_owners`).
    """

    name = "static-ep"

    def __init__(self, topology: ClusterTopology, num_experts: int,
                 capacity: int, expert_param_bytes: float):
        super().__init__(topology, num_experts, capacity, expert_param_bytes)
        self._layout = static_ep_layout(topology.num_devices, num_experts, capacity)
        self._owners = ep_owners(topology.num_devices, num_experts, capacity)
        self._owners.flags.writeable = False

    @property
    def layout(self) -> ExpertLayout:
        """The fixed layout used in every iteration (one read-only object)."""
        return self._layout

    def decide_layer(self, layer: int, routing: np.ndarray) -> PolicyDecision:
        return PolicyDecision(
            layout=self._layout,
            routing_plan=RoutingPlan.from_owners(routing, self._owners),
            relayout_bytes_exposed=0.0,
            grad_sync_extra_bytes=0.0,
            metadata={"static": True},
        )
