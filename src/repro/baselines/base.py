"""Common interface of the load-balancing policies.

A policy is driven one iteration at a time by the simulator (or the trainer).
For every MoE layer of the iteration it must produce a
:class:`PolicyDecision`: the expert layout ``A``, the token routing plan ``S``
for the iteration's actual routing ``R``, and the extra communication the
policy's re-layout mechanism costs in that iteration.  A policy whose tokens
follow lite routing (Algorithm 3) leaves ``S`` to
:meth:`LoadBalancingPolicy.decide_iteration`, which dispatches every such
layer of the iteration in one batch.

The extra communication is split into two buckets because the simulator charges
them differently:

* ``relayout_bytes_exposed`` -- parameter / optimizer-state migration or
  shadow-expert broadcast traffic that happens on the critical path (none of
  the baselines can hide it; FSEP hides it by construction, so LAER reports 0);
* ``grad_sync_extra_bytes`` -- additional gradient synchronisation caused by
  replicated experts living on multiple devices outside a fully-sharded
  scheme (FasterMoE / Prophet / FlexMoE on top of EP).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.cluster.memory import ADAM_STATE_BYTES_PER_PARAM
from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout
from repro.core.lite_routing import lite_route_batch
from repro.core.routing_plan import RoutingPlan
from repro.telemetry.trace import span as _span
from repro.workloads.model_configs import BYTES_PER_ELEMENT


@dataclass
class PolicyDecision:
    """What a policy decided for one MoE layer in one iteration.

    Attributes:
        layout: Expert layout ``A`` used during the iteration.
        routing_plan: Token routing plan ``S``: per (sender, expert), the
            destination devices and their token counts.  A
            :meth:`~LoadBalancingPolicy.decide_layer` that leaves it ``None``
            asks for lite routing onto ``layout``, which
            :meth:`~LoadBalancingPolicy.decide_iteration` fills in.
        relayout_bytes_exposed: Per-device bytes of re-layout traffic that sit
            on the critical path of this iteration (0 when nothing changed or
            the system hides re-layout entirely).
        grad_sync_extra_bytes: Per-device bytes of extra gradient reduction due
            to replicated experts.
        metadata: Free-form diagnostics (e.g. number of replicas changed).
    """

    layout: ExpertLayout
    routing_plan: Optional[RoutingPlan] = None
    relayout_bytes_exposed: float = 0.0
    grad_sync_extra_bytes: float = 0.0
    metadata: dict = field(default_factory=dict)


class LoadBalancingPolicy(abc.ABC):
    """Base class for the expert placement / routing policies."""

    #: Human-readable system name used in reports.
    name: str = "base"

    def __init__(self, topology: ClusterTopology, num_experts: int,
                 capacity: int, expert_param_bytes: float):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if num_experts <= 0:
            raise ValueError("num_experts must be positive")
        if expert_param_bytes < 0:
            raise ValueError("expert_param_bytes must be non-negative")
        self.topology = topology
        self.num_experts = num_experts
        self.capacity = capacity
        self.expert_param_bytes = expert_param_bytes
        self._iteration = 0

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def decide_layer(self, layer: int, routing: np.ndarray) -> PolicyDecision:
        """Decide the layout (and, unless lite routing places the tokens, the
        routing plan) for one layer of the current iteration."""

    def decide_iteration(self, routing_by_layer: np.ndarray) -> List[PolicyDecision]:
        """Decide every layer of an iteration, then advance the iteration counter.

        Calls :meth:`decide_layer` for each layer in order, then lite-routes
        every layer whose decision left ``routing_plan`` unset onto that
        decision's layout, all in one :func:`lite_route_batch` call (the
        ``planner.lite-route`` telemetry span).  The plans equal routing each
        such layer on its own with :func:`~repro.core.lite_routing.lite_route`.

        Args:
            routing_by_layer: ``(layers, N, E)`` actual routing of the
                iteration.

        Returns:
            One :class:`PolicyDecision` per layer, every ``routing_plan`` set.
        """
        routing_by_layer = np.asarray(routing_by_layer, dtype=np.int64)
        if routing_by_layer.ndim != 3:
            raise ValueError("routing_by_layer must have shape (layers, N, E)")
        decisions = [self.decide_layer(layer, routing_by_layer[layer])
                     for layer in range(routing_by_layer.shape[0])]
        unrouted = [layer for layer, decision in enumerate(decisions)
                    if decision.routing_plan is None]
        if unrouted:
            with _span("planner.lite-route", layers=len(unrouted)):
                plans = lite_route_batch(
                    routing_by_layer[unrouted],
                    [decisions[layer].layout for layer in unrouted],
                    self.topology)
            for layer, plan in zip(unrouted, plans):
                decisions[layer].routing_plan = plan
        self._iteration += 1
        return decisions

    # ------------------------------------------------------------------
    @property
    def iteration(self) -> int:
        """Number of iterations decided so far."""
        return self._iteration

    def reset(self) -> None:
        """Reset all adaptive state (history, cached layouts, counters)."""
        self._iteration = 0

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def migration_bytes(self, old_layout: Optional[ExpertLayout],
                        new_layout: ExpertLayout) -> float:
        """Bytes moved when the expert layout changes between iterations.

        Relocating an expert replica moves its fp32 master weights and two
        Adam moments, the memory model's ``ADAM_STATE_BYTES_PER_PARAM`` per
        parameter: 6x its bf16 parameter bytes, the multiplier the paper
        quotes.
        """
        if old_layout is None:
            return 0.0
        changed = new_layout.difference(old_layout)
        return (changed * self.expert_param_bytes
                * (ADAM_STATE_BYTES_PER_PARAM / BYTES_PER_ELEMENT))
