"""The load-balancing planner: asynchronous layout tuning + synchronous dispatch.

The planner (Fig. 3 / Fig. 7) keeps the latest observed routing matrix of
every layer.  While the GPU computes iteration ``t``, the (conceptually
CPU-side) expert layout tuner solves the re-layout strategy for iteration
``t + 1`` from that observation -- so layouts are always one step behind the
routing they react to, exactly as in the paper.  At execution time the
synchronous token dispatcher (lite routing) maps the *actual* routing of the
iteration onto the planned layouts, every layer of the iteration in one
batch.

When the solves run: :meth:`LoadBalancingPlanner.plan_layer` only records
each observation.  The first time it meets a layer observed since that
layer's last solve, iteration ``t + 1`` has begun, and every layer observed
in iteration ``t`` is solved in one
:meth:`~repro.core.layout_tuner.ExpertLayoutTuner.solve_layers` batch.  The
tuner is a pure function of the routing it is given, so each layout is the
one a solve right after its observation would have produced, but the solve
after a run's last iteration, whose layouts no iteration would use, never
runs.  ``current_layout`` solves the batch on demand; ``tune_layout`` solves
its layer at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import CostBreakdown, MoECostModel
from repro.core.layout import (
    ExpertLayout,
    round_robin_layout,
    static_ep_layout,
)
from repro.core.layout_tuner import ExpertLayoutTuner, TunerConfig
from repro.core.lite_routing import lite_route_batch
from repro.core.routing_plan import RoutingBatch, RoutingPlan, read_only
from repro.telemetry.trace import span as _span


@dataclass
class IterationPlan:
    """The planner's output for one MoE layer in one iteration.

    Attributes:
        layout: Expert re-layout strategy ``A`` used by the unshard.
        routing_plan: Token routing plan ``S`` produced by the dispatcher for
            the iteration's actual routing.
        cost: Cost-model breakdown of ``(A, S)``.
        planned_from_history: Whether the layout came from the tuner (True) or
            is the static fallback used before any history exists (False).
    """

    layout: ExpertLayout
    routing_plan: RoutingPlan
    cost: CostBreakdown
    planned_from_history: bool


class LoadBalancingPlanner:
    """Per-layer planner combining the layout tuner and the token dispatcher."""

    def __init__(self, topology: ClusterTopology, cost_model: MoECostModel,
                 num_experts: int, capacity: int,
                 tuner_config: Optional[TunerConfig] = None):
        """Plan ``num_experts`` experts on ``topology``, at most ``capacity``
        experts per device, tuning with ``tuner_config`` (both schemes by
        default)."""
        self.topology = topology
        self.cost_model = cost_model
        self.num_experts = num_experts
        self.capacity = capacity
        self.tuner = ExpertLayoutTuner(topology, cost_model, capacity,
                                       tuner_config)
        self._latest: Dict[int, np.ndarray] = {}
        self._pending_layouts: Dict[int, ExpertLayout] = {}
        # Routing plan_layer observed for each layer since its last solve, in
        # observation order: the next tuner batch.
        self._unsolved: Dict[int, np.ndarray] = {}
        self._fallback_layout = self._build_fallback_layout()

    # ------------------------------------------------------------------
    def _build_fallback_layout(self) -> ExpertLayout:
        """Layout used before any routing history exists.

        When the classic EP layout is expressible (``E`` divisible by ``C`` and
        ``N`` divisible by ``E / C``) we start from it; otherwise we fall back
        to a round-robin assignment that fills every device's capacity.
        """
        n = self.topology.num_devices
        try:
            return static_ep_layout(n, self.num_experts, self.capacity)
        except ValueError:
            return round_robin_layout(n, self.num_experts, self.capacity)

    # ------------------------------------------------------------------
    # Observation (asynchronous layout tuner input)
    # ------------------------------------------------------------------
    def observe(self, layer: int, routing: np.ndarray) -> None:
        """Record the observed routing ``R`` of ``layer`` for the current iteration."""
        self._latest[layer] = self._checked(routing)

    def _checked(self, routing: np.ndarray) -> np.ndarray:
        """One layer's ``(N, E)`` routing as a read-only int64 array (a
        writable input is copied, so its caller may go on writing it)."""
        routing = np.asarray(routing, dtype=np.int64)
        if routing.shape != (self.topology.num_devices, self.num_experts):
            raise ValueError("routing matrix has the wrong shape")
        return read_only(routing)

    def predicted_routing(self, layer: int) -> Optional[np.ndarray]:
        """Predict the next iteration's routing of ``layer``: the latest one
        observed (the paper's per-iteration adaptation, read-only), None
        before any."""
        return self._latest.get(layer)

    # ------------------------------------------------------------------
    # Asynchronous layout tuning
    # ------------------------------------------------------------------
    def tune_layout(self, layer: int) -> ExpertLayout:
        """Run the layout tuner for ``layer`` on its latest observed routing, now.

        This models the CPU-side solve that happens while the GPU computes the
        current iteration; the returned layout is cached and used by the next
        :meth:`plan_layer` call for this layer.  Layers :meth:`plan_layer`
        left unsolved are solved first, so no pending batch replaces it.
        """
        self._solve_unsolved()
        predicted = self.predicted_routing(layer)
        if predicted is None:
            layout = self._fallback_layout
        else:
            layout = self.tuner.solve(predicted).layout
        self._pending_layouts[layer] = layout
        return layout

    def current_layout(self, layer: int) -> ExpertLayout:
        """The layout that will be used for the next iteration of ``layer``:
        the pending or the fallback layout itself (layouts are read-only).

        When ``layer`` awaits its solve, every unsolved layer is solved first.
        """
        if layer in self._unsolved:
            self._solve_unsolved()
        return self._pending_layouts.get(layer, self._fallback_layout)

    def _solve_unsolved(self) -> None:
        """Solve every layer :meth:`plan_layer` observed since its last solve,
        in one tuner batch."""
        if not self._unsolved:
            return
        layers = list(self._unsolved)
        with _span("planner.layout-tune", layers=len(layers)):
            results = self.tuner.solve_layers(
                np.stack([self._unsolved[layer] for layer in layers]))
        self._unsolved.clear()
        for layer, result in zip(layers, results):
            self._pending_layouts[layer] = result.layout

    # ------------------------------------------------------------------
    # Synchronous dispatch (token dispatcher)
    # ------------------------------------------------------------------
    def dispatch(self, routing_by_layer: np.ndarray,
                 layouts: List[ExpertLayout]) -> RoutingBatch:
        """Run the synchronous token dispatcher (lite routing) for every
        layer of an iteration: ``routing_by_layer[l]`` onto ``layouts[l]``,
        in one routing batch (``batch[l]`` is layer ``l``'s plan)."""
        return lite_route_batch(routing_by_layer, layouts, self.topology)

    # ------------------------------------------------------------------
    # Full per-layer / per-iteration planning
    # ------------------------------------------------------------------
    def plan_layer(self, layer: int, routing: np.ndarray
                   ) -> Tuple[ExpertLayout, bool]:
        """Plan the layout of one MoE layer for the current iteration.

        Returns the layout tuned from previous iterations, then records
        ``routing`` (the layer's actual ``(N, E)`` routing) so the next
        iteration of this layer uses a layout tuned from it.  Meeting a layer
        that awaits its solve means a new iteration has begun: every layer
        observed since its last solve is then solved in one batch (see the
        module docstring).  Placing the tokens on the returned layout is the
        dispatcher's job, done for the whole iteration at once
        (:meth:`dispatch`, or
        :meth:`~repro.baselines.base.LoadBalancingPolicy.decide_iteration`
        for the LAER policy).

        Returns:
            ``(layout, planned_from_history)``: the layout used this
            iteration, and whether it came from the tuner (False for the
            static fallback used before any history exists).
        """
        routing = self._checked(routing)
        layout = self.current_layout(layer)
        planned = layer in self._pending_layouts
        self._latest[layer] = self._unsolved[layer] = routing
        return layout, planned

    def plan_iteration(self, routing_by_layer: np.ndarray) -> List[IterationPlan]:
        """Plan one training iteration for every MoE layer.

        Args:
            routing_by_layer: ``(layers, N, E)`` actual routing of the current
                iteration (what the gate just produced).

        Returns:
            One :class:`IterationPlan` per layer.  The layout of each layer is
            the one tuned from the *previous* iteration's routing
            (asynchronous adaptation); the dispatch uses the current
            iteration's routing.  After planning, the current routing is
            observed, to be tuned from when the next iteration asks.  Every
            layer is dispatched by one :meth:`dispatch` and scored by one
            :meth:`~repro.core.cost_model.MoECostModel.evaluate_batch`.
        """
        routing_by_layer = np.asarray(routing_by_layer, dtype=np.int64)
        if routing_by_layer.ndim != 3:
            raise ValueError("routing_by_layer must have shape (layers, N, E)")
        layers = routing_by_layer.shape[0]
        decided = [self.plan_layer(layer, routing_by_layer[layer])
                   for layer in range(layers)]
        # Telemetry phases (no-op spans while no tracer is armed).
        with _span("planner.lite-route", layers=layers):
            routing_plans = self.dispatch(
                routing_by_layer, [layout for layout, _ in decided])
        with _span("planner.cost-eval", layers=layers):
            costs = self.cost_model.evaluate_batch(routing_plans)
        return [IterationPlan(layout=layout, routing_plan=plan, cost=cost,
                              planned_from_history=planned)
                for (layout, planned), plan, cost
                in zip(decided, routing_plans, costs)]

    def reset(self) -> None:
        """Clear all observations and pending layouts."""
        self._latest.clear()
        self._pending_layouts.clear()
        self._unsolved.clear()
