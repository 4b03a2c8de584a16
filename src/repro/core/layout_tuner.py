"""Expert layout tuner (Algorithm 2): choose the re-layout strategy.

The tuner builds a small candidate set of replica allocations -- the
priority-queue proportional scheme, the even scheme, and random perturbations
of those -- places each candidate with the greedy relocation (Algorithm 1),
routes the observed load with lite routing (Algorithm 3), scores the result
with the cost model (Sec. 3.2) and keeps the cheapest strategy.
:meth:`ExpertLayoutTuner.solve_layers` does so for several layers at once,
routing every layer's candidates in one lite-routing batch.

Because FSEP makes re-layout free (the restore All-to-All happens every
iteration regardless of the layout), the tuner never penalises changing the
layout -- this is the key difference from FlexMoE/SmartMoE style planners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import CostBreakdown, MoECostModel
from repro.core.layout import ExpertLayout
from repro.core.lite_routing import lite_route_batch
from repro.core.relocation import relocate_experts
from repro.core.replica_allocation import (
    allocate_replicas_priority_queue,
    even_replicas,
    perturb_replicas,
)
from repro.core.routing_plan import RoutingPlan
from repro.telemetry.trace import span as _span


@dataclass(frozen=True)
class TunerConfig:
    """Configuration of the expert layout tuner.

    Attributes:
        num_candidates: Size of the candidate replica-scheme set (``epsilon``
            in Algorithm 2), at least the number of enabled analytic schemes.
            The paper's evaluation fixes it to 2 (pq + even); larger values
            add random perturbations.
        use_priority_queue: Include the Algorithm 4 proportional allocation.
        use_even: Include the even allocation.
        perturbation_seed: Seed of the random perturbations (candidates beyond
            the two analytic schemes).
    """

    num_candidates: int = 2
    use_priority_queue: bool = True
    use_even: bool = True
    perturbation_seed: int = 0

    def __post_init__(self) -> None:
        if not (self.use_priority_queue or self.use_even):
            raise ValueError("at least one analytic allocation scheme must be enabled")
        analytic = int(self.use_priority_queue) + int(self.use_even)
        if self.num_candidates < analytic:
            raise ValueError(
                f"num_candidates must be at least {analytic}, the number of "
                f"enabled analytic schemes")


@dataclass
class TunerResult:
    """Result of one layout-tuning solve.

    Attributes:
        layout: The selected expert re-layout strategy ``A``.
        routing_plan: The lite-routing plan ``S`` for the load used to solve.
        cost: Cost breakdown of the selected strategy.
        candidates_evaluated: Number of candidate replica schemes scored.
        candidate_costs: Total cost of every candidate, in evaluation order.
    """

    layout: ExpertLayout
    routing_plan: RoutingPlan
    cost: CostBreakdown
    candidates_evaluated: int
    candidate_costs: List[float] = field(default_factory=list)


class ExpertLayoutTuner:
    """Algorithm 2: candidate generation + greedy placement + cost selection."""

    def __init__(self, topology: ClusterTopology, cost_model: MoECostModel,
                 capacity: int, config: Optional[TunerConfig] = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.topology = topology
        self.cost_model = cost_model
        self.capacity = capacity
        self.config = config or TunerConfig()
        self._rng = np.random.default_rng(self.config.perturbation_seed)

    def reset(self) -> None:
        """Re-seed the perturbation stream so repeated runs are identical.

        The tuner consumes ``_rng`` whenever ``num_candidates`` exceeds the
        analytic schemes; without re-seeding, two back-to-back runs of the
        same system would draw different perturbation candidates.
        """
        self._rng = np.random.default_rng(self.config.perturbation_seed)

    # ------------------------------------------------------------------
    def candidate_replica_schemes(self, expert_loads: np.ndarray,
                                  num_experts: int) -> List[np.ndarray]:
        """Build the replica-scheme candidate set (Lines 1-7 of Algorithm 2)."""
        n = self.topology.num_devices
        schemes: List[np.ndarray] = []
        if self.config.use_priority_queue:
            schemes.append(allocate_replicas_priority_queue(
                expert_loads, n, num_experts, self.capacity))
        if self.config.use_even:
            schemes.append(even_replicas(n, num_experts, self.capacity))
        while len(schemes) < self.config.num_candidates:
            base = schemes[int(self._rng.integers(len(schemes)))]
            schemes.append(perturb_replicas(base, self._rng))
        return schemes

    # ------------------------------------------------------------------
    def solve(self, routing: np.ndarray) -> TunerResult:
        """Solve the expert re-layout strategy for one routing matrix ``R``:
        the one-layer case of :meth:`solve_layers`.

        Args:
            routing: ``(N, E)`` token counts per device per expert (the load
                the layout should balance).

        Returns:
            The best candidate found, with its routing plan and cost.
        """
        return self.solve_layers(np.asarray(routing)[None])[0]

    def solve_layers(self, routing_by_layer: np.ndarray) -> List[TunerResult]:
        """Solve the re-layout strategy of several layers in one batch.

        Each layer in turn builds its candidate schemes (so the perturbation
        stream is drawn as a loop of one-layer solves would draw it) and
        places every candidate with its own :func:`relocate_experts` call.
        One :func:`lite_route_batch` then routes every candidate of every
        layer on its layer's routing, and each layer scores its run of that
        batch's plans with one :meth:`MoECostModel.evaluate_batch` (one call
        over all layers was no faster at 32x8 devices and raised peak
        memory).  Each layer keeps its first cheapest candidate, so
        ``solve_layers(R)[l]`` equals ``solve(R[l])`` on a tuner whose
        stream stands where the loop would have left it.

        Args:
            routing_by_layer: ``(layers, N, E)`` token counts per device per
                expert, one matrix per layer (the planner passes each
                layer's routing of the previous iteration).

        Returns:
            One :class:`TunerResult` per layer, in order.
        """
        routing_by_layer = np.asarray(routing_by_layer, dtype=np.int64)
        n = self.topology.num_devices
        if routing_by_layer.ndim != 3 or routing_by_layer.shape[1] != n:
            raise ValueError(f"routing must have shape (N={n}, E) per layer")
        num_experts = routing_by_layer.shape[2]

        layouts: List[ExpertLayout] = []
        sizes: List[int] = []
        for routing in routing_by_layer:
            expert_loads = routing.sum(axis=0)
            schemes = self.candidate_replica_schemes(expert_loads, num_experts)
            with _span("planner.relocate",
                       replicas=int(sum(scheme.sum() for scheme in schemes))):
                layouts.extend(relocate_experts(replicas, expert_loads,
                                                self.topology, self.capacity)
                               for replicas in schemes)
            sizes.append(len(schemes))

        # Bit-identical to scoring each candidate with lite_route and
        # MoECostModel.evaluate (guarded by tests and
        # benchmarks/bench_floors.py).
        results = []
        with _span("planner.batch-eval", candidates=len(layouts)):
            plans = list(lite_route_batch(
                np.repeat(routing_by_layer, sizes, axis=0), layouts,
                self.topology))
            first = 0
            for size in sizes:
                last = first + size
                costs = self.cost_model.evaluate_batch(plans[first:last])
                candidate_costs = [cost.total for cost in costs]
                best = candidate_costs.index(min(candidate_costs))
                results.append(TunerResult(
                    layout=layouts[first + best],
                    routing_plan=plans[first + best],
                    cost=costs[best],
                    candidates_evaluated=size,
                    candidate_costs=candidate_costs,
                ))
                first = last
        return results
