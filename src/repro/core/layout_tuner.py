"""Expert layout tuner (Algorithm 2): choose the re-layout strategy.

The tuner builds a small candidate set of replica allocations -- the
priority-queue proportional scheme, the even scheme, and random perturbations
of those -- places each candidate with the greedy relocation (Algorithm 1),
routes the observed load with lite routing (Algorithm 3), scores the result
with the cost model (Sec. 3.2) and keeps the cheapest strategy.

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
from repro.telemetry.trace import span as _span
from repro.core.replica_allocation import (
    allocate_replicas_priority_queue,
    even_replicas,
    perturb_replicas,
)


@dataclass(frozen=True)
class TunerConfig:
    """Configuration of the expert layout tuner.

    Attributes:
        num_candidates: Size of the candidate replica-scheme set (``epsilon``
            in Algorithm 2).  The paper's evaluation fixes it to 2 (pq + even);
            larger values add random perturbations.
        use_priority_queue: Include the Algorithm 4 proportional allocation.
        use_even: Include the even allocation.
        perturbation_seed: Seed of the random perturbations (candidates beyond
            the two analytic schemes).
        max_perturbation_moves: Maximum replicas moved by one perturbation.
    """

    num_candidates: int = 2
    use_priority_queue: bool = True
    use_even: bool = True
    perturbation_seed: int = 0
    max_perturbation_moves: int = 2

    def __post_init__(self) -> None:
        if self.num_candidates < 1:
            raise ValueError("num_candidates must be at least 1")
        if not (self.use_priority_queue or self.use_even):
            raise ValueError("at least one analytic allocation scheme must be enabled")
        if self.max_perturbation_moves < 1:
            raise ValueError("max_perturbation_moves must be at least 1")


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
    routing_plan: np.ndarray
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
            schemes.append(perturb_replicas(
                base, self._rng, self.config.max_perturbation_moves))
        return schemes[:max(self.config.num_candidates, len(schemes))]

    # ------------------------------------------------------------------
    def solve(self, routing: np.ndarray) -> TunerResult:
        """Solve the expert re-layout strategy for a routing matrix ``R``.

        Args:
            routing: ``(N, E)`` token counts per device per expert (the load
                the layout should balance; the planner passes the previous
                iteration's observed routing).

        Returns:
            The best candidate found, with its routing plan and cost.
        """
        routing = np.asarray(routing, dtype=np.int64)
        n = self.topology.num_devices
        if routing.ndim != 2 or routing.shape[0] != n:
            raise ValueError(f"routing must have shape (N={n}, E)")
        num_experts = routing.shape[1]
        expert_loads = routing.sum(axis=0)

        layouts = [relocate_experts(replicas, expert_loads, self.topology,
                                    self.capacity)
                   for replicas in self.candidate_replica_schemes(
                       expert_loads, num_experts)]

        # One batched lite-route + cost evaluation over the whole candidate
        # set, bit-identical to scoring each candidate with lite_route and
        # MoECostModel.evaluate (guarded by tests and
        # benchmarks/bench_floors.py).  The first cheapest candidate wins.
        with _span("planner.batch-eval", candidates=len(layouts)):
            plans = lite_route_batch(routing, layouts, self.topology)
            costs = self.cost_model.evaluate_batch(plans)
        candidate_costs = [cost.total for cost in costs]
        best = candidate_costs.index(min(candidate_costs))
        return TunerResult(
            layout=layouts[best],
            routing_plan=plans[best],
            cost=costs[best],
            candidates_evaluated=len(candidate_costs),
            candidate_costs=candidate_costs,
        )
