"""Run training systems over routing workloads and aggregate the results.

The engine consumes any :class:`~repro.workloads.scenarios.TraceSource`
(fully-materialized :class:`~repro.workloads.routing_traces.RoutingTrace`
objects included) one iteration at a time, folding every simulated iteration
into the :class:`RunResult` aggregates and then dropping it, so memory stays
O(1) in the number of iterations.

:func:`compare_systems` runs several systems over the same workload, one
after another.  Each system consumes its own ``source.fork()`` -- an
independent, deterministic replay of the workload -- so no system's result
depends on which systems ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from repro.sim.iteration import IterationResult
from repro.sim.systems import SystemSpec
from repro.telemetry.trace import span as _span
from repro.workloads.routing_traces import RoutingTrace
from repro.workloads.scenarios import TraceSource

#: Workloads the engine accepts: a streaming source or a materialized trace.
Workload = Union[TraceSource, RoutingTrace]


@dataclass
class RunResult:
    """Aggregated outcome of simulating a system over a routing workload.

    :meth:`add` folds each simulated iteration into running sums and keeps
    nothing else, so a run holds only its aggregates, whatever its length.

    Attributes:
        system: Name of the simulated system.
        tokens_per_iteration: Global tokens processed per iteration.
    """

    system: str
    tokens_per_iteration: int = 0

    def __post_init__(self) -> None:
        self._count = 0
        self._time_sum = 0.0
        self._breakdown_sums: Dict[str, float] = {}
        self._rel_max_sum = 0.0
        self._layer_rel_sums: List[float] = []

    # ------------------------------------------------------------------
    def add(self, result: IterationResult) -> None:
        """Fold one simulated iteration into the aggregates."""
        self._count += 1
        self._time_sum += result.total_time
        for key, value in result.breakdown.items():
            self._breakdown_sums[key] = self._breakdown_sums.get(key, 0.0) + value
        self._rel_max_sum += result.max_relative_tokens
        if not self._layer_rel_sums:
            self._layer_rel_sums = [0.0] * len(result.layers)
        for index, layer in enumerate(result.layers[:len(self._layer_rel_sums)]):
            self._layer_rel_sums[index] += layer.relative_max_tokens

    @property
    def num_iterations(self) -> int:
        """Number of iterations aggregated so far."""
        return self._count

    # ------------------------------------------------------------------
    @property
    def mean_iteration_time(self) -> float:
        """Average iteration time in seconds."""
        if self._count == 0:
            return 0.0
        return self._time_sum / self._count

    @property
    def throughput(self) -> float:
        """Average training throughput in tokens per second.

        Degenerate runs (no iterations, or a zero/negative modelled
        iteration time) report ``0.0`` rather than ``inf`` so downstream
        ratios and serialized results stay finite.
        """
        time = self.mean_iteration_time
        if time <= 0:
            return 0.0
        return self.tokens_per_iteration / time

    def speedup_over(self, other: "RunResult") -> float:
        """Throughput ratio of this run over another run.

        Two degenerate (zero-throughput) runs compare as ``1.0``; a real run
        against a degenerate reference is ``inf``.
        """
        if other.throughput == 0:
            return 1.0 if self.throughput == 0 else float("inf")
        return self.throughput / other.throughput

    # ------------------------------------------------------------------
    def mean_breakdown(self) -> Dict[str, float]:
        """Average per-iteration time of every breakdown component."""
        if self._count == 0:
            return {}
        return {key: value / self._count
                for key, value in self._breakdown_sums.items()}

    def breakdown_fractions(self) -> Dict[str, float]:
        """Breakdown components as fractions of the mean iteration time."""
        breakdown = self.mean_breakdown()
        total = self.mean_iteration_time
        if total <= 0:
            return {key: 0.0 for key in breakdown}
        return {key: value / total for key, value in breakdown.items()}

    def all_to_all_fraction(self) -> float:
        """Fraction of iteration time spent in (exposed) All-to-All traffic."""
        fractions = self.breakdown_fractions()
        return (fractions.get("all_to_all", 0.0)
                + fractions.get("exposed_comm", 0.0)
                + fractions.get("relayout", 0.0))

    def mean_relative_max_tokens(self) -> float:
        """Mean over iterations of the worst relative max token count."""
        if self._count == 0:
            return 1.0
        return self._rel_max_sum / self._count

    def per_layer_relative_max_tokens(self) -> List[float]:
        """Mean relative max token count per MoE layer (Fig. 10b series)."""
        if self._count == 0:
            return []
        return [total / self._count for total in self._layer_rel_sums]


class TrainingRunSimulator:
    """Drive a :class:`SystemSpec` over a routing workload."""

    def __init__(self, system: SystemSpec):
        self.system = system

    def run(self, workload: Workload, warmup: int = 0) -> RunResult:
        """Simulate the system over a trace source.

        The source is consumed strictly in order, one iteration at a time;
        nothing beyond the current frame and the running aggregates is kept,
        so arbitrarily long workloads stream in O(1) memory.

        Args:
            workload: Trace source (or materialized trace) to replay.
            warmup: Iterations at the start that are simulated (so adaptive
                policies build their history) but excluded from the result.

        Returns:
            A :class:`RunResult` aggregating the post-warmup iterations.
        """
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        total = int(workload.num_iterations)
        if warmup >= total:
            raise ValueError("warmup leaves no iterations to measure")

        self.system.reset()
        global_tokens = int(workload.tokens_per_device) * int(workload.num_devices)
        result = RunResult(system=self.system.name,
                           tokens_per_iteration=global_tokens)
        frames = iter(workload.iter_iterations())
        for iteration in range(total):
            # Telemetry phases (no-op spans unless a tracer is armed):
            # drawing the routing frame, the policy decision (which is
            # where the planner's lite-route / cost-eval / layout-tuning
            # sub-phases nest), and the cost simulation itself.
            with _span("sim.routing-draw", system=self.system.name,
                       iteration=iteration):
                routing = next(frames, None)
            if routing is None:
                break  # source ended early; matches the old for-loop
            with _span("sim.decide", system=self.system.name,
                       iteration=iteration):
                decisions = self.system.policy.decide_iteration(routing)
            with _span("sim.simulate", system=self.system.name,
                       iteration=iteration):
                sim_result = self.system.simulator.simulate_iteration(
                    iteration, decisions)
            if iteration >= warmup:
                result.add(sim_result)
        return result


def compare_systems(systems: List[SystemSpec], workload: Workload,
                    warmup: int = 0) -> Dict[str, RunResult]:
    """Run several systems over the same workload and return results by name.

    The systems run in this process, one after another.  Every system
    consumes its own ``workload.fork()``, so all systems see bit-identical
    routing matrices regardless of execution order.  To spread systems over
    several processes, make them a study's ``systems`` axis and drain it
    with ``repro fleet run --workers N`` (:func:`repro.fleet.launch_fleet`).
    """
    results: Dict[str, RunResult] = {}
    for system in systems:
        results[system.name] = TrainingRunSimulator(system).run(
            workload.fork(), warmup=warmup)
    return results
