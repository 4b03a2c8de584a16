"""Run training systems over routing workloads and aggregate the results.

The engine consumes any :class:`~repro.workloads.scenarios.TraceSource`
(fully-materialized :class:`~repro.workloads.routing_traces.RoutingTrace`
objects included) one iteration at a time, folding every simulated iteration
into the :class:`RunResult` aggregates and then dropping it, so memory stays
O(1) in the number of iterations.

:func:`compare_systems` is the one engine loop.  It runs several systems in
lockstep, one iteration at a time: it draws each routing frame once, from
one ``workload.fork()``, marks it read-only and hands it to every system in
turn.  Systems share nothing but the frame, so no system's result depends on
which other systems run beside it or in what order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

import numpy as np

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


def compare_systems(systems: List[SystemSpec], workload: Workload,
                    warmup: int = 0) -> Dict[str, RunResult]:
    """Simulate several systems over the same workload, results by name.

    The systems run in this process, in lockstep: every iteration's frame
    is drawn once, from one ``workload.fork()``, marked read-only and
    decided and simulated by each system in list order.  Each system is
    reset first.  To spread systems over several processes, make them a
    study's ``systems`` axis and drain it with ``repro fleet run --workers
    N`` (:func:`repro.fleet.launch_fleet`).

    The source is consumed strictly in order; nothing beyond the current
    frame and the running aggregates is kept, so arbitrarily long workloads
    stream in O(1) memory.

    Args:
        systems: Systems to simulate, each at most once.
        workload: Trace source (or materialized trace) to replay.
        warmup: Iterations at the start that are simulated (so adaptive
            policies build their history) but excluded from the results.

    Returns:
        ``{system.name: RunResult}`` aggregating the post-warmup iterations,
        in list order.
    """
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    total = int(workload.num_iterations)
    if warmup >= total:
        raise ValueError("warmup leaves no iterations to measure")
    if len({id(system) for system in systems}) != len(systems):
        raise ValueError("a system may appear only once in a comparison")

    global_tokens = int(workload.tokens_per_device) * int(workload.num_devices)
    runs = []
    for system in systems:
        system.reset()
        runs.append((system, RunResult(system=system.name,
                                       tokens_per_iteration=global_tokens)))
    frames = iter(workload.fork().iter_iterations())
    for iteration in range(total):
        # Telemetry phases (no-op spans unless a tracer is armed): drawing
        # the routing frame, each system's policy decision (where the
        # planner's lite-route / layout-tuning sub-phases nest) and its cost
        # simulation.
        with _span("sim.routing-draw", iteration=iteration):
            frame = next(frames, None)
        if frame is None:
            break  # the source ended early
        routing = np.asarray(frame, dtype=np.int64)
        routing.flags.writeable = False
        for system, result in runs:
            with _span("sim.decide", system=system.name, iteration=iteration):
                decisions = system.policy.decide_iteration(routing)
            with _span("sim.simulate", system=system.name,
                       iteration=iteration):
                sim_result = system.simulator.simulate_iteration(
                    iteration, decisions)
            if iteration >= warmup:
                result.add(sim_result)
    return {system.name: result for system, result in runs}
