"""Execute an :class:`ExperimentSpec` end to end and collect structured results.

The :class:`ExperimentRunner` is the single implementation of the
trace-generation -> system-construction -> simulation -> analysis pipeline
that the CLI, the benchmarks and the examples previously each hand-wired.
It returns an :class:`ExperimentResult` -- per-system throughput, speedups,
time breakdown and balance statistics -- that serializes to JSON for
downstream tooling and round-trips through ``to_dict`` / ``from_dict``.

:func:`run_planner_study` covers the planner-only flow (``repro plan``):
it replays a trace through the load-balancing planner and reports balance
and layer cost against the static EP layout, aggregated over *all* MoE
layers of the trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.analysis.breakdown import BreakdownTable
from repro.analysis.reporting import format_speedup_table, format_table
from repro.core.layout import static_ep_layout
from repro.core.lite_routing import LiteRouting
from repro.sim.engine import RunResult, compare_systems
from repro.sim.systems import make_system
from repro.api.specs import ExperimentSpec


@dataclass
class SystemResult:
    """Aggregated, serializable outcome of simulating one system.

    Attributes:
        key: Result key (the system spec's label).
        system: Registry name of the simulated system.
        throughput: Training throughput in tokens per second.
        mean_iteration_s: Mean iteration time in seconds.
        tokens_per_iteration: Global tokens processed per iteration.
        speedup_vs_reference: Throughput ratio over the experiment's
            reference system.
        breakdown_s: Mean per-iteration seconds of every time component.
        mean_relative_max_tokens: Mean over iterations of the worst relative
            per-device token count (1.0 = perfect balance).
        per_layer_relative_max_tokens: The same statistic per MoE layer
            (Fig. 10b series).
    """

    key: str
    system: str
    throughput: float
    mean_iteration_s: float
    tokens_per_iteration: int
    speedup_vs_reference: float
    breakdown_s: Dict[str, float] = field(default_factory=dict)
    mean_relative_max_tokens: float = 1.0
    per_layer_relative_max_tokens: List[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    def breakdown_fractions(self) -> Dict[str, float]:
        """Breakdown components as fractions of the mean iteration time."""
        if self.mean_iteration_s <= 0:
            return {key: 0.0 for key in self.breakdown_s}
        return {key: value / self.mean_iteration_s
                for key, value in self.breakdown_s.items()}

    def all_to_all_fraction(self) -> float:
        """Fraction of iteration time spent in (exposed) All-to-All traffic."""
        fractions = self.breakdown_fractions()
        return (fractions.get("all_to_all", 0.0)
                + fractions.get("exposed_comm", 0.0)
                + fractions.get("relayout", 0.0))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "system": self.system,
            "throughput": self.throughput,
            "mean_iteration_s": self.mean_iteration_s,
            "tokens_per_iteration": self.tokens_per_iteration,
            "speedup_vs_reference": self.speedup_vs_reference,
            "breakdown_s": dict(self.breakdown_s),
            "mean_relative_max_tokens": self.mean_relative_max_tokens,
            "per_layer_relative_max_tokens":
                list(self.per_layer_relative_max_tokens),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemResult":
        return cls(**dict(data))

    @classmethod
    def from_run(cls, key: str, system: str, run: RunResult,
                 reference_throughput: float) -> "SystemResult":
        """Summarise a simulator :class:`RunResult`."""
        speedup = (run.throughput / reference_throughput
                   if reference_throughput > 0 else float("inf"))
        # Coerce to builtin types: the simulator hands back numpy scalars,
        # which would otherwise leak into to_dict() and make in-memory
        # results compare unequal to their JSON round-trips.
        return cls(
            key=key,
            system=system,
            throughput=float(run.throughput),
            mean_iteration_s=float(run.mean_iteration_time),
            tokens_per_iteration=int(run.tokens_per_iteration),
            speedup_vs_reference=float(speedup),
            breakdown_s={name: float(seconds)
                         for name, seconds in run.mean_breakdown().items()},
            mean_relative_max_tokens=float(run.mean_relative_max_tokens()),
            per_layer_relative_max_tokens=[
                float(value)
                for value in run.per_layer_relative_max_tokens()],
        )


@dataclass
class ExperimentResult:
    """Structured outcome of running an :class:`ExperimentSpec`.

    Attributes:
        spec: The spec that produced this result (so results are
            self-describing and re-runnable).
        reference: System key the speedups are relative to (after any
            substitution).
        requested_reference: Reference key the spec asked for.
        systems: Per-system results, in spec order.
        execution_mode: How the systems were executed.  Every run writes
            ``"sequential"``; results stored by older versions may carry
            ``"parallel"``, ``"sequential-auto"`` or
            ``"sequential-fallback"`` and load unchanged.  Empty for results
            loaded from pre-mode JSON files.
    """

    spec: ExperimentSpec
    reference: str
    requested_reference: str
    systems: Dict[str, SystemResult] = field(default_factory=dict)
    execution_mode: str = ""

    # ------------------------------------------------------------------
    @property
    def reference_substituted(self) -> bool:
        """Whether the requested reference was absent and got substituted."""
        return self.reference != self.requested_reference

    def throughputs(self) -> Dict[str, float]:
        """System key -> tokens per second."""
        return {key: result.throughput for key, result in self.systems.items()}

    def speedup(self, system: str, over: str) -> float:
        """Throughput ratio of ``system`` over ``over``."""
        denominator = self.systems[over].throughput
        if denominator <= 0:
            return float("inf")
        return self.systems[system].throughput / denominator

    # ------------------------------------------------------------------
    # Reporting helpers shared by the CLI / benchmarks / examples
    # ------------------------------------------------------------------
    def breakdown_table(self) -> BreakdownTable:
        """Per-system time breakdown table (Fig. 1b / Fig. 10a style)."""
        table = BreakdownTable()
        for key, result in self.systems.items():
            table.add(key, result.breakdown_s, result.mean_iteration_s)
        return table

    def format_speedups(self, title: Optional[str] = None) -> str:
        """ASCII speedup table against the experiment's reference."""
        return format_speedup_table(self.throughputs(), self.reference,
                                    title=title)

    def format_breakdown(self, title: Optional[str] = None) -> str:
        """ASCII time-breakdown table."""
        return format_table(self.breakdown_table().as_rows(), title=title)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "reference": self.reference,
            "requested_reference": self.requested_reference,
            "systems": {key: result.to_dict()
                        for key, result in self.systems.items()},
            "execution_mode": self.execution_mode,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            reference=data["reference"],
            requested_reference=data["requested_reference"],
            systems={key: SystemResult.from_dict(result)
                     for key, result in data["systems"].items()},
            # `or ""` so an explicit null in a hand-edited/legacy file maps
            # to the missing-mode default instead of the string "None".
            execution_mode=str(data.get("execution_mode") or ""),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        """Write the result to a JSON file and return the path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentResult":
        """Load a result from a JSON file."""
        return cls.from_json(Path(path).read_text())


class ExperimentRunner:
    """Execute experiment specs: scenario -> systems -> simulation -> analysis.

    The workload is materialised lazily: the spec's scenario is built once
    into a streaming :class:`~repro.workloads.scenarios.TraceSource`, and
    :func:`~repro.sim.engine.compare_systems` draws each of its frames once
    and hands it to every system in turn.  The systems run in this process,
    in lockstep; a comparison that needs several processes is a study with a
    ``systems`` axis drained by ``repro fleet run --workers N``.  The runner
    keeps no state between :meth:`run` calls.
    """

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        """Run one experiment end to end.

        Args:
            spec: The experiment to execute.

        Returns:
            An :class:`ExperimentResult` with one :class:`SystemResult` per
            system, in spec order.  If ``spec.reference`` is not among the
            simulated systems, the first system is substituted and the
            substitution is recorded (``requested_reference`` vs
            ``reference``).
        """
        topology = spec.cluster.to_topology()
        config = spec.workload.model_config()
        source = spec.workload.make_source(topology.num_devices)

        systems = []
        for system_spec in spec.systems:
            built = make_system(
                system_spec.name, config, topology,
                spec.workload.tokens_per_device,
                activation_checkpointing=spec.activation_checkpointing,
                overflow=spec.overflow,
                calibration=spec.calibration,
                **system_spec.options)
            built.name = system_spec.key
            systems.append(built)

        runs = compare_systems(systems, source, warmup=spec.workload.warmup)

        reference = (spec.reference if spec.reference in runs
                     else next(iter(runs)))
        reference_throughput = runs[reference].throughput
        results = {
            system_spec.key: SystemResult.from_run(
                system_spec.key, system_spec.name, runs[system_spec.key],
                reference_throughput)
            for system_spec in spec.systems
        }
        return ExperimentResult(spec=spec, reference=reference,
                                requested_reference=spec.reference,
                                systems=results, execution_mode="sequential")


def run_experiment(spec: ExperimentSpec,
                   parallel: bool = False) -> ExperimentResult:
    """Convenience wrapper: run ``spec`` with a fresh :class:`ExperimentRunner`.

    ``parallel`` is accepted for existing callers and ignored: the systems
    always run in this process, in lockstep.
    """
    return ExperimentRunner().run(spec)


# ----------------------------------------------------------------------
# Planner study (the ``repro plan`` flow)
# ----------------------------------------------------------------------
@dataclass
class PlannerIterationStats:
    """Planner-vs-static balance of one iteration, aggregated over all layers.

    Attributes:
        iteration: Iteration index within the trace.
        planned_rel_max_tokens: Worst (max over layers) relative per-device
            token count under the planner's layouts (1.0 = perfect balance).
        static_rel_max_tokens: Same statistic under the static EP layout.
        planned_ms: Planner's modelled MoE time summed over all layers, ms.
        static_ms: Static EP modelled MoE time summed over all layers, ms.
    """

    iteration: int
    planned_rel_max_tokens: float
    static_rel_max_tokens: float
    planned_ms: float
    static_ms: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "iteration": self.iteration,
            "planned_rel_max_tokens": self.planned_rel_max_tokens,
            "static_rel_max_tokens": self.static_rel_max_tokens,
            "planned_ms": self.planned_ms,
            "static_ms": self.static_ms,
        }


def run_planner_study(spec: ExperimentSpec) -> List[PlannerIterationStats]:
    """Replay a spec's trace through the load-balancing planner.

    Every iteration's statistics aggregate over *all* MoE layers of the
    trace: the balance figure is the worst layer's relative max token count
    and the cost figures sum the per-layer modelled times, so the workload's
    ``layers`` knob genuinely affects the report.

    The first ``spec.workload.warmup`` iterations are replayed (so the
    planner builds its history, matching :class:`ExperimentRunner`) but
    excluded from the returned statistics; ``iteration`` indices are
    positions within the trace, so the first reported entry is ``warmup``.

    The workload streams through the scenario's
    :class:`~repro.workloads.scenarios.TraceSource` one frame at a time
    (like the simulation engine), so memory stays O(1) in the number of
    iterations instead of materializing the whole trace up front.  Each
    iteration scores the static layout's layers with one ``evaluate_batch``
    of their unbuilt ``LiteRouting``, equal to scoring their plans as
    :meth:`~repro.core.planner.LoadBalancingPlanner.plan_iteration` does
    for the planner's.

    The planner, its (calibrated) topology and its cost model are those of
    the ``laer`` system that :func:`~repro.sim.systems.make_system` builds
    for the spec.
    """
    config = spec.workload.model_config()
    planner = make_system(
        "laer", config, spec.cluster.to_topology(),
        spec.workload.tokens_per_device,
        activation_checkpointing=spec.activation_checkpointing,
        calibration=spec.calibration).policy.planner
    topology, cost_model = planner.topology, planner.cost_model
    source = spec.workload.make_source(topology.num_devices)
    static = static_ep_layout(topology.num_devices, config.num_experts,
                              config.expert_capacity)

    stats: List[PlannerIterationStats] = []
    for iteration, frame in enumerate(source.iter_iterations()):
        plans = planner.plan_iteration(frame)
        if iteration < spec.workload.warmup:
            continue
        static_costs = cost_model.evaluate_batch(
            LiteRouting(frame, [static] * len(frame)))
        planned_rel, static_rel = [], []
        planned_total = static_total = 0.0
        for routing, plan, static_cost in zip(frame, plans, static_costs):
            ideal = routing.sum() / topology.num_devices
            planned_rel.append(plan.cost.max_tokens / ideal)
            static_rel.append(static_cost.max_tokens / ideal)
            planned_total += plan.cost.total
            static_total += static_cost.total
        stats.append(PlannerIterationStats(
            iteration=iteration,
            planned_rel_max_tokens=float(max(planned_rel)),
            static_rel_max_tokens=float(max(static_rel)),
            planned_ms=float(planned_total * 1000.0),
            static_ms=float(static_total * 1000.0),
        ))
    return stats
