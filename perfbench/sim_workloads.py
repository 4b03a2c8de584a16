"""The two simulator-bound workloads: ``laer-256`` and ``baselines-64``.

Each repetition is one ``run_experiment(spec, parallel=False)`` call on the
same seeded spec, so every repetition must return byte-identical results.
Untraced runs time the repetitions with :class:`hostspeed.HostClock`, so
their seconds are at reference host speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from common import (BENCH_DIR, SELF_TIME_LAYERS, SYSTEMS, canonical_digest,
                    emit_info, geomean, median, self_peak_rss_mb,
                    sim_layer_metrics)
from hostspeed import HostClock, WallClock, host_scale

from repro.api.runner import ExperimentResult, run_experiment
from repro.api.specs import ClusterSpec, ExperimentSpec, SystemSpec, WorkloadSpec

SETUP_PROBES = 7
MIN_REPS = 2
LAYERS = 8
WARMUP = 2

CONFIGS = {
    # Planner-bound: LAER's per-iteration re-layout at 32 x 8 devices.
    "laer-256": {"num_nodes": 32, "iterations": 4, "scenario": "drifting",
                 "systems": ("laer", "fsdp_ep")},
    # Dispatch/simulator-bound: every baseline, no LAER planner; 101
    # iterations so SmartMoE (re-placing every 100) re-places once.
    "baselines-64": {"num_nodes": 8, "iterations": 99,
                     "scenario": "bursty-churn",
                     "systems": ("megatron", "fsdp_ep", "fastermoe",
                                 "smartmoe", "prophet", "flexmoe")},
}


def sim_spec(workload: str, seed: int) -> ExperimentSpec:
    config = CONFIGS[workload]
    return ExperimentSpec(
        name=f"perfbench-{workload}",
        cluster=ClusterSpec(num_nodes=config["num_nodes"], devices_per_node=8),
        workload=WorkloadSpec(model="mixtral-8x7b-e8k2", layers=LAYERS,
                              iterations=config["iterations"], warmup=WARMUP,
                              scenario=config["scenario"], seed=seed),
        systems=tuple(SystemSpec(name=name) for name in config["systems"]),
        reference="fsdp_ep",
    )


def probe_setup(spec: ExperimentSpec) -> float:
    """One fresh-process import + system build, in wall seconds."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"),
         json.dumps(spec.to_dict())],
        capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def measure_setup(spec: ExperimentSpec) -> float:
    """Median set-up over ``SETUP_PROBES`` fresh processes, reference seconds.

    Scaled by the mean host scale probed before each set-up and after the
    last one.
    """
    scales = [host_scale()]
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(probe_setup(spec))
        scales.append(host_scale())
    return median(setups) * sum(scales) / len(scales)


def repeat_runs(spec: ExperimentSpec, seconds: float, clock
                ) -> Tuple[List[float], List[float], List[ExperimentResult]]:
    """Run ``spec`` repeatedly for about ``seconds`` (at least twice).

    Returns each repetition's seconds on ``clock`` and on the wall, the
    latter without the clock's probes.
    """
    walls: List[float] = []
    raw: List[float] = []
    results: List[ExperimentResult] = []
    started = time.perf_counter()
    with clock:
        while (len(walls) < MIN_REPS or time.perf_counter() - started
               + median(raw) <= seconds):
            start, start_raw = clock.now(), time.perf_counter()
            probed = clock.probe_s
            results.append(run_experiment(spec, parallel=False))
            walls.append(clock.now() - start)
            raw.append(time.perf_counter() - start_raw
                       - (clock.probe_s - probed))
    return walls, raw, results


def check_results(workload: str, results: List[ExperimentResult]) -> int:
    """Wrong-answer repetitions: a differing digest or (laer-256) a LAER loss."""
    digests = [canonical_digest(r.to_dict()["systems"]) for r in results]
    failed = 0
    for result, digest in zip(results, digests):
        wrong = digest != digests[0]
        if workload == "laer-256":
            wrong = wrong or result.speedup("laer", "fsdp_ep") <= 1.0
        failed += wrong
    return failed


def run(workload: str, seed: int, seconds: float,
        tracer=None) -> Tuple[int, int, Dict[str, float]]:
    """One run; ``tracer`` (installed) selects the per-layer report."""
    trace = tracer is not None
    spec = sim_spec(workload, seed)
    steps = (len(spec.systems) * spec.workload.layers
             * (spec.workload.iterations + spec.workload.warmup))
    setup_s = 0.0 if trace else measure_setup(spec)
    walls, raw, results = repeat_runs(
        spec, seconds, WallClock() if trace else HostClock())
    failed = check_results(workload, results)
    first = results[0]
    emit_info("sim", {
        "repetition_s": walls, "repetition_wall_s": raw,
        "steps_per_repetition": steps,
        "tokens_per_s": {k: s.throughput for k, s in first.systems.items()},
        "speedup_vs_fsdp_ep": {k: s.speedup_vs_reference
                               for k, s in first.systems.items()}})
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "units_per_s": median(steps / wall for wall in walls),
            "op_p50_ms": median(walls) * 1000.0,
            "peak_rss_mb": self_peak_rss_mb(),
            "sim_tokens_per_s": geomean(
                s.throughput for s in first.systems.values()),
        }
        return len(walls), failed, metrics
    return len(walls), failed, traced_metrics(spec, walls, first, tracer)


def traced_metrics(spec: ExperimentSpec, walls: List[float],
                   result: ExperimentResult, tracer) -> Dict[str, float]:
    """Per-layer split of the traced repetitions, per repetition."""
    from tracer import aggregate, wrapper_cost_s

    reps = len(walls)
    rows = aggregate(tracer.spans)
    metrics = sim_layer_metrics(rows, 1.0 / reps)
    wall = sum(walls)
    named = sum(rows[span]["self_s"] for span in SELF_TIME_LAYERS
                if span in rows)
    metrics["workload.traced_wall_s"] = wall / reps
    metrics["workload.unattributed_s"] = (wall - named) / reps
    metrics["workload.attributed_frac"] = named / wall
    metrics["workload.tracing_overhead_s"] = (
        len(tracer.spans) * wrapper_cost_s() / reps)
    laer = rows.get("baselines.decide_iteration:LAERPolicy")
    if laer is not None and "laer" in result.systems:
        per_iteration = laer["total_s"] / laer["calls"]
        model_layers = spec.workload.model_config().num_layers
        metrics["core.planner.hidden_ratio"] = (
            per_iteration * model_layers / spec.workload.layers
            / result.systems["laer"].mean_iteration_s)
        metrics["info.laer_speedup"] = result.speedup("laer", "fsdp_ep")
    for key, system in result.systems.items():
        if key in SYSTEMS:
            metrics[f"info.tokens_per_s.{key}"] = system.throughput
    return metrics
