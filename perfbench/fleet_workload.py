"""``study-fleet``: a scenarios x cluster-sizes study drained by a fleet.

Every drain is ``launch_fleet(study, store, workers=2)`` into a fresh store,
so each one pays the whole service path: study expansion and the resume
split, queue population, two forked worker processes claiming cells under
heart-beaten leases, outcome records, coordinator polling and the final
index compaction.  Drains repeat for the run's duration.  The host-speed
probe runs between drains, while no worker is alive; each drain's times are
scaled by the mean of the probes before and after it.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List

from common import (children_peak_rss_mb, emit_info, geomean, median,
                    work_dir)
from hostspeed import host_scale

from repro.api.specs import ClusterSpec, ExperimentSpec, SystemSpec, WorkloadSpec
from repro.chaos import verify_queue, verify_store
from repro.fleet import FleetWorker, WorkQueue, launch_fleet
from repro.store import ResultStore
from repro.study import StudyAxes, StudySpec

WORKERS = 2
MIN_DRAINS = 2
POLL_INTERVAL = 0.05
SCENARIOS = ("steady", "drifting", "bursty-churn", "diurnal")
CLUSTER_SIZES = (1, 2)

#: Worker-process registry counters folded into the per-layer report.
WORKER_COUNTERS = ("repro_queue_claims_total",
                   "repro_queue_lease_takeovers_total")


def fleet_study(seed: int) -> StudySpec:
    """8 cells of laer + fsdp_ep, ~0.1-0.2 s each on one CPU."""
    base = ExperimentSpec(
        name="perfbench-fleet",
        cluster=ClusterSpec(num_nodes=1, devices_per_node=8),
        workload=WorkloadSpec(layers=8, iterations=4, warmup=2,
                              tokens_per_device=8192, seed=seed),
        systems=(SystemSpec(name="laer"), SystemSpec(name="fsdp_ep")),
        reference="fsdp_ep")
    return StudySpec(name="perfbench-fleet", base=base,
                     axes=StudyAxes(scenarios=SCENARIOS,
                                    cluster_sizes=CLUSTER_SIZES))


def flush_spans_on_exit(tracer, spans_dir: Path) -> None:
    """Wrap ``FleetWorker.run`` so each forked worker writes its spans.

    Forked children leave through ``os._exit`` and skip ``atexit``, so the
    dump happens in the wrapper; the registry counters a worker moved are
    written alongside.
    """
    from repro.telemetry.metrics import REGISTRY

    original = FleetWorker.__dict__["run"]

    def run_and_flush(self):
        tracer.forget()
        before = {name: REGISTRY.value(name) for name in WORKER_COUNTERS}
        try:
            return original(self)
        finally:
            moved = {name: REGISTRY.value(name) - before[name]
                     for name in WORKER_COUNTERS}
            tracer.dump(spans_dir / f"worker-{os.getpid()}.json", moved)

    FleetWorker.run = run_and_flush


class Drain:
    """One timed ``launch_fleet`` into a fresh store, plus its checks."""

    def __init__(self, study: StudySpec, root: Path) -> None:
        store = ResultStore(root)
        started = time.time()
        start = time.perf_counter()
        report = launch_fleet(study, store, workers=WORKERS,
                              poll_interval=POLL_INTERVAL, check=False)
        self.wall = time.perf_counter() - start
        queue = WorkQueue(report.queue_root)
        done = list(queue.done_records().values())
        self.cells = len(report.executed)
        self.cell_seconds = [float(r["seconds"]) for r in done]
        self.setup_s = min(float(r["finished_at"]) - float(r["seconds"])
                           for r in done) - started if done else float("nan")
        self.ok = (not report.failures and self.cells == study.num_cells
                   and verify_store(store).ok
                   and verify_queue(queue, store).ok)
        self.results = {run.run_id: store.get_result(run.run_id)
                        for run in report.executed}


def run(seed: int, seconds: float, tracer=None):
    """One run; ``tracer`` (installed) selects the per-layer report."""
    study = fleet_study(seed)
    with work_dir("study-fleet") as work:
        spans_dir = work / "spans"
        spans_dir.mkdir()
        if tracer is not None:
            flush_spans_on_exit(tracer, spans_dir)
        drains: List[Drain] = []
        scales: List[float] = [host_scale()]
        started = time.perf_counter()
        while (len(drains) < MIN_DRAINS or time.perf_counter() - started
               + median(d.wall for d in drains) <= seconds):
            drains.append(Drain(study, work / f"store-{len(drains)}"))
            scales.append(host_scale())
        scaled = [(d, (before + after) / 2.0)
                  for d, before, after in zip(drains, scales, scales[1:])]
        failed = sum(not drain.ok for drain in drains)
        reference = drains[0].results
        failed += sum(
            {k: r.to_dict()["systems"] for k, r in d.results.items()}
            != {k: r.to_dict()["systems"] for k, r in reference.items()}
            for d in drains[1:])
        emit_info("fleet", {"drains": len(drains),
                            "cells_per_drain": study.num_cells,
                            "drain_wall_s": [d.wall for d in drains],
                            "host_scale": scales})
        if tracer is None:
            return len(drains), failed, {
                "setup_s": median(d.setup_s for d in drains)
                * sum(scales) / len(scales),
                "units_per_s": median(d.cells / (d.wall * k) for d, k in scaled),
                "op_p50_ms": median(d.wall * k for d, k in scaled) * 1000.0,
                "peak_rss_mb": children_peak_rss_mb(),
                "sim_tokens_per_s": geomean(
                    s.throughput for r in reference.values()
                    for s in r.systems.values()),
            }
        return len(drains), failed, traced_metrics(tracer, spans_dir, drains,
                                                   reference)


def traced_metrics(tracer, spans_dir: Path, drains: List[Drain],
                   reference) -> Dict[str, float]:
    """Coordinator timeline split by layer, plus worker-side counters."""
    from tracer import aggregate, load_dumps, subtree, wrapper_cost_s

    count = len(drains)
    rows = aggregate(subtree(tracer.spans, "fleet.launch"))
    workers = load_dumps(sorted(spans_dir.glob("worker-*.json")))
    worker_rows = aggregate(tuple(span) for dump in workers
                            for span in dump["spans"])

    def self_s(table, name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    wall = sum(d.wall for d in drains)
    coordinator = {
        "study.expand_s": self_s(rows, "study.expand")
        + self_s(rows, "study.split"),
        "store.compact_s": self_s(rows, "store.compact"),
        "fleet.coordinator_s": self_s(rows, "fleet.launch")
        + self_s(rows, "fleet.populate"),
    }
    named = sum(coordinator.values())
    cell_seconds = [s for d in drains for s in d.cell_seconds]
    puts = worker_rows.get("store.put", {})
    metrics = {
        "study.expand_s": coordinator["study.expand_s"] / count,
        "store.compact_s": coordinator["store.compact_s"] / count,
        "fleet.coordinator_s": coordinator["fleet.coordinator_s"] / count,
        "fleet.cell_s": sum(cell_seconds) / len(cell_seconds),
        "fleet.queue_overhead_frac": 1.0 - sum(cell_seconds) / (WORKERS * wall),
        "fleet.claims": sum(d["extra"].get(WORKER_COUNTERS[0], 0.0)
                            for d in workers) / count,
        "fleet.takeovers": sum(d["extra"].get(WORKER_COUNTERS[1], 0.0)
                               for d in workers) / count,
        "store.puts": puts.get("calls", 0.0) / count,
        "store.put_ms": (puts["total_s"] / puts["calls"] * 1000.0
                         if puts.get("calls") else 0.0),
        "workload.traced_wall_s": wall / count,
        "workload.unattributed_s": (wall - named) / count,
        "workload.attributed_frac": named / wall,
        "workload.tracing_overhead_s": (
            (len(tracer.spans) + sum(len(d["spans"]) for d in workers))
            * wrapper_cost_s() / count),
        "info.laer_speedup": geomean(
            r.speedup("laer", "fsdp_ep") for r in reference.values()),
    }
    for system in ("laer", "fsdp_ep"):
        metrics[f"info.tokens_per_s.{system}"] = geomean(
            r.systems[system].throughput for r in reference.values())
    return metrics
