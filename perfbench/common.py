"""Shared pieces of the benchmark: metric lists, host record, statistics."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, Tuple

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
WORK_ROOT = CHECKOUT / ".perfbench-work"

#: BLAS / OpenMP pools pinned to one thread so the benchmark's processes
#: (at most 3 busy at once) stay within a 2-CPU affinity mask.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

#: End-to-end metrics (tracing off), every workload reports all of them.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_tokens_per_s", "tokens/s"),
)

SYSTEMS = ("laer", "fsdp_ep", "megatron", "fastermoe", "smartmoe",
           "prophet", "flexmoe")

#: Per-layer metrics (traced run); a layer a workload never enters reads 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.draw_s", "s"),
    ("workloads.frames", "count"),
    ("baselines.decide_self_s", "s"),
    ("baselines.decide_calls", "count"),
    ("core.planner.dispatch_s", "s"),
    ("core.planner.tune_s", "s"),
    ("core.planner.hidden_ratio", "ratio"),
    ("core.layout_tuner.solve_self_s", "s"),
    ("core.layout_tuner.candidates", "count"),
    ("core.relocation.relocate_s", "s"),
    ("core.relocation.replicas_placed", "count"),
    ("core.lite_routing.route_s", "s"),
    ("core.lite_routing.route_batch_s", "s"),
    ("core.lite_routing.routes", "count"),
    ("core.cost_model.eval_s", "s"),
    ("core.cost_model.evals", "count"),
    ("sim.iteration.simulate_self_s", "s"),
    ("sim.iteration.layers", "count"),
    ("cluster.collectives.a2a_s", "s"),
    ("cluster.collectives.a2a_calls", "count"),
    ("api.build_s", "s"),
    ("serve.http_ms", "ms"),
    ("serve.app_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.lookup_ms", "ms"),
    ("serve.describe_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.hits_exact", "count"),
    ("serve.hits_untagged", "count"),
    ("serve.hits_fingerprint", "count"),
    ("serve.misses", "count"),
    ("serve.coalesced", "count"),
    ("store.put_ms", "ms"),
    ("store.puts", "count"),
    ("store.index_cache_hit_ratio", "ratio"),
    ("store.journal_appends", "count"),
    ("store.compact_s", "s"),
    ("fleet.coordinator_s", "s"),
    ("fleet.cell_s", "s"),
    ("fleet.queue_overhead_frac", "fraction"),
    ("fleet.claims", "count"),
    ("fleet.takeovers", "count"),
    ("study.expand_s", "s"),
    ("workload.traced_wall_s", "s"),
    ("workload.unattributed_s", "s"),
    ("workload.attributed_frac", "fraction"),
    ("workload.tracing_overhead_s", "s"),
    ("info.laer_speedup", "x"),
) + tuple((f"info.tokens_per_s.{name}", "tokens/s") for name in SYSTEMS)

#: Span name -> per-layer self-time metric it adds to (seconds).
SELF_TIME_LAYERS: Dict[str, str] = {
    "workloads.draw": "workloads.draw_s",
    "baselines.decide_layer": "baselines.decide_self_s",
    "baselines.decide_iteration": "baselines.decide_self_s",
    "core.planner.dispatch": "core.planner.dispatch_s",
    "core.planner.tune": "core.planner.tune_s",
    "core.layout_tuner.solve": "core.layout_tuner.solve_self_s",
    "core.relocation.relocate": "core.relocation.relocate_s",
    "core.lite_routing.route": "core.lite_routing.route_s",
    "core.lite_routing.route_batch": "core.lite_routing.route_batch_s",
    "core.cost_model.eval": "core.cost_model.eval_s",
    "sim.iteration.simulate": "sim.iteration.simulate_self_s",
    "cluster.collectives.a2a": "cluster.collectives.a2a_s",
    "api.build": "api.build_s",
}

#: Span name -> per-layer count metric fed by the span's work count.
COUNT_LAYERS: Dict[str, str] = {
    "workloads.draw": "workloads.frames",
    "baselines.decide_layer": "baselines.decide_calls",
    "core.layout_tuner.solve": "core.layout_tuner.candidates",
    "core.relocation.relocate": "core.relocation.replicas_placed",
    "core.lite_routing.route": "core.lite_routing.routes",
    "core.lite_routing.route_batch": "core.lite_routing.routes",
    "core.cost_model.eval": "core.cost_model.evals",
    "sim.iteration.simulate": "sim.iteration.layers",
    "cluster.collectives.a2a": "cluster.collectives.a2a_calls",
}


def sim_layer_metrics(rows: Dict[str, Dict[str, float]],
                      scale: float) -> Dict[str, float]:
    """Fold aggregated spans into the simulator-layer metrics, x ``scale``."""
    out: Dict[str, float] = {}
    for span, metric in SELF_TIME_LAYERS.items():
        if span in rows:
            out[metric] = out.get(metric, 0.0) + rows[span]["self_s"] * scale
    for span, metric in COUNT_LAYERS.items():
        if span in rows:
            out[metric] = out.get(metric, 0.0) + rows[span]["count"] * scale
    return out


# ----------------------------------------------------------------------
def host_record() -> Dict[str, object]:
    import numpy

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu_model = platform.processor()
    return {"affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": THREAD_ENV["OMP_NUM_THREADS"]}


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process (its peak resident set), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@contextmanager
def work_dir(workload: str) -> Iterator[Path]:
    """A fresh scratch directory inside the checkout, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only succeeds once nothing else uses it
        except OSError:
            pass


def canonical_digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def emit_info(label: str, payload: object) -> None:
    """One human-readable line ahead of the final result line."""
    print(f"{label}: {json.dumps(payload, sort_keys=True)}", flush=True)
