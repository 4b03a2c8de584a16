"""Kernel perf-regression harness: scalar vs vectorized simulation kernels.

Times the simulator's hot kernels -- trace generation, ``all_to_all``, lite
routing and a full single-system ``run_experiment`` on the profiled
configuration (64 devices, 8 MoE layers, 10 iterations) -- against verbatim
ports of the pre-vectorization scalar loops, and records the wall-clocks and
speedups to ``BENCH_perf.json`` at the repository root so future PRs have a
perf trajectory to compare against.

The scalar "before" numbers are measured in the same process by temporarily
patching the scalar kernels back in everywhere they are bound, so before and
after always come from the same host and the speedups are honest.

Usage::

    python benchmarks/bench_perf.py            # full config, asserts floors
    python benchmarks/bench_perf.py --quick    # CI smoke (smaller, faster)

Exits non-zero when a speedup floor regresses (``--no-check`` to disable).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import repro.cluster.collectives as collectives_mod
import repro.core.lite_routing as lite_routing_mod
import repro.core.relocation as relocation_mod
import repro.workloads.routing_traces as traces_mod
from repro.api.runner import run_experiment
from repro.api.specs import ClusterSpec, ExperimentSpec, SystemSpec, WorkloadSpec
from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology
from repro.core.layout import static_ep_layout
from repro.core.lite_routing import lite_route
from repro.scalar_reference import (
    scalar_all_to_all,
    scalar_draw_routing_frame,
    scalar_lite_route,
    scalar_select_device,
)
from repro.workloads.routing_traces import (
    RoutingTraceConfig,
    SyntheticRoutingTraceGenerator,
)

# Same directory; running `python benchmarks/bench_perf.py` puts it on
# sys.path.  The batched-tuner evaluation is graded in both harnesses so
# neither a perf-only nor a calib-only CI lane can miss a regression.
from bench_calib import TUNER_BATCH_FLOOR, bench_tuner_batch_eval

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
#: Quick (CI smoke) runs land next to, not on top of, the checked-in
#: full-mode baseline.
QUICK_RESULT_PATH = RESULT_PATH.with_name("BENCH_perf_quick.json")

#: The profiled configuration from the issue: 64 devices, 8 layers, 10 iters.
NUM_NODES = 8
DEVICES_PER_NODE = 8
NUM_LAYERS = 8
ITERATIONS = 10
TOKENS_PER_DEVICE = 16384

#: Acceptance floors (ISSUE 3): >=5x end-to-end, >=10x all_to_all at n=64.
END_TO_END_FLOOR = 5.0
ALL_TO_ALL_FLOOR = 10.0


# ----------------------------------------------------------------------
# Patch the scalar kernels back in, everywhere each name is bound
# ----------------------------------------------------------------------
def _rebind_everywhere(name: str, original, replacement) -> List[Tuple[object, str]]:
    """Rebind ``name`` in every imported repro module holding ``original``."""
    rebound = []
    for module in list(sys.modules.values()):
        if module is not None and getattr(module, name, None) is original:
            setattr(module, name, replacement)
            rebound.append((module, name))
    return rebound


@contextmanager
def scalar_kernels():
    """Swap every vectorized kernel for its scalar reference, then restore."""
    vec_a2a = CollectiveCostModel.all_to_all
    vec_draw = traces_mod.draw_routing_frame
    vec_route = lite_routing_mod.lite_route
    vec_select = relocation_mod._select_device
    CollectiveCostModel.all_to_all = scalar_all_to_all
    rebound = (_rebind_everywhere("draw_routing_frame", vec_draw,
                                  scalar_draw_routing_frame)
               + _rebind_everywhere("lite_route", vec_route,
                                    scalar_lite_route)
               + _rebind_everywhere("_select_device", vec_select,
                                    scalar_select_device))
    try:
        yield
    finally:
        CollectiveCostModel.all_to_all = vec_a2a
        for module, name in rebound:
            setattr(module, name,
                    {"draw_routing_frame": vec_draw,
                     "lite_route": vec_route,
                     "_select_device": vec_select}[name])


# ----------------------------------------------------------------------
# Timed workloads
# ----------------------------------------------------------------------
def best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_all_to_all(topology: ClusterTopology, repeats: int) -> dict:
    model = CollectiveCostModel(topology)
    n = topology.num_devices
    rng = np.random.default_rng(7)
    traffic = rng.uniform(0.0, 1e8, size=(n, n))
    np.fill_diagonal(traffic, 0.0)
    vec = model.all_to_all(traffic)
    ref = scalar_all_to_all(model, traffic, list(range(n)))
    assert abs(vec - ref) <= 1e-9 * max(abs(vec), abs(ref)), \
        "vectorized all_to_all diverged from the scalar reference"
    vectorized_s = best_of(lambda: model.all_to_all(traffic), repeats * 20)
    scalar_s = best_of(
        lambda: scalar_all_to_all(model, traffic, list(range(n))), repeats)
    return {"n": n, "scalar_s": scalar_s, "vectorized_s": vectorized_s,
            "speedup": scalar_s / vectorized_s}


def bench_trace_generation(iterations: int, repeats: int) -> dict:
    config = RoutingTraceConfig(
        num_devices=NUM_NODES * DEVICES_PER_NODE, num_experts=8,
        num_layers=NUM_LAYERS, tokens_per_device=TOKENS_PER_DEVICE,
        top_k=2, seed=17)

    def generate():
        return SyntheticRoutingTraceGenerator(config).generate(iterations)

    vectorized_s = best_of(generate, repeats * 3)
    with scalar_kernels():
        scalar_s = best_of(generate, repeats)
    return {"iterations": iterations, "scalar_s": scalar_s,
            "vectorized_s": vectorized_s, "speedup": scalar_s / vectorized_s}


def bench_lite_route(topology: ClusterTopology, repeats: int) -> dict:
    n = topology.num_devices
    rng = np.random.default_rng(23)
    routing = rng.integers(0, 2 * TOKENS_PER_DEVICE // 8, size=(n, 8))
    layout = static_ep_layout(n, 8, 2)
    assert np.array_equal(lite_route(routing, layout, topology),
                          scalar_lite_route(routing, layout, topology))
    vectorized_s = best_of(
        lambda: lite_route(routing, layout, topology), repeats * 10)
    scalar_s = best_of(
        lambda: scalar_lite_route(routing, layout, topology), repeats)
    return {"n": n, "scalar_s": scalar_s, "vectorized_s": vectorized_s,
            "speedup": scalar_s / vectorized_s}


def bench_end_to_end(iterations: int) -> dict:
    spec = ExperimentSpec(
        name="bench-perf",
        cluster=ClusterSpec(num_nodes=NUM_NODES,
                            devices_per_node=DEVICES_PER_NODE),
        workload=WorkloadSpec(model="mixtral-8x7b-e8k2", layers=NUM_LAYERS,
                              tokens_per_device=TOKENS_PER_DEVICE,
                              iterations=iterations),
        systems=(SystemSpec(name="laer"),),
    )

    def run():
        return run_experiment(spec)

    run()  # warm caches/imports before timing either path
    start = time.perf_counter()
    vectorized = run()
    vectorized_s = time.perf_counter() - start
    with scalar_kernels():
        start = time.perf_counter()
        scalar = run()
        scalar_s = time.perf_counter() - start
    vec_tp = vectorized.systems["laer"].throughput
    sc_tp = scalar.systems["laer"].throughput
    return {"num_devices": NUM_NODES * DEVICES_PER_NODE,
            "layers": NUM_LAYERS, "iterations": iterations,
            "scalar_s": scalar_s, "vectorized_s": vectorized_s,
            "speedup": scalar_s / vectorized_s,
            "vectorized_throughput_tokens_per_s": vec_tp,
            "scalar_throughput_tokens_per_s": sc_tp}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: fewer iterations and repeats")
    parser.add_argument("--no-check", action="store_true",
                        help="record numbers without asserting the floors")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"result path (default: {RESULT_PATH}, or "
                             f"{QUICK_RESULT_PATH} with --quick so smoke "
                             f"runs never clobber the checked-in baseline)")
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = QUICK_RESULT_PATH if args.quick else RESULT_PATH

    iterations = 3 if args.quick else ITERATIONS
    repeats = 1 if args.quick else 3
    topology = ClusterTopology(num_nodes=NUM_NODES,
                               devices_per_node=DEVICES_PER_NODE)

    print(f"benchmarking vectorized kernels "
          f"({'quick' if args.quick else 'full'} mode, "
          f"{topology.num_devices} devices, {NUM_LAYERS} layers, "
          f"{iterations} iterations) ...")
    tuner_bench = bench_tuner_batch_eval(args.quick, seed=7)
    kernels = {
        "all_to_all": bench_all_to_all(topology, repeats),
        "trace_generation": bench_trace_generation(iterations, repeats),
        "lite_route": bench_lite_route(topology, repeats),
        "tuner_batch_eval": {
            "n": tuner_bench["num_devices"],
            "candidates": tuner_bench["candidates"],
            "scalar_s": tuner_bench["scalar_s"],
            "vectorized_s": tuner_bench["batched_s"],
            "speedup": tuner_bench["speedup"],
        },
        "run_experiment": bench_end_to_end(iterations),
    }
    for name, result in kernels.items():
        print(f"  {name:18s} scalar {result['scalar_s'] * 1e3:9.2f} ms   "
              f"vectorized {result['vectorized_s'] * 1e3:9.2f} ms   "
              f"speedup {result['speedup']:6.1f}x")

    record = {
        "benchmark": "bench_perf",
        "mode": "quick" if args.quick else "full",
        "config": {"num_nodes": NUM_NODES,
                   "devices_per_node": DEVICES_PER_NODE,
                   "layers": NUM_LAYERS, "iterations": iterations,
                   "tokens_per_device": TOKENS_PER_DEVICE,
                   "system": "laer"},
        "host": {"cpu_count": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "kernels": {name: {key: (round(value, 6)
                                 if isinstance(value, float) else value)
                           for key, value in result.items()}
                    for name, result in kernels.items()},
        "floors": {"run_experiment": END_TO_END_FLOOR,
                   "all_to_all": ALL_TO_ALL_FLOOR,
                   "tuner_batch_eval": TUNER_BATCH_FLOOR},
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"recorded to {args.output}")

    if not args.no_check:
        failures = []
        if kernels["run_experiment"]["speedup"] < END_TO_END_FLOOR:
            failures.append(
                f"run_experiment speedup "
                f"{kernels['run_experiment']['speedup']:.1f}x "
                f"< {END_TO_END_FLOOR}x floor")
        if kernels["all_to_all"]["speedup"] < ALL_TO_ALL_FLOOR:
            failures.append(
                f"all_to_all speedup {kernels['all_to_all']['speedup']:.1f}x "
                f"< {ALL_TO_ALL_FLOOR}x floor")
        if kernels["tuner_batch_eval"]["speedup"] < TUNER_BATCH_FLOOR:
            failures.append(
                f"tuner_batch_eval speedup "
                f"{kernels['tuner_batch_eval']['speedup']:.1f}x "
                f"< {TUNER_BATCH_FLOOR}x floor")
        if failures:
            print("PERF REGRESSION: " + "; ".join(failures), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
