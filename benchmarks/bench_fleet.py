"""Fleet perf harness: in-process study execution vs a multi-process fleet.

Runs the same >= 8-cell study twice into fresh stores -- once through the
in-process :class:`repro.study.StudyRunner`, once through
:func:`repro.fleet.launch_fleet` with ``--workers`` worker processes -- and
records both wall-clocks plus the speedup to ``BENCH_fleet.json`` at the
repository root.  Both runs stamp a fixed ``created_at``
(``REPRO_STORE_FIXED_CREATED_AT``), so the two stores must be byte-identical
(equal :func:`repro.chaos.store_digest`), which the harness asserts: the
fleet is another transport for the *same* results, never a different
experiment.

The wall-clock floor (fleet must beat in-process) is only asserted on hosts
with at least 4 usable CPUs: on 1-2 CPU runners the worker processes share
one core and the comparison measures the scheduler, not the fleet.

Usage::

    python benchmarks/bench_fleet.py             # 8 cells, 2 workers
    python benchmarks/bench_fleet.py --quick     # CI smoke (4 cells)

Exits non-zero when the fleet loses on a capable host (``--no-check`` to
disable).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api.specs import ClusterSpec, ExperimentSpec, WorkloadSpec
from repro.chaos import store_digest
from repro.fleet import launch_fleet
from repro.store import FIXED_CREATED_AT_ENV, ResultStore
from repro.study import StudyAxes, StudyRunner, StudySpec

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"
#: Quick (CI smoke) runs land next to, not on top of, the checked-in record.
QUICK_RESULT_PATH = RESULT_PATH.with_name("BENCH_fleet_quick.json")

#: Below this many usable CPUs the wall-clock floor is informational only.
MIN_CPUS_FOR_FLOOR = 4

#: Run timestamp both stores are stamped with, so their bytes can agree.
FIXED_CREATED_AT = "1000000000.0"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def fleet_study(quick: bool) -> StudySpec:
    """systems x cluster-sizes grid: 8 one-system cells (4 when quick).

    Cells are deliberately heavy enough (multi-node clusters, 4 trace
    layers, tens of iterations) that worker-process startup is amortized --
    a fleet of near-instant cells measures ``fork``/``spawn``, not the
    queue.
    """
    base = ExperimentSpec(
        name="bench",
        cluster=ClusterSpec(num_nodes=2, devices_per_node=8),
        workload=WorkloadSpec(tokens_per_device=8192, layers=4,
                              iterations=16 if quick else 32, warmup=2,
                              seed=23),
        systems=("laer",),
        reference="laer",
    )
    systems = ((("fsdp_ep",), ("laer",)) if quick
               else (("fsdp_ep",), ("laer",), ("fastermoe",), ("smartmoe",)))
    return StudySpec(name="bench-fleet", base=base,
                     axes=StudyAxes(systems=systems, cluster_sizes=(2, 4)))


def run_in_process(study: StudySpec, root: Path) -> float:
    store = ResultStore(root)
    start = time.perf_counter()
    report = StudyRunner(store).run(study)
    elapsed = time.perf_counter() - start
    assert len(report.executed) == study.num_cells
    return elapsed


def run_fleet(study: StudySpec, root: Path, workers: int) -> float:
    store = ResultStore(root)
    start = time.perf_counter()
    report = launch_fleet(study, store, workers=workers, poll_interval=0.05)
    elapsed = time.perf_counter() - start
    assert len(report.executed) == study.num_cells
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller grid for the CI smoke step")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--no-check", action="store_true",
                        help="record numbers without asserting the floor")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    output = args.output or (QUICK_RESULT_PATH if args.quick else RESULT_PATH)

    study = fleet_study(args.quick)
    cpus = _usable_cpus()
    # Fleet workers inherit the environment, so both stores get this stamp.
    os.environ.setdefault(FIXED_CREATED_AT_ENV, FIXED_CREATED_AT)
    workdir = Path(tempfile.mkdtemp(prefix="bench-fleet-"))
    try:
        in_process_s = run_in_process(study, workdir / "in-process")
        fleet_s = run_fleet(study, workdir / "fleet", args.workers)
        agree = (store_digest(workdir / "in-process")
                 == store_digest(workdir / "fleet"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speedup = in_process_s / fleet_s if fleet_s > 0 else float("inf")
    record = {
        "host": {"platform": platform.platform(), "python":
                 platform.python_version(), "usable_cpus": cpus},
        "config": {"cells": study.num_cells, "workers": args.workers,
                   "quick": args.quick},
        "sequential_s": round(in_process_s, 4),
        "fleet_s": round(fleet_s, 4),
        "speedup": round(speedup, 3),
        "stores_agree": agree,
        "floor_asserted": cpus >= MIN_CPUS_FOR_FLOOR and not args.no_check,
    }
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{study.num_cells} cells: in-process {in_process_s:.2f}s, "
          f"{args.workers}-worker fleet {fleet_s:.2f}s "
          f"({speedup:.2f}x, {cpus} CPUs) -> {output}")

    failed = False
    if not agree:
        print("FAIL: fleet and in-process stores differ (store_digest)",
              file=sys.stderr)
        failed = True
    if not args.no_check and cpus >= MIN_CPUS_FOR_FLOOR and speedup <= 1.0:
        print(f"FAIL: fleet ({fleet_s:.2f}s) did not beat in-process "
              f"({in_process_s:.2f}s) on a {cpus}-CPU host", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
