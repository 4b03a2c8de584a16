"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload laer-256 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload with every public layer function
wrapped (see ``tracer.py``) and reports the per-layer split instead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; see ``README.md`` beside this
file for every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (END_TO_END, PER_LAYER, SRC, THREAD_ENV,  # noqa: E402
                    emit_info, host_record)

WORKLOADS = ("laer-256", "baselines-64", "serve-mixed", "study-fleet")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace, seed: int):
    """``(attempted, failed, metrics)`` of one workload run."""
    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        import serve_workload  # traced inside the daemon process only

        return serve_workload.run(seed, args.seconds, trace)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if args.workload == "study-fleet":
        import fleet_workload

        return fleet_workload.run(seed, args.seconds, tracer)
    import sim_workloads

    return sim_workloads.run(args.workload, seed, args.seconds, tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    seed = args.seed % (2 ** 31)

    emit_info("host", host_record())
    try:
        attempted, failed, values = run_workload(args, seed)
    except Exception:
        traceback.print_exc()
        return 1
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in wanted}
    bad = [name for name, _ in wanted if not math.isfinite(
        metrics[name]["value"]) or (not args.trace and name not in values)]
    if bad:
        print(f"error: no finite value for {bad}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
