#!/usr/bin/env python
"""Sweep every runnable routing scenario through the study subsystem.

The sweep is now declarative end to end: the registered ``sweep-scenarios``
study expands a scenario axis into a grid of experiment specs, the
:class:`repro.study.StudyRunner` executes the grid in this process, one
cell after another, and every cell lands in a persistent
:class:`repro.store.ResultStore`.  Because run ids are content-hashed from
the specs, re-running this script is a near-instant no-op -- the store
recognises every completed cell and skips it.  To drain the same grid with
several worker processes, use the fleet (the script then skips every
cell)::

    repro fleet run sweep-scenarios --store ./scenario-sweep-store \
      --param tokens_per_device=8192 --param seed=17 --workers 2

The accumulated runs can be inspected later with::

    repro store ls     --store ./scenario-sweep-store
    repro study diff   --store ./scenario-sweep-store RUN_A RUN_B
    repro study report --store ./scenario-sweep-store --study sweep-scenarios

Run with::

    python examples/scenario_sweep.py [model-name] [store-dir]
"""

from __future__ import annotations

import sys

from repro.analysis.reporting import format_table, print_report
from repro.store import ResultStore
from repro.study import make_study, run_study
from repro.workloads.scenarios import scenario_descriptions

TOKENS_PER_DEVICE = 8192


def main(model_name: str = "mixtral-8x7b-e8k2",
         store_dir: str = "./scenario-sweep-store") -> None:
    study = make_study("sweep-scenarios", model=model_name,
                       tokens_per_device=TOKENS_PER_DEVICE, seed=17)
    store = ResultStore(store_dir)
    report = run_study(study, store)
    print(report.summary())

    descriptions = scenario_descriptions()
    rows = []
    for outcome in report.cells:
        result = store.get_result(outcome.run_id)
        laer = result.systems["laer"]
        scenario = result.spec.workload.scenario
        rows.append({
            "scenario": scenario,
            "status": outcome.status,
            "laer_tok_s": round(laer.throughput, 0),
            "speedup_vs_fsdp_ep": round(laer.speedup_vs_reference, 2),
            "rel_max_tokens": round(laer.mean_relative_max_tokens, 2),
            "description": descriptions[scenario],
        })

    print_report(format_table(
        rows, title=f"LAER-MoE vs FSDP+EP across routing scenarios "
                    f"({model_name}, 16 GPUs)"))
    best = max(rows, key=lambda row: row["speedup_vs_fsdp_ep"])
    worst = min(rows, key=lambda row: row["speedup_vs_fsdp_ep"])
    print(f"Largest win: {best['speedup_vs_fsdp_ep']:.2f}x on "
          f"{best['scenario']!r}; smallest: "
          f"{worst['speedup_vs_fsdp_ep']:.2f}x on {worst['scenario']!r}.")
    print(f"Results persisted to {store.root} "
          f"(re-running this script skips completed cells).")


if __name__ == "__main__":
    main(*sys.argv[1:3])
