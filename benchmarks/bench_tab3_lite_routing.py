"""Table 3 -- lite routing overhead.

Measures the wall-clock time of the synchronous lite-routing pass (the only
planner component on the critical path) for Mixtral-8x7B e8k2 and e16k4 on the
32-GPU cluster, and reports it as a percentage of the simulated per-iteration
time.  The paper reports ~25-31 ms, below 0.1% of iteration time.
"""

from __future__ import annotations

import time

from repro.analysis.reporting import format_table, print_report
from repro.core.cost_model import MoECostModel
from repro.core.layout_tuner import ExpertLayoutTuner
from repro.core.lite_routing import lite_route
from repro.workloads.model_configs import get_model_config

from conftest import make_trace, run_systems

MODELS = ["mixtral-8x7b-e8k2", "mixtral-8x7b-e16k4"]


def measure_lite_routing(paper_cluster, config, trace, repeats=20):
    """Time lite routing for every layer of one iteration, ``repeats`` times."""
    cost_model = MoECostModel.from_model_config(config, paper_cluster)
    tuner = ExpertLayoutTuner(paper_cluster, cost_model, config.expert_capacity)
    layouts = [tuner.solve(trace.layer(0, layer)).layout
               for layer in range(trace.num_layers)]
    start = time.perf_counter()
    for _ in range(repeats):
        for layer in range(trace.num_layers):
            lite_route(trace.layer(1, layer), layouts[layer], paper_cluster)
    elapsed = (time.perf_counter() - start) / repeats
    # Scale from the trace's representative layers to the full model depth.
    return elapsed * (config.num_layers / trace.num_layers)


def run_table3(paper_cluster):
    rows = []
    for name in MODELS:
        config = get_model_config(name)
        trace = make_trace(config, paper_cluster)
        routing_time = measure_lite_routing(paper_cluster, config, trace)
        iteration_time = run_systems(["laer"], config, paper_cluster,
                                     trace)["laer"].mean_iteration_time
        rows.append({
            "model": name,
            "lite_routing_ms_per_iteration": round(routing_time * 1000, 3),
            "simulated_iteration_ms": round(iteration_time * 1000, 1),
            "percentage_of_total": f"{100 * routing_time / iteration_time:.3f}%",
        })
    return rows


def test_tab3_lite_routing_overhead(paper_cluster):
    rows = run_table3(paper_cluster)
    print_report(format_table(
        rows, title="Table 3: lite routing time and share of iteration time "
                    "(paper: ~25-31 ms, < 0.1%)"))
    for row in rows:
        share = float(row["percentage_of_total"].rstrip("%"))
        assert share < 5.0, "lite routing must be negligible"
