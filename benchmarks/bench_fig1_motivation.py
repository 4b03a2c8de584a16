"""Figure 1 -- motivation: routing imbalance and its cost.

(a) Expert-load imbalance over training iterations for Mixtral-8x7B e8k2
    (the hot experts shift over time and stay well above the balanced line).
(b) Iteration-time breakdown of FSDP+EP under the observed (imbalanced)
    routing versus enforced fully balanced routing: the All-to-All share grows
    from under ~10% to over ~40% when routing is imbalanced.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.breakdown import breakdown_table_from_runs
from repro.analysis.reporting import format_series, format_table, print_report
from repro.workloads.model_configs import get_model_config
from repro.workloads.routing_traces import balanced_routing

from conftest import BENCH_WARMUP, TOKENS_PER_DEVICE, make_trace, run_systems


def run_motivation(paper_cluster):
    config = get_model_config("mixtral-8x7b-e8k2")
    trace = make_trace(config, paper_cluster, dataset="wikitext",
                       iterations=32, layers=2)

    # Fig. 1(a): per-iteration expert-load imbalance (max / mean).
    imbalance = [trace.imbalance(it, 0) for it in range(trace.num_iterations)]

    # Fig. 1(b): FSDP+EP breakdown under observed vs balanced routing.
    observed = run_systems(["fsdp_ep"], config, paper_cluster, trace)["fsdp_ep"]
    balanced_trace = balanced_routing(
        paper_cluster.num_devices, config.num_experts, TOKENS_PER_DEVICE,
        config.top_k, num_layers=2,
        num_iterations=trace.num_iterations)
    balanced = run_systems(["fsdp_ep"], config, paper_cluster,
                           balanced_trace)["fsdp_ep"]
    return imbalance, observed, balanced


def test_fig1_motivation(paper_cluster):
    imbalance, observed, balanced = run_motivation(paper_cluster)

    series = format_series(
        {"expert_load_imbalance_max_over_mean": imbalance},
        x_label="iteration", x_values=range(len(imbalance)),
        title="Figure 1(a): expert load imbalance while training Mixtral-8x7B e8k2")

    table = breakdown_table_from_runs({
        "default (imbalanced routing)": observed,
        "balanced (enforced balance)": balanced,
    })
    breakdown = format_table(
        table.as_rows(),
        title="Figure 1(b): FSDP+EP time breakdown, default vs balanced routing")

    summary = format_table([
        {"setting": "default", "all_to_all_share_pct":
            round(100 * table.all_to_all_fraction("default (imbalanced routing)"), 1)},
        {"setting": "balanced", "all_to_all_share_pct":
            round(100 * table.all_to_all_fraction("balanced (enforced balance)"), 1)},
    ], title="All-to-All share of iteration time (paper: >40% vs <10%)")

    print_report(series, breakdown, summary)

    assert np.mean(imbalance) > 1.5, "synthetic trace should be imbalanced"
    assert (table.all_to_all_fraction("default (imbalanced routing)")
            > table.all_to_all_fraction("balanced (enforced balance)") + 0.1)
