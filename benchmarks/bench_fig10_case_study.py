"""Figure 10 -- case study on Mixtral-8x7B (wikitext traces).

(a) End-to-end time breakdown (averaged across ranks) highlighting the
    All-to-All component for FSDP+EP, FlexMoE and LAER-MoE: load imbalance
    pushes FSDP+EP's All-to-All share towards ~40%, LAER-MoE brings it below
    ~20% (up to ~2.7x faster All-to-All).
(b) Relative maximum token count per MoE layer (1.0 = perfect balance):
    LAER-MoE stays closest to the ideal line on both e8k2 and e16k4.
"""

from __future__ import annotations

from repro.analysis.breakdown import breakdown_table_from_runs
from repro.analysis.reporting import format_series, format_table, print_report
from repro.workloads.model_configs import get_model_config

from conftest import make_trace, run_systems

SYSTEMS = ["fsdp_ep", "flexmoe", "laer"]
MODELS = ["mixtral-8x7b-e8k2", "mixtral-8x7b-e16k4"]


def run_case_study(paper_cluster):
    out = {}
    for name in MODELS:
        config = get_model_config(name)
        trace = make_trace(config, paper_cluster, dataset="wikitext")
        out[name] = run_systems(SYSTEMS, config, paper_cluster, trace)
    return out


def test_fig10_case_study(paper_cluster):
    results = run_case_study(paper_cluster)

    blocks = []
    for model, runs in results.items():
        table = breakdown_table_from_runs(runs)
        blocks.append(format_table(
            table.as_rows(),
            title=f"Figure 10(a): time breakdown on {model} "
                  f"(all_to_all includes imbalance stall)"))
        a2a_speedup = table.speedup_of_component("laer", "fsdp_ep", "all_to_all")
        blocks.append(format_table([{
            "model": model,
            "fsdp_ep_a2a_share_pct": round(100 * table.all_to_all_fraction("fsdp_ep"), 1),
            "laer_a2a_share_pct": round(100 * table.all_to_all_fraction("laer"), 1),
            "laer_a2a_speedup_vs_fsdp_ep": round(a2a_speedup, 2),
        }], title="All-to-All summary (paper: <20% for LAER, up to 2.68x speedup)"))

        series = {system: runs[system].per_layer_relative_max_tokens()
                  for system in SYSTEMS}
        num_layers = len(next(iter(series.values())))
        blocks.append(format_series(
            series, x_label="moe_layer", x_values=range(num_layers),
            title=f"Figure 10(b): relative max token count per layer on {model} "
                  f"(1.0 = perfect balance)"))
    print_report(*blocks)

    for model, runs in results.items():
        table = breakdown_table_from_runs(runs)
        assert table.all_to_all_fraction("laer") < table.all_to_all_fraction("fsdp_ep")
        assert (runs["laer"].mean_relative_max_tokens()
                < runs["flexmoe"].mean_relative_max_tokens() + 0.05)
        assert runs["laer"].mean_relative_max_tokens() < 1.6
