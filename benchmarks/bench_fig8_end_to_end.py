"""Figure 8 -- end-to-end training throughput of the compared systems.

For every Table 2 model configuration and two dataset/auxiliary-loss
scenarios, run one declarative :class:`repro.api.ExperimentSpec` through the
shared :class:`repro.api.ExperimentRunner` -- the same pipeline behind
``repro run`` -- and report throughput plus the speedup of LAER-MoE over
Megatron (blue numbers in the paper's figure) and over FSDP+EP (purple
numbers).  Paper reference: up to 1.69x over Megatron, 1.50x over FSDP+EP and
1.39x (1.20x average) over FlexMoE.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table, print_report
from repro.api import run_experiment
from repro.workloads.model_configs import list_model_configs

from conftest import experiment_spec

SYSTEMS = ("megatron", "fsdp_ep", "flexmoe", "laer")
SCENARIOS = [
    {"dataset": "wikitext", "aux_loss_weight": 0.0},
    {"dataset": "c4", "aux_loss_weight": 1e-4},
]


def run_end_to_end(paper_cluster):
    rows = []
    for model in list_model_configs():
        for scenario in SCENARIOS:
            spec = experiment_spec(
                model, SYSTEMS, reference="megatron", topology=paper_cluster,
                dataset=scenario["dataset"],
                aux_loss_weight=scenario["aux_loss_weight"],
                name=f"fig8-{model}-{scenario['dataset']}")
            result = run_experiment(spec)
            throughputs = result.throughputs()
            rows.append({
                "model": model,
                "dataset": scenario["dataset"],
                "aux_loss": scenario["aux_loss_weight"],
                "megatron_tok_s": round(throughputs["megatron"], 0),
                "fsdp_ep_tok_s": round(throughputs["fsdp_ep"], 0),
                "flexmoe_tok_s": round(throughputs["flexmoe"], 0),
                "laer_tok_s": round(throughputs["laer"], 0),
                "laer_vs_megatron": round(result.speedup("laer", "megatron"), 2),
                "laer_vs_fsdp_ep": round(result.speedup("laer", "fsdp_ep"), 2),
                "laer_vs_flexmoe": round(result.speedup("laer", "flexmoe"), 2),
            })
    return rows


def test_fig8_end_to_end_throughput(paper_cluster):
    rows = run_end_to_end(paper_cluster)

    table = format_table(rows, title="Figure 8: end-to-end throughput and "
                                     "LAER-MoE speedups")
    vs_megatron = [row["laer_vs_megatron"] for row in rows]
    vs_fsdp = [row["laer_vs_fsdp_ep"] for row in rows]
    vs_flex = [row["laer_vs_flexmoe"] for row in rows]
    summary = format_table([{
        "speedup_vs": "megatron",
        "max": max(vs_megatron), "mean": round(float(np.mean(vs_megatron)), 2),
        "paper_max": 1.69,
    }, {
        "speedup_vs": "fsdp_ep",
        "max": max(vs_fsdp), "mean": round(float(np.mean(vs_fsdp)), 2),
        "paper_max": 1.50,
    }, {
        "speedup_vs": "flexmoe",
        "max": max(vs_flex), "mean": round(float(np.mean(vs_flex)), 2),
        "paper_max": 1.39,
    }], title="Speedup summary (paper: up to 1.69x / 1.50x / 1.39x, "
              "FlexMoE average 1.20x)")
    print_report(table, summary)

    # Shape checks: LAER-MoE wins everywhere, with speedups in the paper's range.
    assert all(row["laer_vs_megatron"] > 1.0 for row in rows)
    assert all(row["laer_vs_fsdp_ep"] > 1.0 for row in rows)
    assert 1.2 < max(vs_megatron) < 2.2
    assert 1.1 < max(vs_fsdp) < 2.0
