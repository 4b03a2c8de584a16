"""Table 2 -- evaluated model configurations.

Regenerates the model summary table (layers, total and activated parameters,
expert count and top-k) from the architecture registry and checks it against
the numbers printed in the paper.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table, print_report
from repro.workloads.model_configs import get_model_config, list_model_configs

PAPER_NUMBERS = {
    "mixtral-8x7b-e8k2": (32, 46.70, 12.88),
    "mixtral-8x22b-e8k2": (18, 45.46, 12.86),
    "qwen-8x7b-e8k2": (32, 46.69, 12.88),
    "mixtral-8x7b-e16k4": (24, 35.09, 9.73),
    "mixtral-8x22b-e16k4": (14, 35.46, 10.09),
    "qwen-8x7b-e16k4": (24, 35.09, 9.73),
}


def build_table():
    rows = []
    for name in list_model_configs():
        config = get_model_config(name)
        layers, total, activated = PAPER_NUMBERS[name]
        summary = config.summary()
        rows.append({
            "model": name,
            "layers": summary["layers"],
            "params_B": summary["params_B"],
            "paper_params_B": total,
            "activated_B": summary["activated_params_B"],
            "paper_activated_B": activated,
            "E&K": f"{config.num_experts}&{config.top_k}",
            "capacity_C": config.expert_capacity,
        })
    return rows


def test_table2_model_configurations():
    rows = build_table()
    print_report(format_table(rows, title="Table 2: evaluated model "
                                          "configurations (derived vs paper)"))
    for row in rows:
        assert abs(row["params_B"] - row["paper_params_B"]) / row["paper_params_B"] < 0.05
        assert row["layers"] == PAPER_NUMBERS[row["model"]][0]
