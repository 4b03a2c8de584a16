"""Figure 2 -- convergence impact of the auxiliary-loss weight.

Training the (scaled-down) MoE language model with increasing auxiliary-loss
weights slows convergence: larger weights need more steps to reach the same
loss, which is the reason the paper pursues system-level (not algorithmic)
load balancing.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_series, format_table, print_report
from repro.training.convergence import ConvergenceStudy, steps_to_reach_loss
from repro.training.trainer import TrainerConfig
from repro.workloads.datasets import get_dataset
from repro.workloads.model_configs import tiny_test_config

AUX_WEIGHTS = [0.0, 1e-4, 1e-2, 1e-1]
NUM_STEPS = 40


def run_sweep():
    study = ConvergenceStudy(
        model_config=tiny_test_config(),
        dataset=get_dataset("wikitext"),
        num_steps=NUM_STEPS,
        base_trainer_config=TrainerConfig(batch_size=4, seq_length=32,
                                          learning_rate=3e-3, num_devices=8,
                                          seed=17),
    )
    return study.aux_loss_sweep(AUX_WEIGHTS)


def test_fig2_aux_loss_convergence():
    results = run_sweep()

    series = {f"aux={weight:g}": results[weight].lm_losses
              for weight in AUX_WEIGHTS}
    curves = format_series(series, x_label="step", x_values=range(NUM_STEPS),
                           title="Figure 2: LM loss vs steps for different "
                                 "auxiliary loss weights")

    target = float(np.mean(results[0.0].lm_losses[-5:])) + 0.05
    rows = []
    for weight in AUX_WEIGHTS:
        steps = steps_to_reach_loss(results[weight].lm_losses, target)
        rows.append({
            "aux_loss_weight": weight,
            "final_lm_loss": round(results[weight].final_loss(), 4),
            f"steps_to_loss<={round(target, 3)}":
                steps if steps is not None else f">{NUM_STEPS}",
            "mean_expert_imbalance":
                round(float(np.mean(results[weight].expert_imbalance())), 3),
        })
    summary = format_table(rows, title="Convergence summary (larger aux weight "
                                       "=> slower convergence, better balance)")
    print_report(curves, summary)

    # The headline claim: turning the auxiliary loss up does not help the LM
    # loss (it trades model quality for balance).
    assert results[1e-1].final_loss() >= results[0.0].final_loss() - 0.05
    # And it does improve routing balance.
    assert (np.mean(results[1e-1].expert_imbalance())
            <= np.mean(results[0.0].expert_imbalance()) + 0.05)
