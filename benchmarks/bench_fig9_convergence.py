"""Figure 9 -- convergence study on Mixtral-8x7B e8k2 (scaled down).

(a) Loss over training steps and over wall-clock time for LAER-MoE with
    auxiliary loss 1e-4 versus Megatron with auxiliary loss 1e-2 and 1e-4.
    Per-step curves come from real numpy training; the wall-clock axis pairs
    them with the per-iteration times from the cluster simulator.
(b) Relative error between LAER-MoE (every MoE layer executed through the
    FSEP executor) and the Megatron-style reference at the same auxiliary
    loss weight -- the paper requires it to stay below 1e-3.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_series, format_table, print_report
from repro.training.convergence import ConvergenceStudy, relative_loss_error
from repro.training.trainer import TrainerConfig
from repro.workloads.datasets import get_dataset
from repro.workloads.model_configs import get_model_config, tiny_test_config

from conftest import make_trace, run_systems

NUM_STEPS = 30


def run_convergence(paper_cluster):
    study = ConvergenceStudy(
        model_config=tiny_test_config(),
        dataset=get_dataset("wikitext"),
        num_steps=NUM_STEPS,
        base_trainer_config=TrainerConfig(batch_size=4, seq_length=32,
                                          learning_rate=3e-3, num_devices=8,
                                          seed=23),
    )
    # Loss-per-step curves.
    runs = {
        "laer_aux1e-4": study.run_single(1e-4, execution="fsep"),
        "megatron_aux1e-4": study.run_single(1e-4, execution="reference"),
        "megatron_aux1e-2": study.run_single(1e-2, execution="reference"),
    }

    # Per-iteration times from the cluster simulator (full-size model):
    # Megatron's routing under aux 1e-2 is much more balanced, so its
    # iterations are faster than under aux 1e-4, but still slower than LAER.
    config = get_model_config("mixtral-8x7b-e8k2")
    seconds = {}
    trace_1e4 = make_trace(config, paper_cluster, aux_loss_weight=1e-4)
    results = run_systems(["megatron", "laer"], config, paper_cluster, trace_1e4)
    seconds["laer_aux1e-4"] = results["laer"].mean_iteration_time
    seconds["megatron_aux1e-4"] = results["megatron"].mean_iteration_time
    trace_1e2 = make_trace(config, paper_cluster, aux_loss_weight=1e-2)
    seconds["megatron_aux1e-2"] = run_systems(
        ["megatron"], config, paper_cluster, trace_1e2)["megatron"].mean_iteration_time

    curves = study.loss_over_time(runs, seconds)
    errors = relative_loss_error(runs["laer_aux1e-4"].lm_losses,
                                 runs["megatron_aux1e-4"].lm_losses)
    return runs, seconds, curves, errors


def test_fig9_convergence(paper_cluster):
    runs, seconds, curves, errors = run_convergence(paper_cluster)

    loss_vs_steps = format_series(
        {label: run.lm_losses for label, run in runs.items()},
        x_label="step", x_values=range(NUM_STEPS),
        title="Figure 9(a) right: loss vs training steps")

    time_rows = []
    for curve in curves:
        time_rows.append({
            "system": curve.label,
            "seconds_per_iteration": round(curve.seconds_per_iteration, 3),
            "loss_after_run": round(curve.losses[-1], 4),
            "sim_time_for_run_s": round(
                curve.seconds_per_iteration * len(curve.losses), 1),
        })
    loss_vs_time = format_table(
        time_rows, title="Figure 9(a) left: simulated wall-clock per iteration "
                         "(lower => faster loss-vs-time convergence)")

    error_series = format_series(
        {"relative_error": list(errors)}, x_label="iteration",
        x_values=range(NUM_STEPS),
        title="Figure 9(b): relative error LAER-MoE vs Megatron (aux 1e-4), "
              "threshold 1e-3")
    print_report(loss_vs_steps, loss_vs_time, error_series)

    # FSEP changes nothing numerically: relative error well below 1e-3.
    assert float(np.max(np.abs(errors))) < 1e-3
    # LAER-MoE iterates faster than Megatron at the same auxiliary loss.
    assert seconds["laer_aux1e-4"] < seconds["megatron_aux1e-4"]
    # The lighter auxiliary loss reaches an equal-or-better LM loss per step.
    assert (runs["laer_aux1e-4"].final_loss()
            <= runs["megatron_aux1e-2"].final_loss() + 0.1)
