"""Convergence-study utilities (Fig. 2 and Fig. 9).

The paper's convergence claims have two parts:

1. FSEP does not change the math: training LAER-MoE and Megatron with the same
   auxiliary-loss weight produces the same loss trajectory (relative error
   below 1e-3, Fig. 9b).  We verify this by running the same model twice --
   once with the reference MoE layers and once with every MoE layer executed
   through the FSEP executor -- and comparing the per-step losses.
2. Loss *versus wall-clock time* favours LAER-MoE: a smaller auxiliary-loss
   weight converges in fewer steps (Fig. 2), and LAER-MoE's faster iterations
   turn that into faster convergence in time (Fig. 9a).  The wall-clock axis is
   produced by pairing the measured loss-per-step curves with the iteration
   times from the cluster simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.training.trainer import Trainer, TrainerConfig, TrainingResult
from repro.workloads.datasets import SyntheticTextDataset
from repro.workloads.model_configs import MoEModelConfig


def relative_loss_error(losses_a: Sequence[float],
                        losses_b: Sequence[float]) -> np.ndarray:
    """Per-step relative error ``(a - b) / b`` between two loss curves."""
    a = np.asarray(losses_a, dtype=np.float64)
    b = np.asarray(losses_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("loss curves must have the same length")
    return (a - b) / np.maximum(np.abs(b), 1e-12)


def steps_to_reach_loss(losses: Sequence[float], target: float) -> Optional[int]:
    """First step at which the smoothed loss drops to ``target`` (or None)."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        return None
    window = max(1, losses.size // 20)
    kernel = np.ones(window) / window
    smoothed = np.convolve(losses, kernel, mode="valid")
    below = np.nonzero(smoothed <= target)[0]
    if below.size == 0:
        return None
    return int(below[0])


@dataclass
class ConvergenceCurve:
    """A loss curve annotated with the simulated per-iteration time."""

    label: str
    losses: List[float]
    seconds_per_iteration: float

    def loss_vs_time(self) -> List[tuple]:
        """``(elapsed_seconds, loss)`` pairs for the loss-over-time plot."""
        return [((step + 1) * self.seconds_per_iteration, loss)
                for step, loss in enumerate(self.losses)]


@dataclass
class ConvergenceStudy:
    """Run the Fig. 2 / Fig. 9 convergence experiments on a small model.

    Attributes:
        model_config: Small model configuration (typically
            ``tiny_test_config``).
        dataset: Synthetic dataset standing in for WikiText / C4.
        num_steps: Training steps per run.
        base_trainer_config: Shared trainer hyper-parameters; each run
            overrides the auxiliary-loss weight and execution mode.
    """

    model_config: MoEModelConfig
    dataset: SyntheticTextDataset
    num_steps: int = 50
    base_trainer_config: TrainerConfig = field(default_factory=TrainerConfig)

    # ------------------------------------------------------------------
    def run_single(self, aux_loss_weight: float,
                   execution: str = "reference",
                   seed: Optional[int] = None) -> TrainingResult:
        """Train once with the given auxiliary-loss weight and execution mode."""
        base = self.base_trainer_config
        cfg = replace(
            base, aux_loss_weight=aux_loss_weight, execution=execution,
            seed=base.seed if seed is None else seed)
        trainer = Trainer(self.model_config, cfg, self.dataset)
        return trainer.train(self.num_steps)

    # ------------------------------------------------------------------
    def aux_loss_sweep(self, weights: Sequence[float]) -> Dict[float, TrainingResult]:
        """Fig. 2: loss curves for a sweep of auxiliary-loss weights."""
        return {weight: self.run_single(weight) for weight in weights}

    def fsep_vs_reference(self, aux_loss_weight: float = 1e-4
                          ) -> Dict[str, TrainingResult]:
        """Fig. 9(b): identical training through FSEP and the reference path."""
        return {
            "reference": self.run_single(aux_loss_weight, execution="reference"),
            "fsep": self.run_single(aux_loss_weight, execution="fsep"),
        }

    def loss_over_time(self, results: Dict[str, TrainingResult],
                       seconds_per_iteration: Dict[str, float]
                       ) -> List[ConvergenceCurve]:
        """Fig. 9(a): pair loss-per-step curves with simulated iteration times."""
        curves = []
        for label, result in results.items():
            if label not in seconds_per_iteration:
                raise KeyError(f"no iteration time provided for {label!r}")
            curves.append(ConvergenceCurve(
                label=label,
                losses=list(result.lm_losses),
                seconds_per_iteration=seconds_per_iteration[label]))
        return curves
