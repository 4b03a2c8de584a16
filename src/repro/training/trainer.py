"""Training loop for the numpy MoE transformer.

Both execution modes run :meth:`MoETransformer.forward` and
:meth:`MoETransformer.backward`; they differ only in the MoE layer each block
calls:

* ``reference`` -- the block's own single-device :class:`MoELayer` (this is
  what Megatron-style training computes);
* ``fsep`` -- the block's MoE layer run through the
  :class:`~repro.core.executor.FSEPExecutor` under the planner's current
  layout: tokens are sharded over the simulated cluster, experts are restored
  per the layout and gradients travel through the reshard path.  The planner
  then observes the layer's routing and tunes its next layout.

Both modes produce the same gradients up to floating-point summation order,
which is exactly the paper's "no loss in precision" claim (Sec. 3.1, Fig. 9b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel
from repro.core.executor import FSEPExecutor
from repro.core.planner import LoadBalancingPlanner
from repro.model.optimizer import Adam, clip_gradients
from repro.model.transformer import ModelOutput, MoETransformer
from repro.workloads.datasets import SyntheticTextDataset
from repro.workloads.model_configs import MoEModelConfig
from repro.workloads.routing_traces import RoutingTrace


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters of a training run.

    Attributes:
        batch_size: Sequences per step.
        seq_length: Tokens per sequence.
        learning_rate: Adam learning rate.
        weight_decay: Decoupled weight decay.
        max_grad_norm: Global gradient-norm clip (0 disables clipping).
        aux_loss_weight: Switch auxiliary loss coefficient.
        execution: ``"reference"`` or ``"fsep"``.
        num_devices: Simulated cluster size used by the FSEP execution mode and
            for routing-trace extraction.
        seed: Data/initialisation seed.
    """

    batch_size: int = 8
    seq_length: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    max_grad_norm: float = 1.0
    aux_loss_weight: float = 0.0
    execution: str = "reference"
    num_devices: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.seq_length <= 0:
            raise ValueError("batch_size and seq_length must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.execution not in ("reference", "fsep"):
            raise ValueError("execution must be 'reference' or 'fsep'")
        if self.num_devices <= 0:
            raise ValueError("num_devices must be positive")


@dataclass
class TrainingResult:
    """Outcome of a training run.

    Attributes:
        losses: Per-step total training loss.
        lm_losses: Per-step language-modelling loss.
        aux_losses: Per-step (unweighted) auxiliary loss.
        expert_counts: Per-step ``(layers, E)`` expert assignment counts.
        routing_trace: Routing matrices extracted from the run, shaped for the
            planner / simulator (``(steps, layers, N, E)``).
    """

    losses: List[float] = field(default_factory=list)
    lm_losses: List[float] = field(default_factory=list)
    aux_losses: List[float] = field(default_factory=list)
    expert_counts: List[np.ndarray] = field(default_factory=list)
    routing_trace: Optional[RoutingTrace] = None

    def final_loss(self, window: int = 5) -> float:
        """Mean LM loss over the last ``window`` steps."""
        if not self.lm_losses:
            raise ValueError("no steps were recorded")
        window = min(window, len(self.lm_losses))
        return float(np.mean(self.lm_losses[-window:]))

    def expert_imbalance(self) -> List[float]:
        """Per-step expert load imbalance (max / mean) averaged over layers."""
        values = []
        for counts in self.expert_counts:
            loads = counts.astype(np.float64)
            mean = loads.mean(axis=1, keepdims=True)
            mean = np.maximum(mean, 1e-9)
            values.append(float((loads.max(axis=1, keepdims=True) / mean).mean()))
        return values


class _FSEPLayer:
    """One block's MoE layer run through FSEP, with :class:`MoELayer`'s
    forward/backward contract: the executor runs under the planner's current
    layout, then the planner observes the routing and tunes the next one."""

    def __init__(self, layer: int, executor: FSEPExecutor,
                 planner: LoadBalancingPlanner):
        self.layer = layer
        self.executor = executor
        self.planner = planner

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        result = self.executor.forward(
            x, self.planner.current_layout(self.layer))
        self.planner.observe(self.layer, result.routing)
        self.planner.tune_layout(self.layer)
        return result.output, {"gating": result.cache["gating"],
                               "result": result}

    def backward(self, grad_output: np.ndarray, cache: Dict[str, Any],
                 aux_loss_weight: float) -> np.ndarray:
        return self.executor.backward(grad_output, cache["result"],
                                      aux_loss_weight)


class Trainer:
    """Train a :class:`MoETransformer` on a synthetic dataset."""

    def __init__(self, model_config: MoEModelConfig, trainer_config: TrainerConfig,
                 dataset: SyntheticTextDataset,
                 topology: Optional[ClusterTopology] = None):
        if dataset.config.vocab_size > model_config.vocab_size:
            raise ValueError(
                f"dataset vocabulary ({dataset.config.vocab_size}) exceeds the "
                f"model vocabulary ({model_config.vocab_size})")
        self.model_config = model_config
        self.config = trainer_config
        self.dataset = dataset
        self.model = MoETransformer(model_config,
                                    aux_loss_weight=trainer_config.aux_loss_weight,
                                    seed=trainer_config.seed)
        self.optimizer = Adam(self.model, lr=trainer_config.learning_rate,
                              weight_decay=trainer_config.weight_decay)
        self.topology = topology or ClusterTopology.single_node(
            trainer_config.num_devices)
        # The MoE layers the model runs in place of its own (None: its own).
        self._moe_layers: Optional[List[_FSEPLayer]] = None
        if trainer_config.execution == "fsep":
            self._moe_layers = self._fsep_layers()

    # ------------------------------------------------------------------
    def _fsep_layers(self) -> List[_FSEPLayer]:
        cost_model = MoECostModel.from_model_config(self.model_config, self.topology)
        capacity = max(1, int(np.ceil(self.model_config.num_experts
                                      / self.topology.num_devices)))
        capacity = max(capacity, self.model_config.expert_capacity)
        planner = LoadBalancingPlanner(
            self.topology, cost_model, self.model_config.num_experts, capacity)
        return [_FSEPLayer(layer, FSEPExecutor(block.moe, self.topology),
                           planner)
                for layer, block in enumerate(self.model.blocks)]

    # ------------------------------------------------------------------
    def _step(self, step: int) -> ModelOutput:
        """Run one optimisation step and return the model output."""
        inputs, targets = self.dataset.batch(
            self.config.batch_size, self.config.seq_length,
            seed=self.config.seed + step)
        self.model.zero_grad()
        output = self.model.forward(inputs, targets, self._moe_layers)
        self.model.backward(output)
        if self.config.max_grad_norm > 0:
            clip_gradients(self.model, self.config.max_grad_norm)
        self.optimizer.step()
        for layer in self._moe_layers or ():
            layer.executor.refresh_shards()
        return output

    # ------------------------------------------------------------------
    def train(self, num_steps: int, log_every: int = 0) -> TrainingResult:
        """Train for ``num_steps`` steps and return the recorded curves."""
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        result = TrainingResult()
        routing_frames = []
        for step in range(num_steps):
            output = self._step(step)
            result.losses.append(output.loss)
            result.lm_losses.append(output.lm_loss)
            result.aux_losses.append(output.aux_loss)
            result.expert_counts.append(output.expert_counts.copy())
            routing_frames.append(self.model.routing_matrices(
                output, self.config.num_devices))
            if log_every and (step + 1) % log_every == 0:
                print(f"step {step + 1}/{num_steps} "
                      f"loss={output.loss:.4f} lm={output.lm_loss:.4f} "
                      f"aux={output.aux_loss:.4f}")
        result.routing_trace = RoutingTrace(
            routing=np.stack(routing_frames, axis=0),
            top_k=self.model_config.top_k,
            tokens_per_device=int(np.ceil(
                self.config.batch_size * self.config.seq_length
                / self.config.num_devices)))
        return result
