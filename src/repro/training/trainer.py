"""Training loop for the numpy MoE transformer.

Supports two execution modes for the MoE layers:

* ``reference`` -- the plain single-device :class:`MoELayer` forward/backward
  (this is what Megatron-style training computes);
* ``fsep`` -- every MoE layer's expert computation is executed through the
  :class:`~repro.core.executor.FSEPExecutor`, i.e. tokens are sharded over the
  simulated cluster, experts are restored per the planner's layout and
  gradients travel through the reshard path.

Both modes produce the same gradients up to floating-point summation order,
which is exactly the paper's "no loss in precision" claim (Sec. 3.1, Fig. 9b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel
from repro.core.executor import FSEPExecutor
from repro.core.layout_tuner import TunerConfig
from repro.core.planner import LoadBalancingPlanner, PlannerConfig
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
        self._executors: Optional[List[FSEPExecutor]] = None
        self._planner: Optional[LoadBalancingPlanner] = None
        if trainer_config.execution == "fsep":
            self._build_fsep_execution()

    # ------------------------------------------------------------------
    def _build_fsep_execution(self) -> None:
        cost_model = MoECostModel.from_model_config(self.model_config, self.topology)
        capacity = max(1, int(np.ceil(self.model_config.num_experts
                                      / self.topology.num_devices)))
        capacity = max(capacity, self.model_config.expert_capacity)
        self._planner = LoadBalancingPlanner(
            self.topology, cost_model, self.model_config.num_experts,
            PlannerConfig(capacity=capacity, tuner=TunerConfig()))
        self._executors = [FSEPExecutor(block.moe, self.topology)
                           for block in self.model.blocks]

    # ------------------------------------------------------------------
    def _step(self, step: int) -> ModelOutput:
        """Run one optimisation step and return the model output."""
        inputs, targets = self.dataset.batch(
            self.config.batch_size, self.config.seq_length,
            seed=self.config.seed + step)
        self.model.zero_grad()
        if self.config.execution == "reference":
            output = self.model.forward(inputs, targets)
            self.model.backward(output)
        else:
            output = self._fsep_forward_backward(inputs, targets)
        if self.config.max_grad_norm > 0:
            clip_gradients(self.model, self.config.max_grad_norm)
        self.optimizer.step()
        if self.config.execution == "fsep":
            assert self._executors is not None
            for executor in self._executors:
                executor.refresh_shards()
        return output

    # ------------------------------------------------------------------
    def _fsep_forward_backward(self, inputs: np.ndarray, targets: np.ndarray):
        """Forward/backward where each MoE layer runs through the FSEP executor.

        The attention/embedding parts reuse the reference model's modules (they
        are data-parallel and identical in both systems); only the expert
        computation is re-routed through FSEP.
        """
        assert self._executors is not None and self._planner is not None
        model = self.model
        x, embed_cache = model.embedding.forward(inputs)
        block_caches = []
        executor_results = []
        for layer_idx, block in enumerate(model.blocks):
            normed, attn_norm_cache = block.attn_norm.forward(x)
            attn_out, attn_cache = block.attention.forward(normed)
            h = x + attn_out
            normed2, moe_norm_cache = block.moe_norm.forward(h)
            layout = self._planner.current_layout(layer_idx)
            result = self._executors[layer_idx].forward(normed2, layout)
            self._planner.observe(layer_idx, result.routing)
            self._planner.tune_layout(layer_idx)
            x = h + result.output
            block_caches.append({
                "attn_norm_cache": attn_norm_cache,
                "attn_cache": attn_cache,
                "moe_norm_cache": moe_norm_cache,
            })
            executor_results.append(result)
        normed, final_norm_cache = model.final_norm.forward(x)
        logits, head_cache = model.lm_head.forward(normed)

        from repro.model.layers import cross_entropy  # local import avoids cycle
        lm_loss, grad_logits = cross_entropy(logits, targets)
        aux_losses = [
            res.cache["gating"].aux_loss for res in executor_results]
        aux_loss = float(np.mean(aux_losses)) if aux_losses else 0.0
        total_loss = lm_loss + model.aux_loss_weight * aux_loss

        # Backward pass (mirrors MoETransformer.backward but uses the executor
        # for every MoE layer).
        grad_normed = model.lm_head.backward(grad_logits, head_cache)
        grad_x = model.final_norm.backward(grad_normed, final_norm_cache)
        per_layer_aux = model.aux_loss_weight / max(1, len(model.blocks))
        for layer_idx in reversed(range(len(model.blocks))):
            block = model.blocks[layer_idx]
            caches = block_caches[layer_idx]
            result = executor_results[layer_idx]
            grad_moe_out = grad_x
            grad_normed2 = self._executors[layer_idx].backward(
                grad_moe_out, result, aux_loss_weight=per_layer_aux)
            grad_h = grad_x + block.moe_norm.backward(
                grad_normed2, caches["moe_norm_cache"])
            grad_normed_attn = block.attention.backward(
                grad_h, caches["attn_cache"])
            grad_x = grad_h + block.attn_norm.backward(
                grad_normed_attn, caches["attn_norm_cache"])
        model.embedding.backward(grad_x, embed_cache)

        expert_counts = np.stack([
            res.cache["gating"].expert_counts for res in executor_results])
        expert_indices = [res.cache["gating"].expert_indices
                          for res in executor_results]
        return ModelOutput(
            loss=total_loss,
            lm_loss=lm_loss,
            aux_loss=aux_loss,
            logits=logits,
            expert_counts=expert_counts,
            expert_indices=expert_indices,
            cache={},
        )

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
