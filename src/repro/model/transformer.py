"""The MoE transformer language model.

Each block is pre-norm: ``x + Attn(RMSNorm(x))`` followed by
``x + MoE(RMSNorm(x))``.  The model ties everything together with an input
embedding, a final RMSNorm and an (untied) LM head, and computes the
cross-entropy language-modelling loss plus the weighted auxiliary loss.

The forward and backward passes are written once: a caller may run every
block's MoE MLP through a layer of its own with :class:`MoELayer`'s contract,
as FSEP training does with the executor (:mod:`repro.training.trainer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.attention import CausalSelfAttention
from repro.model.layers import Embedding, Linear, RMSNorm, cross_entropy
from repro.model.moe_layer import MoELayer
from repro.model.parameter import Module
from repro.workloads.model_configs import MoEModelConfig


@dataclass
class ModelOutput:
    """Result of a forward pass through :class:`MoETransformer`.

    Attributes:
        loss: Total loss (LM cross-entropy + weighted auxiliary loss).
        lm_loss: Cross-entropy language-modelling loss alone.
        aux_loss: Mean unweighted auxiliary loss across MoE layers.
        logits: ``(batch, seq, vocab)`` output logits.
        expert_counts: ``(layers, E)`` per-layer expert assignment counts.
        expert_indices: Per-layer ``(tokens, k)`` routed expert ids.
        cache: Opaque forward cache needed by :meth:`MoETransformer.backward`.
    """

    loss: float
    lm_loss: float
    aux_loss: float
    logits: np.ndarray
    expert_counts: np.ndarray
    expert_indices: List[np.ndarray] = field(default_factory=list)
    cache: Dict[str, Any] = field(default_factory=dict)


class TransformerBlock(Module):
    """One pre-norm transformer block with an MoE MLP."""

    def __init__(self, config: MoEModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.attn_norm = self.register_module(
            "attn_norm", RMSNorm(config.hidden_size))
        self.attention = self.register_module(
            "attention",
            CausalSelfAttention(config.hidden_size, config.num_attention_heads,
                                config.num_kv_heads, bias=config.attention_bias,
                                rng=rng))
        self.moe_norm = self.register_module(
            "moe_norm", RMSNorm(config.hidden_size))
        self.moe = self.register_module(
            "moe", MoELayer(config.hidden_size, config.intermediate_size,
                            config.num_experts, config.top_k, rng=rng))

    def forward(self, x: np.ndarray, moe: Optional[Any] = None
                ) -> Tuple[np.ndarray, Dict[str, Any]]:
        """Run the block; ``moe`` stands in for the block's own MoE layer
        (same contract as :class:`MoELayer`), and :meth:`backward` calls
        back whichever layer ran."""
        moe = self.moe if moe is None else moe
        normed, attn_norm_cache = self.attn_norm.forward(x)
        attn_out, attn_cache = self.attention.forward(normed)
        h = x + attn_out
        normed2, moe_norm_cache = self.moe_norm.forward(h)
        moe_out, moe_cache = moe.forward(normed2)
        out = h + moe_out
        cache = {
            "attn_norm_cache": attn_norm_cache, "attn_cache": attn_cache,
            "moe_norm_cache": moe_norm_cache, "moe": moe,
            "moe_cache": moe_cache,
        }
        return out, cache

    def backward(self, grad_output: np.ndarray, cache: Dict[str, Any],
                 aux_loss_weight: float) -> np.ndarray:
        grad_normed2 = cache["moe"].backward(
            grad_output, cache["moe_cache"], aux_loss_weight)
        grad_h = grad_output + self.moe_norm.backward(
            grad_normed2, cache["moe_norm_cache"])
        grad_normed = self.attention.backward(grad_h, cache["attn_cache"])
        grad_x = grad_h + self.attn_norm.backward(
            grad_normed, cache["attn_norm_cache"])
        return grad_x


class MoETransformer(Module):
    """A small but complete MoE transformer language model.

    Args:
        config: Architecture description (usually a
            :func:`repro.workloads.model_configs.tiny_test_config` or a
            scaled-down Table 2 entry).
        aux_loss_weight: Coefficient of the Switch auxiliary loss added to the
            training objective (0 disables algorithmic load balancing).
        seed: Initialisation seed.
    """

    def __init__(self, config: MoEModelConfig, aux_loss_weight: float = 0.0,
                 seed: int = 0):
        super().__init__()
        if aux_loss_weight < 0:
            raise ValueError("aux_loss_weight must be non-negative")
        rng = np.random.default_rng(seed)
        self.config = config
        self.aux_loss_weight = aux_loss_weight
        self.embedding = self.register_module(
            "embedding", Embedding(config.vocab_size, config.hidden_size, rng=rng))
        self.blocks: List[TransformerBlock] = []
        for idx in range(config.num_layers):
            block = TransformerBlock(config, rng)
            self.register_module(f"blocks.{idx}", block)
            self.blocks.append(block)
        self.final_norm = self.register_module(
            "final_norm", RMSNorm(config.hidden_size))
        self.lm_head = self.register_module(
            "lm_head", Linear(config.hidden_size, config.vocab_size, rng=rng))

    # ------------------------------------------------------------------
    def forward(self, token_ids: np.ndarray,
                targets: Optional[np.ndarray] = None,
                moe_layers: Optional[Sequence[Any]] = None) -> ModelOutput:
        """Run the model; when ``targets`` is given compute the training loss.

        Args:
            token_ids: ``(batch, seq)`` input token ids.
            targets: ``(batch, seq)`` next-token targets, or ``None``.
            moe_layers: One MoE layer per block to run in place of the
                block's own, each with :class:`MoELayer`'s contract:
                ``forward(x) -> (out, cache)`` with the ``gating`` decision
                in the cache, and ``backward(grad, cache, aux_loss_weight)``.
                FSEP training passes the layers its executors run.
        """
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2:
            raise ValueError("token_ids must have shape (batch, seq)")
        if moe_layers is None:
            moe_layers = [block.moe for block in self.blocks]
        if len(moe_layers) != len(self.blocks):
            raise ValueError("moe_layers must hold one layer per block")
        x, embed_cache = self.embedding.forward(token_ids)
        block_caches: List[Dict[str, Any]] = []
        for block, moe in zip(self.blocks, moe_layers):
            x, cache = block.forward(x, moe)
            block_caches.append(cache)
        normed, final_norm_cache = self.final_norm.forward(x)
        logits, head_cache = self.lm_head.forward(normed)

        gatings = [cache["moe_cache"]["gating"] for cache in block_caches]
        expert_counts = np.stack([gating.expert_counts for gating in gatings])
        expert_indices = [gating.expert_indices for gating in gatings]
        aux_losses = [gating.aux_loss for gating in gatings]
        aux_loss = float(np.mean(aux_losses)) if aux_losses else 0.0

        lm_loss = 0.0
        grad_logits = None
        if targets is not None:
            lm_loss, grad_logits = cross_entropy(logits, targets)
        total_loss = lm_loss + self.aux_loss_weight * aux_loss

        cache = {
            "embed_cache": embed_cache,
            "block_caches": block_caches,
            "final_norm_cache": final_norm_cache,
            "head_cache": head_cache,
            "grad_logits": grad_logits,
        }
        return ModelOutput(
            loss=total_loss,
            lm_loss=lm_loss,
            aux_loss=aux_loss,
            logits=logits,
            expert_counts=expert_counts,
            expert_indices=expert_indices,
            cache=cache,
        )

    # ------------------------------------------------------------------
    def backward(self, output: ModelOutput) -> None:
        """Backpropagate the loss of a forward pass that had targets."""
        cache = output.cache
        grad_logits = cache.get("grad_logits")
        if grad_logits is None:
            raise ValueError("backward requires a forward pass with targets")
        grad_normed = self.lm_head.backward(grad_logits, cache["head_cache"])
        grad_x = self.final_norm.backward(grad_normed, cache["final_norm_cache"])
        # The auxiliary loss of each layer is averaged across layers, so the
        # per-layer weight is scaled accordingly.
        per_layer_aux_weight = (
            self.aux_loss_weight / max(1, len(self.blocks)))
        for block, block_cache in zip(reversed(self.blocks),
                                      reversed(cache["block_caches"])):
            grad_x = block.backward(grad_x, block_cache, per_layer_aux_weight)
        self.embedding.backward(grad_x, cache["embed_cache"])
