"""Mixture-of-Experts layer: top-k gating + SwiGLU experts, dropless.

Tokens are dispatched to their top-k experts, each expert processes its
assigned tokens, and the outputs are combined with the gate weights.  Training
is *dropless* (no capacity-factor token dropping), matching Sec. 5.1.

The gate-weighted expert combine and its gradient are written once, in
:func:`run_experts` and :func:`backward_experts`, over an ordered mapping of
expert calls.  :class:`MoELayer` makes one call per expert; the FSEP executor
(:mod:`repro.core.executor`) makes one per (device, expert), so the two differ
only in which call computes which (token, slot) pair, and so in the order of
the floating-point sums.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

import numpy as np

from repro.model.expert import SwiGLUExpert
from repro.model.gating import GatingOutput, TopKGate
from repro.model.parameter import Module

#: Expert calls in run order: ``key -> (expert, token_idx, slot_idx)``, the
#: expert and the (token, slot) pairs it computes.  Every pair of the batch
#: belongs to exactly one call.
ExpertGroups = Dict[Hashable, Tuple[SwiGLUExpert, np.ndarray, np.ndarray]]


def run_experts(flat: np.ndarray, gating: GatingOutput, groups: ExpertGroups
                ) -> Tuple[np.ndarray, Dict[Hashable, Dict[str, Any]]]:
    """Run every call's expert over its tokens and combine the outputs with
    the gate weights.

    Args:
        flat: ``(tokens, hidden)`` layer input.
        gating: The gate's decision over ``flat``.
        groups: The expert calls, run in order.

    Returns:
        The ``(tokens, hidden)`` combined output and each call's expert cache,
        keyed like ``groups``.
    """
    out = np.zeros_like(flat)
    caches: Dict[Hashable, Dict[str, Any]] = {}
    for key, (expert, token_idx, slot_idx) in groups.items():
        expert_out, cache = expert.forward(flat[token_idx])
        weights = gating.gate_weights[token_idx, slot_idx][:, None]
        np.add.at(out, token_idx, weights * expert_out)
        cache["expert_out"] = expert_out
        caches[key] = cache
    return out, caches


def backward_experts(grad_output: np.ndarray, gating: GatingOutput,
                     groups: ExpertGroups,
                     caches: Dict[Hashable, Dict[str, Any]]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Backward of :func:`run_experts`, in the same call order.

    Accumulates every call's expert parameter gradients and returns the
    ``(tokens, hidden)`` input gradient through the experts and the
    ``(tokens, k)`` gradient of the gate weights.
    """
    grad_flat = np.zeros_like(grad_output)
    grad_gate_weights = np.zeros_like(gating.gate_weights)
    for key, (expert, token_idx, slot_idx) in groups.items():
        cache = caches[key]
        upstream = grad_output[token_idx]
        # d/d gate_weight = <upstream, expert_out>
        grad_gate_weights[token_idx, slot_idx] += np.sum(
            upstream * cache["expert_out"], axis=-1)
        weights = gating.gate_weights[token_idx, slot_idx][:, None]
        np.add.at(grad_flat, token_idx,
                  expert.backward(upstream * weights, cache))
    return grad_flat, grad_gate_weights


class MoELayer(Module):
    """A dropless top-k MoE MLP.

    Args:
        hidden_size: Model dimension ``H``.
        intermediate_size: Expert intermediate dimension ``H'``.
        num_experts: Number of experts ``E``.
        top_k: Experts activated per token ``K``.
        rng: Random generator used for weight initialisation.
    """

    def __init__(self, hidden_size: int, intermediate_size: int,
                 num_experts: int, top_k: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.intermediate_size = intermediate_size
        self.num_experts = num_experts
        self.top_k = top_k
        self.gate = self.register_module(
            "gate", TopKGate(hidden_size, num_experts, top_k, rng=rng))
        self.experts: List[SwiGLUExpert] = []
        for idx in range(num_experts):
            expert = SwiGLUExpert(hidden_size, intermediate_size, rng=rng)
            self.register_module(f"experts.{idx}", expert)
            self.experts.append(expert)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        """Run the MoE layer over ``x`` of shape ``(batch, seq, hidden)``.

        The returned cache records the gating decision (used both for the
        backward pass and for routing-trace extraction).
        """
        if x.ndim != 3:
            raise ValueError("expected input of shape (batch, seq, hidden)")
        flat = x.reshape(-1, x.shape[-1])
        gating, gate_cache = self.gate.forward(flat)
        groups: ExpertGroups = {}
        for expert_id, expert in enumerate(self.experts):
            token_idx, slot_idx = np.nonzero(gating.expert_indices == expert_id)
            if token_idx.size:
                groups[expert_id] = (expert, token_idx, slot_idx)
        out, expert_caches = run_experts(flat, gating, groups)
        cache = {
            "gating": gating,
            "gate_cache": gate_cache,
            "groups": groups,
            "expert_caches": expert_caches,
            "shape": x.shape,
        }
        return out.reshape(x.shape), cache

    # ------------------------------------------------------------------
    def backward(self, grad_output: np.ndarray, cache: Dict[str, Any],
                 aux_loss_weight: float = 0.0) -> np.ndarray:
        """Backward through the MoE layer, returning ``dL/dx``.

        Args:
            grad_output: ``(batch, seq, hidden)`` upstream gradient.
            cache: Forward cache.
            aux_loss_weight: Auxiliary-loss coefficient (the aux-loss gradient
                is injected here so the layer is self-contained).
        """
        shape = cache["shape"]
        grad_flat, grad_gate_weights = backward_experts(
            grad_output.reshape(-1, shape[-1]), cache["gating"],
            cache["groups"], cache["expert_caches"])
        grad_flat += self.gate.backward(
            grad_gate_weights, aux_loss_weight, cache["gate_cache"])
        return grad_flat.reshape(shape)

    # ------------------------------------------------------------------
    def expert_counts(self, cache: Dict[str, Any]) -> np.ndarray:
        """Return the per-expert assignment counts recorded during forward."""
        gating: GatingOutput = cache["gating"]
        return gating.expert_counts.copy()

    def aux_loss(self, cache: Dict[str, Any]) -> float:
        """Return the (unweighted) auxiliary loss recorded during forward."""
        gating: GatingOutput = cache["gating"]
        return gating.aux_loss

    def flops_per_token(self) -> float:
        """Forward FLOPs per token (top-k experts + router)."""
        router = 2.0 * self.hidden_size * self.num_experts
        return self.top_k * self.experts[0].flops_per_token() + router
