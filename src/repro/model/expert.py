"""SwiGLU expert feed-forward network.

Each expert is the standard SwiGLU MLP used by Mixtral:
``down( silu(gate(x)) * up(x) )`` with three weight matrices.  The FSEP
machinery treats an expert's parameters as one flattenable unit, so the class
also exposes flatten/unflatten helpers mirroring the meta-information handling
described in Sec. 3.1.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.model.layers import Linear, silu, silu_backward
from repro.model.parameter import Module


class SwiGLUExpert(Module):
    """A single SwiGLU expert: gate, up and down projections.

    Args:
        hidden_size: Model dimension ``H``.
        intermediate_size: Expert intermediate dimension ``H'``.
        rng: Random generator used for weight initialisation.
    """

    def __init__(self, hidden_size: int, intermediate_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.intermediate_size = intermediate_size
        self.gate_proj = self.register_module(
            "gate_proj", Linear(hidden_size, intermediate_size, rng=rng))
        self.up_proj = self.register_module(
            "up_proj", Linear(hidden_size, intermediate_size, rng=rng))
        self.down_proj = self.register_module(
            "down_proj", Linear(intermediate_size, hidden_size, rng=rng))

    @classmethod
    def from_flat_parameters(cls, flat: np.ndarray, hidden_size: int,
                             intermediate_size: int) -> "SwiGLUExpert":
        """An expert holding copies of ``flat``'s weights, as
        :meth:`load_flat_parameters` copies them, without first drawing
        the initial weights they replace (FSEP's restored replicas)."""
        expert = cls.__new__(cls)
        Module.__init__(expert)
        expert.hidden_size = hidden_size
        expert.intermediate_size = intermediate_size
        shapes = [(hidden_size, intermediate_size)] * 2 + [
            (intermediate_size, hidden_size)]
        for name, shape in zip(("gate_proj", "up_proj", "down_proj"), shapes):
            setattr(expert, name, expert.register_module(
                name, Linear.from_weight(np.empty(shape))))
        expert.load_flat_parameters(flat)
        return expert

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        """Run the expert over ``x`` of shape ``(tokens, hidden)``."""
        gate, gate_cache = self.gate_proj.forward(x)
        up, up_cache = self.up_proj.forward(x)
        activated = silu(gate)
        inter = activated * up
        out, down_cache = self.down_proj.forward(inter)
        cache = {
            "gate": gate, "up": up, "activated": activated,
            "gate_cache": gate_cache, "up_cache": up_cache,
            "down_cache": down_cache,
        }
        return out, cache

    def backward(self, grad_output: np.ndarray, cache: Dict[str, Any]) -> np.ndarray:
        """Backpropagate through the expert, returning ``dL/dx``."""
        grad_inter = self.down_proj.backward(grad_output, cache["down_cache"])
        grad_activated = grad_inter * cache["up"]
        grad_up = grad_inter * cache["activated"]
        grad_gate = silu_backward(grad_activated, cache["gate"])
        grad_x = self.gate_proj.backward(grad_gate, cache["gate_cache"])
        grad_x = grad_x + self.up_proj.backward(grad_up, cache["up_cache"])
        return grad_x

    # ------------------------------------------------------------------
    # FSEP flatten/unflatten support
    # ------------------------------------------------------------------
    def parameter_order(self) -> List[str]:
        """Canonical order in which expert parameters are flattened."""
        return ["gate_proj.weight", "up_proj.weight", "down_proj.weight"]

    def flatten_parameters(self) -> np.ndarray:
        """Concatenate all expert weights into a single flat vector."""
        named = dict(self.named_parameters())
        return np.concatenate([named[n].value.reshape(-1)
                               for n in self.parameter_order()])

    def load_flat_parameters(self, flat: np.ndarray) -> None:
        """Load expert weights from a flat vector produced by ``flatten_parameters``."""
        named = dict(self.named_parameters())
        expected = sum(named[n].size for n in self.parameter_order())
        flat = np.asarray(flat, dtype=np.float64).reshape(-1)
        if flat.size != expected:
            raise ValueError(f"expected {expected} values, got {flat.size}")
        offset = 0
        for name in self.parameter_order():
            param = named[name]
            count = param.size
            param.value = flat[offset:offset + count].reshape(param.shape).copy()
            param.grad = np.zeros_like(param.value)
            offset += count

    def flatten_gradients(self) -> np.ndarray:
        """Concatenate all expert weight gradients into a single flat vector."""
        named = dict(self.named_parameters())
        return np.concatenate([named[n].grad.reshape(-1)
                               for n in self.parameter_order()])

    def flops_per_token(self) -> float:
        """Forward FLOPs for one token: ``6 * H * H'`` as used in Sec. 3.1."""
        return 6.0 * self.hidden_size * self.intermediate_size
