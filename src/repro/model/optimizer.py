"""Optimizers for the numpy model: Adam (the paper's setting) and SGD.

Both operate on a :class:`~repro.model.parameter.Module`'s parameter tree.
Adam keeps its moment estimates keyed by qualified parameter name, so the
optimizer state can be sharded / inspected the same way parameters are.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.model.parameter import Module


def clip_gradients(module: Module, max_norm: float) -> float:
    """Clip the global gradient norm of ``module`` to ``max_norm``.

    Returns the pre-clipping global norm.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    params = list(module.parameters())
    for param in params:
        total += float(np.sum(param.grad * param.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in params:
            param.grad *= scale
    return norm


class SGD:
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, module: Module, lr: float = 1e-2, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.module = module
        self.lr = lr
        self.momentum = momentum
        self._velocity: Dict[str, np.ndarray] = {}

    def step(self) -> None:
        """Apply one optimisation step using the accumulated gradients."""
        for name, param in self.module.named_parameters():
            grad = param.grad
            if self.momentum > 0:
                vel = self._velocity.setdefault(name, np.zeros_like(param.value))
                vel *= self.momentum
                vel += grad
                update = vel
            else:
                update = grad
            param.value -= self.lr * update

    def zero_grad(self) -> None:
        """Zero all parameter gradients."""
        self.module.zero_grad()


class Adam:
    """Adam optimizer with bias correction and optional decoupled weight decay."""

    def __init__(self, module: Module, lr: float = 3e-4, betas=(0.9, 0.95),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.module = module
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Apply one Adam update using the accumulated gradients."""
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for name, param in self.module.named_parameters():
            grad = param.grad
            m = self._m.setdefault(name, np.zeros_like(param.value))
            v = self._v.setdefault(name, np.zeros_like(param.value))
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay > 0:
                update = update + self.weight_decay * param.value
            param.value -= self.lr * update

    def zero_grad(self) -> None:
        """Zero all parameter gradients."""
        self.module.zero_grad()

    # ------------------------------------------------------------------
    def optimizer_state(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Return a copy of the first/second moment estimates per parameter."""
        return {
            name: {"m": self._m.get(name, np.zeros(0)).copy(),
                   "v": self._v.get(name, np.zeros(0)).copy()}
            for name, _ in self.module.named_parameters()
        }
