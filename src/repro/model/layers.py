"""Basic layers: linear projections, RMSNorm, embeddings and loss functions.

Every layer exposes ``forward(x) -> (output, cache)`` and
``backward(grad_output, cache) -> grad_input``; parameter gradients are
accumulated into the layer's :class:`~repro.model.parameter.Parameter` objects.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.model.parameter import Module, Parameter


def _init_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Scaled-normal initialisation matching standard transformer practice."""
    std = 1.0 / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=(fan_in, fan_out))


class Linear(Module):
    """Affine projection ``y = x @ W + b`` over the last axis of ``x``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Parameter(_init_weight(rng, in_features, out_features)))
        self.bias: Parameter | None = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Parameter(np.zeros(out_features)))

    @classmethod
    def from_weight(cls, weight: np.ndarray) -> "Linear":
        """A bias-free projection holding ``weight``, drawing nothing."""
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer.in_features, layer.out_features = weight.shape
        layer.weight = layer.register_parameter("weight", Parameter(weight))
        layer.bias = None
        return layer

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected last dim {self.in_features}, got {x.shape[-1]}")
        out = x @ self.weight.value
        if self.bias is not None:
            out = out + self.bias.value
        return out, {"x": x}

    def backward(self, grad_output: np.ndarray, cache: Dict[str, Any]) -> np.ndarray:
        x = cache["x"]
        x2d = x.reshape(-1, self.in_features)
        g2d = grad_output.reshape(-1, self.out_features)
        self.weight.accumulate(x2d.T @ g2d)
        if self.bias is not None:
            self.bias.accumulate(g2d.sum(axis=0))
        return grad_output @ self.weight.value.T


class RMSNorm(Module):
    """Root-mean-square layer normalisation with a learned gain."""

    def __init__(self, dim: int, eps: float = 1e-6):
        super().__init__()
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.eps = eps
        self.weight = self.register_parameter("weight", Parameter(np.ones(dim)))

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        ms = np.mean(x * x, axis=-1, keepdims=True)
        inv_rms = 1.0 / np.sqrt(ms + self.eps)
        normed = x * inv_rms
        out = normed * self.weight.value
        return out, {"x": x, "inv_rms": inv_rms, "normed": normed}

    def backward(self, grad_output: np.ndarray, cache: Dict[str, Any]) -> np.ndarray:
        x, inv_rms, normed = cache["x"], cache["inv_rms"], cache["normed"]
        self.weight.accumulate(
            (grad_output * normed).reshape(-1, self.dim).sum(axis=0))
        g = grad_output * self.weight.value
        # d/dx of x * inv_rms where inv_rms depends on x.
        dot = np.sum(g * x, axis=-1, keepdims=True)
        return g * inv_rms - x * (inv_rms ** 3) * dot / self.dim


class Embedding(Module):
    """Token embedding lookup table."""

    def __init__(self, vocab_size: int, dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if vocab_size <= 0 or dim <= 0:
            raise ValueError("vocab_size and dim must be positive")
        rng = rng or np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.dim = dim
        self.weight = self.register_parameter(
            "weight", Parameter(rng.normal(0.0, 0.02, size=(vocab_size, dim))))

    def forward(self, token_ids: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        token_ids = np.asarray(token_ids)
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.vocab_size):
            raise ValueError("token id out of range")
        return self.weight.value[token_ids], {"token_ids": token_ids}

    def backward(self, grad_output: np.ndarray, cache: Dict[str, Any]) -> None:
        token_ids = cache["token_ids"].reshape(-1)
        grads = grad_output.reshape(-1, self.dim)
        accum = np.zeros_like(self.weight.value)
        np.add.at(accum, token_ids, grads)
        self.weight.accumulate(accum)
        return None


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def softmax_backward(grad_output: np.ndarray, probs: np.ndarray,
                     axis: int = -1) -> np.ndarray:
    """Backward pass of softmax given the forward output ``probs``."""
    dot = np.sum(grad_output * probs, axis=axis, keepdims=True)
    return probs * (grad_output - dot)


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU (swish) activation ``x * sigmoid(x)``."""
    return x / (1.0 + np.exp(-x))


def silu_backward(grad_output: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Backward pass of SiLU."""
    sig = 1.0 / (1.0 + np.exp(-x))
    return grad_output * (sig * (1.0 + x * (1.0 - sig)))


def cross_entropy(logits: np.ndarray, targets: np.ndarray
                  ) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and gradient w.r.t. the logits.

    Args:
        logits: ``(..., vocab)`` unnormalised scores.
        targets: integer class indices with shape ``logits.shape[:-1]``.

    Returns:
        ``(loss, grad_logits)`` where the loss is averaged over all positions.
    """
    vocab = logits.shape[-1]
    flat_logits = logits.reshape(-1, vocab)
    flat_targets = np.asarray(targets).reshape(-1)
    if flat_targets.size and (flat_targets.min() < 0 or flat_targets.max() >= vocab):
        raise ValueError("target id out of range")
    probs = softmax(flat_logits, axis=-1)
    n = flat_targets.shape[0]
    picked = probs[np.arange(n), flat_targets]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-12))))
    grad = probs.copy()
    grad[np.arange(n), flat_targets] -= 1.0
    grad /= n
    return loss, grad.reshape(logits.shape)
