"""Minimal parameter / module abstractions for the numpy model.

We deliberately avoid building a general autograd engine: every layer in
``repro.model`` implements an explicit ``forward`` that returns a cache and a
``backward`` that consumes it.  The :class:`Parameter` and :class:`Module`
classes only provide the bookkeeping shared by all layers -- named parameter
registration, gradient accumulation and zeroing, and (de)serialisation of the
parameter tree -- which is what the optimizer and the FSEP sharding machinery
need.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np


class Parameter:
    """A trainable tensor with an accumulated gradient.

    Attributes:
        value: The parameter data (float64 numpy array).
        grad: Accumulated gradient, same shape as ``value``.
    """

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad.fill(0.0)

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` to the accumulated gradient."""
        if grad.shape != self.value.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter shape "
                f"{self.value.shape}"
            )
        self.grad += grad

    def __repr__(self) -> str:
        return f"Parameter(shape={self.value.shape})"


class Module:
    """Base class for layers: named parameter registration and traversal."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        if name in self._parameters or name in self._modules:
            raise ValueError(f"duplicate registration for {name!r}")
        self._parameters[name] = param
        return param

    def register_module(self, name: str, module: "Module") -> "Module":
        if name in self._parameters or name in self._modules:
            raise ValueError(f"duplicate registration for {name!r}")
        self._modules[name] = module
        return module

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` for this module and children."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        """Yield every parameter of this module and its children."""
        for _, param in self.named_parameters():
            yield param

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        """Zero the gradients of every parameter in the tree."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # State (de)serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter value, keyed by qualified name."""
        return {name: param.value.copy() for name, param in self.named_parameters()}
