"""Shared test helpers: finite-difference gradient checking, a one-row
lite-routing split, a per-candidate layout-tuner reference and seeded
perturbed replica schemes for tests that need more than the tuner's two."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.layout_tuner import ExpertLayoutTuner
from repro.core.lite_routing import _split_rows, lite_route
from repro.core.relocation import relocate_experts
from repro.model.parameter import Module, Parameter


def numerical_grad(loss_fn: Callable[[], float], array: np.ndarray,
                   eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``loss_fn`` with respect to ``array``.

    ``array`` is perturbed in place (and restored), so ``loss_fn`` must read it
    on every call.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + eps
        plus = loss_fn()
        flat[idx] = original - eps
        minus = loss_fn()
        flat[idx] = original
        grad_flat[idx] = (plus - minus) / (2 * eps)
    return grad


def check_parameter_gradients(module: Module, loss_fn: Callable[[], float],
                              backward_fn: Callable[[], None],
                              rtol: float = 1e-4, atol: float = 1e-6,
                              max_elements: int = 40,
                              rng: np.random.Generator | None = None) -> None:
    """Compare analytic parameter gradients against finite differences.

    To keep runtime manageable only a random subset of ``max_elements`` scalar
    entries per parameter is checked.
    """
    rng = rng or np.random.default_rng(0)
    module.zero_grad()
    backward_fn()
    analytic = {name: p.grad.copy() for name, p in module.named_parameters()}
    for name, param in module.named_parameters():
        flat = param.value.reshape(-1)
        count = min(max_elements, flat.size)
        indices = rng.choice(flat.size, size=count, replace=False)
        for idx in indices:
            original = flat[idx]
            eps = 1e-6 * max(1.0, abs(original))
            flat[idx] = original + eps
            plus = loss_fn()
            flat[idx] = original - eps
            minus = loss_fn()
            flat[idx] = original
            numeric = (plus - minus) / (2 * eps)
            actual = analytic[name].reshape(-1)[idx]
            assert np.isclose(actual, numeric, rtol=rtol, atol=atol), (
                f"gradient mismatch for {name}[{idx}]: "
                f"analytic={actual}, numeric={numeric}")


def check_input_gradient(forward_loss: Callable[[np.ndarray], float],
                         analytic_grad: np.ndarray, x: np.ndarray,
                         rtol: float = 1e-4, atol: float = 1e-6,
                         max_elements: int = 40,
                         rng: np.random.Generator | None = None) -> None:
    """Compare an analytic input gradient against finite differences."""
    rng = rng or np.random.default_rng(0)
    flat = x.reshape(-1)
    grad_flat = analytic_grad.reshape(-1)
    count = min(max_elements, flat.size)
    indices = rng.choice(flat.size, size=count, replace=False)
    for idx in indices:
        original = flat[idx]
        eps = 1e-6 * max(1.0, abs(original))
        flat[idx] = original + eps
        plus = forward_loss(x)
        flat[idx] = original - eps
        minus = forward_loss(x)
        flat[idx] = original
        numeric = (plus - minus) / (2 * eps)
        assert np.isclose(grad_flat[idx], numeric, rtol=rtol, atol=atol), (
            f"input gradient mismatch at {idx}: "
            f"analytic={grad_flat[idx]}, numeric={numeric}")


def random_parameter(shape, seed: int = 0) -> Parameter:
    """A Parameter with deterministic random contents."""
    rng = np.random.default_rng(seed)
    return Parameter(rng.normal(0.0, 1.0, size=shape))


def split_row(total: int, weights) -> np.ndarray:
    """Split ``total`` over ``weights`` as one row of lite routing's
    ``_split_rows``; zero weights get nothing."""
    weights = np.asarray(weights, dtype=np.float64)
    positive = np.flatnonzero(weights > 0)
    split = np.zeros(weights.shape, dtype=np.int64)
    split[positive] = _split_rows(
        np.array([total], dtype=np.int64), np.array([0, positive.size]),
        np.zeros(positive.size, dtype=np.int64), weights[positive])
    return split


def scalar_reference_solve(tuner, routing):
    """Score each candidate with lite_route + evaluate; first cheapest wins."""
    routing = np.asarray(routing, dtype=np.int64)
    loads = routing.sum(axis=0)
    layouts = [relocate_experts(replicas, loads, tuner.topology,
                                tuner.capacity)
               for replicas in tuner.candidate_replica_schemes(
                   loads, routing.shape[1])]
    plans = [lite_route(routing, layout, tuner.topology) for layout in layouts]
    costs = [tuner.cost_model.evaluate(plan) for plan in plans]
    best = 0
    for index, cost in enumerate(costs):
        if cost.total < costs[best].total:
            best = index
    return layouts[best], plans[best], costs[best], [c.total for c in costs]


def perturb_replicas(replicas: np.ndarray, rng: np.random.Generator,
                     max_moves: int = 2) -> np.ndarray:
    """Move up to ``max_moves`` replicas between random experts, never
    dropping one below a replica: a valid scheme unlike either analytic one.

    The draws are the ones the layout tuner made when it still scored
    perturbations beyond its analytic schemes, so tests that take these
    schemes as input keep their cases.
    """
    replicas = np.asarray(replicas, dtype=np.int64).copy()
    if np.any(replicas < 1):
        raise ValueError("every expert must start with at least one replica")
    num_experts = replicas.shape[0]
    if num_experts < 2:
        return replicas
    moves = int(rng.integers(1, max_moves + 1))
    for _ in range(moves):
        donors = np.nonzero(replicas > 1)[0]
        if donors.size == 0:
            break
        src = int(rng.choice(donors))
        dst = int(rng.integers(num_experts))
        if dst == src:
            dst = (dst + 1) % num_experts
        replicas[src] -= 1
        replicas[dst] += 1
    return replicas


class PerturbingTuner(ExpertLayoutTuner):
    """A layout tuner that also scores seeded perturbations of its schemes,
    up to ``candidates`` in all: each perturbs a scheme drawn from those
    built so far, from one stream seeded with ``seed`` at construction."""

    def __init__(self, topology, cost_model, capacity, config=None, *,
                 candidates: int, seed: int = 0):
        super().__init__(topology, cost_model, capacity, config)
        self.candidates = candidates
        self.rng = np.random.default_rng(seed)

    def candidate_replica_schemes(self, expert_loads, num_experts):
        schemes = super().candidate_replica_schemes(expert_loads, num_experts)
        while len(schemes) < self.candidates:
            base = schemes[int(self.rng.integers(len(schemes)))]
            schemes.append(perturb_replicas(base, self.rng))
        return schemes
