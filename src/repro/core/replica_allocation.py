"""Replica allocation (Algorithm 4): how many replicas each expert receives.

The total number of compute slots in the cluster is ``N * C``.  The
priority-queue scheme starts with one replica per expert and repeatedly gives
an extra replica to the expert with the highest *average* load (load divided by
its current replica count) until all slots are used.  The even scheme simply
gives every expert ``N * C / E`` replicas.  The layout tuner (Algorithm 2)
evaluates both (plus random perturbations) and keeps the cheapest.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np


def _validate_inputs(expert_loads: np.ndarray, num_devices: int,
                     num_experts: int, capacity: int) -> np.ndarray:
    loads = np.asarray(expert_loads, dtype=np.float64)
    if loads.shape != (num_experts,):
        raise ValueError(f"expert_loads must have shape ({num_experts},)")
    if np.any(loads < 0):
        raise ValueError("expert loads must be non-negative")
    if num_devices <= 0 or capacity <= 0:
        raise ValueError("num_devices and capacity must be positive")
    if num_devices * capacity < num_experts:
        raise ValueError(
            "total capacity N*C must be at least the number of experts "
            "(every expert needs at least one replica)")
    return loads


def allocate_replicas_priority_queue(expert_loads: np.ndarray, num_devices: int,
                                     num_experts: int, capacity: int) -> np.ndarray:
    """Algorithm 4: proportional replica allocation via a priority queue.

    Args:
        expert_loads: ``(E,)`` total token load of each expert
            (``R.sum(axis=0)``).
        num_devices: Number of devices ``N``.
        num_experts: Number of experts ``E``.
        capacity: Expert capacity per device ``C``.

    Returns:
        ``(E,)`` integer replica counts summing to ``N * C`` with every expert
        receiving at least one replica.
    """
    loads = _validate_inputs(expert_loads, num_devices, num_experts, capacity)
    replicas = np.ones(num_experts, dtype=np.int64)
    total_slots = num_devices * capacity
    # Max-heap keyed by average load per replica (negated for heapq);
    # ties broken by expert index for determinism.
    heap: List[tuple] = [(-loads[e], e) for e in range(num_experts)]
    heapq.heapify(heap)
    remaining = total_slots - num_experts
    for _ in range(remaining):
        neg_avg, expert = heapq.heappop(heap)
        replicas[expert] += 1
        heapq.heappush(heap, (-loads[expert] / replicas[expert], expert))
    return replicas


def even_replicas(num_devices: int, num_experts: int, capacity: int) -> np.ndarray:
    """The even allocation scheme: ``N * C / E`` replicas per expert.

    When ``N * C`` is not a multiple of ``E``, the remainder is distributed to
    the lowest-indexed experts so the counts still sum to ``N * C``.
    """
    if num_devices <= 0 or capacity <= 0 or num_experts <= 0:
        raise ValueError("num_devices, capacity and num_experts must be positive")
    total_slots = num_devices * capacity
    if total_slots < num_experts:
        raise ValueError("total capacity N*C must be at least the number of experts")
    base = total_slots // num_experts
    remainder = total_slots % num_experts
    replicas = np.full(num_experts, base, dtype=np.int64)
    replicas[:remainder] += 1
    return replicas


def perturb_replicas(replicas: np.ndarray, rng: np.random.Generator,
                     max_moves: int = 2) -> np.ndarray:
    """Randomly move up to ``max_moves`` replicas between experts.

    Used by Algorithm 2 to enlarge the candidate set beyond the two analytic
    schemes.  The perturbation never drops an expert below one replica, so the
    result is always a valid allocation.
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
