"""Replica allocation (Algorithm 4): how many replicas each expert receives.

The total number of compute slots in the cluster is ``N * C``.  The
priority-queue scheme starts with one replica per expert and repeatedly gives
an extra replica to the expert with the highest *average* load (load divided by
its current replica count) until all slots are used.  The even scheme simply
gives every expert ``N * C / E`` replicas.  The layout tuner (Algorithm 2)
evaluates both (plus random perturbations) and keeps the cheapest.

The priority queue is Jefferson's (D'Hondt) apportionment, so it needs no
queue.  It hands expert ``e`` its ``j``-th extra replica at the quotient
``load_e / j``, and an expert's quotients never rise with ``j``, so the
``N * C - E`` extra replicas are the largest quotients, ties going to the
lower expert, then the lower ``j``: one stable argsort picks them.

Few quotients need building.  If the smallest picked quotient is ``q``,
every expert's next quotient is at most ``q``, so ``load_e <= q * r_e``
and ``sum(load) <= q * N * C``; every picked quotient is at least ``q``,
so ``r_e - 1 <= load_e / q <= load_e * N * C / sum(load)``.  Building
``floor(load_e * N * C / sum(load)) + 1`` quotients per expert (the 1
against rounding) therefore builds every picked one, at most ``N * C + E``
in all.  The argument needs ``q`` to be a normal float, which it is when
the largest load exceeds ``N * C - E`` times the smallest normal float:
that expert alone has ``N * C - E`` quotients of at least that size.
Otherwise (subnormal or all-zero loads) every expert gets ``N * C - E``
quotients.  All-zero loads thus give expert 0 every extra replica, as the
queue does.  The queue itself is
``repro.scalar_reference.scalar_allocate_replicas``.
"""

from __future__ import annotations

import numpy as np


def _validate_inputs(expert_loads: np.ndarray, num_devices: int,
                     num_experts: int, capacity: int) -> np.ndarray:
    loads = np.asarray(expert_loads, dtype=np.float64)
    if loads.shape != (num_experts,):
        raise ValueError(f"expert_loads must have shape ({num_experts},)")
    if not np.all(np.isfinite(loads)):
        raise ValueError("expert loads must be finite")
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
    """Algorithm 4: proportional replica allocation, in closed form.

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
    total_slots = num_devices * capacity
    extra = total_slots - num_experts
    largest = loads.max()
    if largest > extra * np.finfo(np.float64).tiny:
        # Scaled by the largest load so that the sum cannot overflow.
        shares = loads / largest
        bounds = (shares * (total_slots / shares.sum())).astype(np.int64) + 1
    else:
        bounds = np.full(num_experts, extra, dtype=np.int64)
    # Every candidate quotient load_e / j, expert-major with j ascending, so
    # a stable sort breaks ties by expert, then by j.
    experts = np.repeat(np.arange(num_experts), bounds)
    starts = np.cumsum(bounds) - bounds
    ranks = np.arange(experts.size) - np.repeat(starts, bounds) + 1
    picked = np.argsort(-(loads[experts] / ranks), kind="stable")[:extra]
    return np.bincount(experts[picked], minlength=num_experts) + 1


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
