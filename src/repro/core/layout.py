"""Expert layouts: which device restores which experts (``A`` in the paper).

A layout is an ``(N, E)`` non-negative integer matrix ``A`` where ``A[i, j]``
is the number of replicas of expert ``j`` restored on device ``i`` during the
iteration.  Each device restores at most ``capacity`` (``C``) complete experts,
and every expert must be restored somewhere (dropless training requires every
token to find its experts).

The classic FSDP+EP placement (Fig. 6a) and the fully-replicated placement are
provided as reference layouts; the planner produces load-adaptive layouts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class ExpertLayout:
    """An expert re-layout strategy ``A``.

    Construction validates ``assignment`` and marks it read-only in place,
    as :class:`~repro.core.routing_plan.RoutingPlan` does, so a policy may
    hand out one layout object for as long as its placement is unchanged.
    A builder writes a fresh array first and constructs the layout from it.

    Attributes:
        assignment: ``(N, E)`` integer matrix; ``assignment[i, j]`` is the
            number of replicas of expert ``j`` restored on device ``i``.
        capacity: Expert capacity per device ``C``; every row of
            ``assignment`` must sum to at most ``capacity``.
    """

    assignment: np.ndarray
    capacity: int

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int64)
        if assignment.ndim != 2:
            raise ValueError("assignment must be a 2-D (N, E) matrix")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if np.any(assignment < 0):
            raise ValueError("assignment entries must be non-negative")
        if np.any(assignment.sum(axis=1) > self.capacity):
            raise ValueError(
                "a device restores more experts than its capacity allows")
        assignment.flags.writeable = False
        object.__setattr__(self, "assignment", assignment)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return int(self.assignment.shape[0])

    @property
    def num_experts(self) -> int:
        return int(self.assignment.shape[1])

    def replicas_per_expert(self) -> np.ndarray:
        """Return the ``(E,)`` vector of total replica counts per expert."""
        return self.assignment.sum(axis=0)

    def experts_used_per_device(self) -> np.ndarray:
        """Number of distinct experts restored on each device."""
        return (self.assignment > 0).sum(axis=1)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        """True when every expert has at least one replica somewhere."""
        return bool(np.all(self.replicas_per_expert() >= 1))

    def validate(self, require_full_capacity: bool = False) -> None:
        """Raise ``ValueError`` if the layout is not usable for dropless MoE.

        Args:
            require_full_capacity: Additionally require every device to use
                exactly ``capacity`` slots (the planner always produces such
                layouts; hand-written layouts may leave slots empty).
        """
        if not self.is_complete():
            missing = list(np.nonzero(self.replicas_per_expert() == 0)[0])
            raise ValueError(f"experts {missing} have no replica in the layout")
        if require_full_capacity:
            used = self.assignment.sum(axis=1)
            if np.any(used != self.capacity):
                raise ValueError("some devices do not use their full capacity")

    # ------------------------------------------------------------------
    # Comparisons / bookkeeping
    # ------------------------------------------------------------------
    def difference(self, other: "ExpertLayout") -> int:
        """Number of expert-slot changes between two layouts.

        The larger of the replicas added and the replicas removed: a moved
        replica counts once, an added or a removed one once each.  Since
        ``|A - B|`` sums added plus removed and ``|ΣA - ΣB|`` their
        difference, half their sum is that maximum (always a whole number).
        Used by baselines (Prophet, SmartMoE) that must pay a migration cost
        proportional to the number of expert replicas that change device.
        """
        if self.assignment.shape != other.assignment.shape:
            raise ValueError("layouts must have identical shapes")
        return int((np.abs(self.assignment - other.assignment).sum()
                    + abs(self.assignment.sum() - other.assignment.sum())) // 2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpertLayout):
            return NotImplemented
        return (self.capacity == other.capacity
                and np.array_equal(self.assignment, other.assignment))

    def __repr__(self) -> str:
        return (f"ExpertLayout(N={self.num_devices}, E={self.num_experts}, "
                f"C={self.capacity})")


def static_ep_layout(num_devices: int, num_experts: int,
                     capacity: int) -> ExpertLayout:
    """The classic FSDP+EP placement (Fig. 6a): fixed throughout training.

    The devices are split into ``P_ep = E / C`` expert-parallel groups by
    ``device % P_ep``; EP rank ``r`` always restores experts
    ``[r * C, (r + 1) * C)``.  Each expert therefore has ``N / P_ep``
    compute replicas, evenly spread over the cluster.
    """
    if num_experts % capacity != 0:
        raise ValueError("num_experts must be a multiple of capacity")
    p_ep = num_experts // capacity
    if num_devices % p_ep != 0:
        raise ValueError(
            f"num_devices ({num_devices}) must be a multiple of E/C ({p_ep})")
    assignment = np.zeros((num_devices, num_experts), dtype=np.int64)
    for device in range(num_devices):
        ep_rank = device % p_ep
        for expert in range(ep_rank * capacity, (ep_rank + 1) * capacity):
            assignment[device, expert] = 1
    return ExpertLayout(assignment, capacity)


def round_robin_layout(num_devices: int, num_experts: int,
                       capacity: int) -> ExpertLayout:
    """Fill every device's ``capacity`` slots with experts in round robin.

    Slot ``k`` of the cluster (device ``k // capacity``) restores expert
    ``k % E``.  Unlike :func:`static_ep_layout` it exists for every shape,
    e.g. when ``N`` is not a multiple of ``E / C``.
    """
    assignment = np.zeros((num_devices, num_experts), dtype=np.int64)
    for slot in range(num_devices * capacity):
        assignment[slot // capacity, slot % num_experts] += 1
    return ExpertLayout(assignment, capacity)
