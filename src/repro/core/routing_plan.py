"""Compact token routing plans: the paper's ``S[i, j, k]`` in CRS form.

``S[i, j, k]`` counts the tokens on device ``i`` routed to expert ``j`` that
are sent to device ``k``.  As a dense ``(N, E, N)`` tensor it is almost all
zeros -- a (sender, expert) row reaches a handful of devices -- so a
:class:`RoutingPlan` stores only each row's destinations, the way FSDP's
``FlatParameter`` keeps its shards in one flat buffer plus offsets (and the
compressed-row-storage layout of sparse matrix kernels).

Row ``r = sender * E + expert`` owns ``dest[offsets[r]:offsets[r + 1]]``
and the matching ``tokens``; destinations ascend within a row.

Plans are made many at a time, as one :class:`RoutingBatch` checked once;
``batch[m]`` is plan ``m`` as a read-only view that is not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Type, TypeVar

import numpy as np

_T = TypeVar("_T")


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself when it is read-only, else a read-only copy of it.

    What a holder keeps of an array its caller may still write to: a
    read-only routing frame is shared, a writable one copied once.
    """
    return _frozen(array.copy()) if array.flags.writeable else array


def _unchecked(cls: Type[_T], **fields: object) -> _T:
    """A frozen ``cls`` from arrays already checked (no ``__post_init__``)."""
    instance = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    return instance


def _checked(holder: object, rows: int, shape_of: str) -> None:
    """Check ``holder``'s arrays over ``rows`` rows; store them read-only."""
    n, e = holder.num_devices, holder.num_experts
    if n <= 0 or e <= 0:
        raise ValueError("a routing plan needs devices and experts")
    offsets = np.asarray(holder.offsets, dtype=np.int64)
    dest = np.asarray(holder.dest, dtype=np.int64)
    tokens = np.asarray(holder.tokens, dtype=np.int64)
    if offsets.shape != (rows + 1,):
        raise ValueError(
            f"offsets must have shape ({rows + 1},) for {shape_of}, "
            f"got {offsets.shape}")
    if dest.ndim != 1 or dest.shape != tokens.shape:
        raise ValueError("dest and tokens must be 1-D and of equal length")
    if (offsets[0] != 0 or offsets[-1] != dest.size
            or (offsets[1:] < offsets[:-1]).any()):
        raise ValueError("offsets must rise from 0 to the entry count")
    if dest.size:
        if tokens.min() < 0:
            raise ValueError("routing plan entries must be non-negative")
        if dest.min() < 0 or dest.max() >= n:
            raise ValueError(f"destinations must lie in [0, {n})")
    for name, array in (("offsets", offsets), ("dest", dest),
                        ("tokens", tokens)):
        object.__setattr__(holder, name, _frozen(array))


@dataclass(frozen=True, eq=False)
class RoutingPlan:
    """A token routing plan ``S`` with per-(sender, expert) destination rows.

    Construction validates the arrays and marks them read-only in place.

    Attributes:
        num_devices: Number of devices ``N``.
        num_experts: Number of experts ``E``.
        offsets: ``(N * E + 1,)`` int64 row boundaries into ``dest``/``tokens``.
        dest: Destination device of every entry, ascending within a row
            (every constructor in this package builds rows in that order;
            the executor dispatches tokens to a row's devices in it).
        tokens: Non-negative token count of every entry.
        batch, index: The :class:`RoutingBatch` this plan is a view of and
            its position there (``None`` for a plan built on its own).
    """

    num_devices: int
    num_experts: int
    offsets: np.ndarray
    dest: np.ndarray
    tokens: np.ndarray
    batch: Optional["RoutingBatch"] = field(
        default=None, init=False, repr=False)
    index: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        _checked(self, self.num_devices * self.num_experts,
                 f"N={self.num_devices}, E={self.num_experts}")

    # ------------------------------------------------------------------
    def rows(self) -> np.ndarray:
        """The ``sender * E + expert`` row of every entry."""
        return np.repeat(np.arange(self.num_devices * self.num_experts),
                         np.diff(self.offsets))

    def row_sums(self) -> np.ndarray:
        """``(N, E)`` int64 tokens each sender routes to each expert."""
        cumulative = np.concatenate(([0], np.cumsum(self.tokens)))
        sums = cumulative[self.offsets[1:]] - cumulative[self.offsets[:-1]]
        return sums.reshape(self.num_devices, self.num_experts)

    def to_dense(self) -> np.ndarray:
        """The ``(N, E, N)`` int64 tensor ``S`` (tests and scalar references)."""
        n, e = self.num_devices, self.num_experts
        dense = np.zeros((n * e, n), dtype=np.int64)
        dense[self.rows(), self.dest] = self.tokens
        return dense.reshape(n, e, n)

    @classmethod
    def from_dense(cls, plan: np.ndarray) -> "RoutingPlan":
        """Compact a dense ``(N, E, N)`` plan, keeping its nonzero entries."""
        plan = np.asarray(plan, dtype=np.int64)
        if plan.ndim != 3 or plan.shape[0] != plan.shape[2]:
            raise ValueError(
                f"a dense routing plan has shape (N, E, N), got {plan.shape}")
        n, e, _ = plan.shape
        flat = plan.reshape(n * e, n)
        rows, dest = np.nonzero(flat)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(
            rows, minlength=n * e))))
        return cls(n, e, offsets, dest, flat[rows, dest])

    @classmethod
    def from_owners(cls, routing: np.ndarray,
                    owners: np.ndarray) -> "RoutingPlan":
        """Sender ``i`` sends all its expert-``j`` tokens (``routing[i, j]``)
        to device ``owners[i, j]``; the inputs are checked, the plan not."""
        routing = np.asarray(routing, dtype=np.int64)
        owners = np.asarray(owners, dtype=np.int64)
        if routing.ndim != 2 or owners.shape != routing.shape:
            raise ValueError("routing and owners must be equal (N, E) matrices")
        n, e = routing.shape
        if n == 0 or e == 0:
            raise ValueError("a routing plan needs devices and experts")
        if routing.min() < 0:
            raise ValueError("routing plan entries must be non-negative")
        if owners.min() < 0 or owners.max() >= n:
            raise ValueError(f"destinations must lie in [0, {n})")
        return _unchecked(
            cls, num_devices=n, num_experts=e,
            offsets=_frozen(np.arange(n * e + 1, dtype=np.int64)),
            dest=read_only(owners.reshape(-1)),
            tokens=read_only(routing.reshape(-1)))


@dataclass(frozen=True, eq=False)
class RoutingBatch:
    """``M`` routing plans of one cluster in one flat buffer: plan ``m``
    owns rows ``m * N * E`` to ``(m + 1) * N * E`` of ``offsets``.
    Construction runs :class:`RoutingPlan`'s checks once over the buffer."""

    num_plans: int
    num_devices: int
    num_experts: int
    offsets: np.ndarray
    dest: np.ndarray
    tokens: np.ndarray

    def __post_init__(self) -> None:
        _checked(self, self.num_plans * self.num_devices * self.num_experts,
                 f"M={self.num_plans}, N={self.num_devices}, "
                 f"E={self.num_experts}")

    def __len__(self) -> int:
        return self.num_plans

    def __getitem__(self, index: int) -> RoutingPlan:
        if not 0 <= index < self.num_plans:
            raise IndexError(f"plan {index} out of range [0, {self.num_plans})")
        return self._window(RoutingPlan, index, index + 1, batch=self,
                            index=index)

    def _window(self, cls: Type[_T], start: int, stop: int,
                **fields: object) -> _T:
        span = self.num_devices * self.num_experts
        offsets = self.offsets[start * span:stop * span + 1]
        first, last = int(offsets[0]), int(offsets[-1])
        return _unchecked(
            cls, num_devices=self.num_devices, num_experts=self.num_experts,
            offsets=_frozen(offsets - first), dest=self.dest[first:last],
            tokens=self.tokens[first:last], **fields)

    @classmethod
    def of(cls, plans: Sequence[RoutingPlan]) -> "RoutingBatch":
        """The batch holding ``plans`` in order, checked no more: views of
        consecutive plans of one batch are a window on it, other plans
        (checked when built) are concatenated once."""
        if isinstance(plans, RoutingBatch):
            return plans
        plans = list(plans)
        if not plans:
            raise ValueError("need at least one routing plan")
        source, start = plans[0].batch, plans[0].index
        if source is not None and all(
                plan.batch is source and plan.index == start + position
                for position, plan in enumerate(plans)):
            if len(plans) == source.num_plans:
                return source
            return source._window(cls, start, start + len(plans),
                                  num_plans=len(plans))
        n, e = plans[0].num_devices, plans[0].num_experts
        if any((plan.num_devices, plan.num_experts) != (n, e)
               for plan in plans):
            raise ValueError("routing plans must share one cluster shape")
        sizes = np.concatenate([np.diff(plan.offsets) for plan in plans])
        return _unchecked(
            cls, num_plans=len(plans), num_devices=n, num_experts=e,
            offsets=_frozen(np.concatenate(([0], np.cumsum(sizes)))),
            dest=_frozen(np.concatenate([plan.dest for plan in plans])),
            tokens=_frozen(np.concatenate([plan.tokens for plan in plans])))
