"""Compact token routing plans: the paper's ``S[i, j, k]`` in CRS form.

``S[i, j, k]`` counts the tokens on device ``i`` routed to expert ``j`` that
are sent to device ``k``.  As a dense ``(N, E, N)`` tensor it is almost all
zeros -- a (sender, expert) row reaches a handful of devices -- so a
:class:`RoutingPlan` stores only each row's destinations, the way FSDP's
``FlatParameter`` keeps its shards in one flat buffer plus offsets (and the
compressed-row-storage layout of sparse matrix kernels).

Row ``r = sender * E + expert`` owns ``dest[offsets[r]:offsets[r + 1]]``
and the matching ``tokens``; destinations ascend within a row.  Plans are
priced many at a time: :func:`stack_plans` lays their entries end to end for
the one token All-to-All price,
:func:`repro.core.cost_model.token_all_to_all`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself when it is read-only, else a read-only copy of it.

    What a holder keeps of an array its caller may still write to: a
    read-only routing frame is shared, a writable one copied once.
    """
    return _frozen(array.copy()) if array.flags.writeable else array


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
    """

    num_devices: int
    num_experts: int
    offsets: np.ndarray
    dest: np.ndarray
    tokens: np.ndarray

    def __post_init__(self) -> None:
        n, e = self.num_devices, self.num_experts
        if n <= 0 or e <= 0:
            raise ValueError("a routing plan needs devices and experts")
        offsets = np.asarray(self.offsets, dtype=np.int64)
        dest = np.asarray(self.dest, dtype=np.int64)
        tokens = np.asarray(self.tokens, dtype=np.int64)
        if offsets.shape != (n * e + 1,):
            raise ValueError(
                f"offsets must have shape ({n * e + 1},) for N={n}, E={e}, "
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
            object.__setattr__(self, name, _frozen(array))

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
        """One destination per row: sender ``i`` sends all its expert-``j``
        tokens (``routing[i, j]``) to device ``owners[i, j]``."""
        routing = np.asarray(routing, dtype=np.int64)
        owners = np.asarray(owners, dtype=np.int64)
        if routing.ndim != 2 or owners.shape != routing.shape:
            raise ValueError("routing and owners must be equal (N, E) matrices")
        n, e = routing.shape
        return cls(n, e, np.arange(n * e + 1), owners.reshape(-1).copy(),
                   routing.reshape(-1).copy())


def stack_plans(plans: "list[RoutingPlan]"
                ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The entries of ``M`` plans of one cluster, as compressed sender rows.

    Returns:
        ``(counts, dest, tokens)``: every plan's entries in plan order, and
        the ``(M, N)`` number of entries of each (plan, sender) row.
    """
    if not plans:
        raise ValueError("need at least one routing plan")
    n, e = plans[0].num_devices, plans[0].num_experts
    if any((plan.num_devices, plan.num_experts) != (n, e) for plan in plans):
        raise ValueError("routing plans must share one cluster shape")
    # Entries per (plan, sender): the offsets at sender boundaries.
    counts = np.stack([plan.offsets[e::e] - plan.offsets[:-1:e]
                       for plan in plans])
    return (counts, np.concatenate([plan.dest for plan in plans]),
            np.concatenate([plan.tokens for plan in plans]))
