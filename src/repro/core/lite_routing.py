"""Lite routing (Algorithm 3): the synchronous token dispatcher.

Given the routing matrix ``R`` (tokens per device per expert) and the expert
layout ``A``, lite routing decides which replica of an expert each token goes
to.  The algorithm is topology-aware and requires no global coordination:

* if replicas of the expert exist **within the sender's node**, tokens are
  split evenly among those intra-node replicas (keeping traffic on NVLink);
* otherwise tokens are split evenly among **all** replicas across the cluster.

The result is the routing plan ``S`` (a compact
:class:`~repro.core.routing_plan.RoutingPlan`: one row of destinations per
(sender, expert)) consumed by the cost model, the All-to-All dispatcher and
the iteration simulator.  A node is a contiguous range of devices, so the
targets of a (node, expert) pair are one contiguous slice of the expert's
device-sorted replica list, and every sender on every node (and every
candidate layout of a batch) is routed in one vectorized pass.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout
from repro.core.routing_plan import RoutingPlan


def _split_rows(totals: np.ndarray, offsets: np.ndarray, rows: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    """Split ``totals[r]`` over the positive ``weights`` of row ``r``.

    Row ``r`` owns ``weights[offsets[r]:offsets[r + 1]]`` (``rows`` names
    the row of every entry).  Each entry first gets the floor of its
    proportional share; a row's leftover tokens then go one each to its
    largest fractional shares, ties to the earlier entry.  A row with a
    positive total must own at least one entry.

    Returns:
        ``(len(weights),)`` int64 token counts, each row summing to its total.
    """
    weights = np.asarray(weights, dtype=np.float64)
    sums = np.bincount(rows, weights=weights, minlength=totals.size)
    raw = totals[rows] * weights / sums[rows]
    base = np.floor(raw).astype(np.int64)
    leftover = totals - np.bincount(
        rows, weights=base, minlength=totals.size).astype(np.int64)
    # Rank the entries of every row by descending fraction; lexsort is
    # stable, so equal fractions keep their entry order.
    order = np.lexsort((-(raw - base), rows))
    rank = np.arange(rows.size) - offsets[:-1][rows]
    bonus = np.empty(rows.size, dtype=np.int64)
    bonus[order] = rank < leftover[rows]
    return base + bonus


def _split_evenly(total: int, weights: np.ndarray) -> np.ndarray:
    """Split ``total`` integer tokens proportionally to ``weights``.

    The split is deterministic: the integer floor of the proportional share is
    assigned first and the remaining tokens are handed out one-by-one to the
    largest fractional shares (ties by index), so tests (and all devices
    running the algorithm independently) agree on the result.  Zero weights
    receive nothing.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if total < 0:
        raise ValueError("total must be non-negative")
    if weights.sum() <= 0:
        raise ValueError("weights must sum to a positive value")
    positive = np.nonzero(weights > 0)[0]
    split = np.zeros(weights.shape, dtype=np.int64)
    split[positive] = _split_rows(
        np.asarray([total], dtype=np.int64),
        np.asarray([0, positive.size]),
        np.zeros(positive.size, dtype=np.int64), weights[positive])
    return split


def _route(routing: np.ndarray, layouts: "list[ExpertLayout]",
           topology: ClusterTopology) -> List[RoutingPlan]:
    """Lite-route ``routing`` onto every layout in one vectorized pass."""
    m = len(layouts)
    n, num_experts = routing.shape
    per_node = topology.devices_per_node
    nodes = topology.num_nodes
    # Every replica of every (candidate, expert), sorted by device: the
    # nonzeros of the stacked (M, E, N) replica counts in C order.
    replica = np.stack([layout.assignment.T for layout in layouts])
    cand, expert, device = np.nonzero(replica)
    counts = replica[cand, expert, device]
    key = (cand * num_experts + expert) * n + device
    blocks = np.arange(m * num_experts) * n                      # (M*E,)
    first = np.searchsorted(key, blocks)
    last = np.searchsorted(key, blocks + n)

    node_tokens = routing.reshape(nodes, per_node, num_experts).sum(axis=1)
    missing = (node_tokens[None] > 0) & (first == last).reshape(
        m, 1, num_experts)
    if np.any(missing):
        node = int(np.argmax(missing.any(axis=(0, 2))))
        expert_id = int(np.argmax(missing[:, node].any(axis=0)))
        raise ValueError(f"expert {expert_id} has no replica in the layout")

    # Targets of (candidate, expert, node): the node's replicas of the
    # expert when it hosts any, every replica of the expert otherwise.
    node_starts = blocks[:, None] + np.arange(nodes) * per_node  # (M*E, nodes)
    lo = np.searchsorted(key, node_starts)
    hi = np.searchsorted(key, node_starts + per_node)
    intra = hi > lo
    lo = np.where(intra, lo, first[:, None])
    hi = np.where(intra, hi, last[:, None])

    def per_row(table: np.ndarray) -> np.ndarray:
        """(M*E, nodes) -> one value per (candidate, sender, expert) row."""
        by_node = table.reshape(m, num_experts, nodes).transpose(0, 2, 1)
        return np.repeat(by_node, per_node, axis=1).reshape(-1)

    totals = np.broadcast_to(routing, (m, n, num_experts)).reshape(-1)
    row_lo = per_row(lo)
    sizes = np.where(totals > 0, per_row(hi) - row_lo, 0)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    rows = np.repeat(np.arange(totals.size), sizes)
    entries = row_lo[rows] + np.arange(rows.size) - offsets[:-1][rows]
    dest = device[entries]
    tokens = _split_rows(totals, offsets, rows, counts[entries])

    plans = []
    span = n * num_experts
    for index in range(m):
        row_offsets = offsets[index * span:(index + 1) * span + 1]
        start, stop = int(row_offsets[0]), int(row_offsets[-1])
        plans.append(RoutingPlan(n, num_experts, row_offsets - start,
                                 dest[start:stop], tokens[start:stop]))
    return plans


def _check_routing(routing: np.ndarray, num_devices: int, num_experts: int,
                   topology: ClusterTopology, what: str) -> np.ndarray:
    """Validate ``routing`` against the cluster shape; return it as int64."""
    routing = np.asarray(routing, dtype=np.int64)
    if routing.shape != (num_devices, num_experts):
        raise ValueError(
            f"routing must have shape ({num_devices}, {num_experts}), "
            f"got {routing.shape}")
    if topology.num_devices != num_devices:
        raise ValueError(f"topology size does not match the {what}")
    if np.any(routing < 0):
        raise ValueError("token counts must be non-negative")
    return routing


def lite_route(routing: np.ndarray, layout: ExpertLayout,
               topology: ClusterTopology) -> RoutingPlan:
    """Run lite routing for every sender, producing the full plan ``S``.

    Args:
        routing: ``(N, E)`` routing matrix ``R``.
        layout: Expert layout ``A``.
        topology: Cluster topology.

    Returns:
        The plan ``S`` as a :class:`RoutingPlan`: its ``row_sums()`` equal
        ``routing`` and it places tokens only on devices that restore the
        corresponding expert.
    """
    routing = _check_routing(routing, layout.num_devices, layout.num_experts,
                             topology, "layout")
    return _route(routing, [layout], topology)[0]


def lite_route_batch(routing: np.ndarray, layouts: "list[ExpertLayout]",
                     topology: ClusterTopology) -> List[RoutingPlan]:
    """Run :func:`lite_route` for ``M`` candidate layouts in one batch.

    The layout tuner scores every candidate layout on the *same* routing
    matrix; the ``(candidate, sender, expert)`` rows of all candidates are
    split in one vectorized pass, and the result is bit-identical to ``M``
    separate :func:`lite_route` invocations -- this is the tuner's hot path
    (wrapped in the ``planner.batch-eval`` telemetry span).

    Args:
        routing: ``(N, E)`` routing matrix ``R`` shared by all candidates.
        layouts: Candidate expert layouts (all for the same cluster).
        topology: Cluster topology.

    Returns:
        ``M`` plans; ``plans[m]`` equals
        ``lite_route(routing, layouts[m], topology)`` exactly.
    """
    if not layouts:
        raise ValueError("need at least one candidate layout")
    n = layouts[0].num_devices
    num_experts = layouts[0].num_experts
    for layout in layouts:
        if layout.num_devices != n or layout.num_experts != num_experts:
            raise ValueError("candidate layouts must share one cluster shape")
    routing = _check_routing(routing, n, num_experts, topology, "layouts")
    return _route(routing, layouts, topology)
