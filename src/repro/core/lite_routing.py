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
candidate layout of a batch) is routed in one vectorized pass, into one
:class:`~repro.core.routing_plan.RoutingBatch` checked once.

A row's ``T`` tokens are split in proportion to its targets' replica counts
(the largest-remainder rule of :func:`_split_rows`).  Most targets carry
equal counts ``w``, and then the split has a closed form: ``T // s`` tokens
to each of the ``s`` targets and one more to each of the first ``T % s``.
That is exactly what the proportional rule gives while ``T * w < 2**53``:

* ``T * w`` and ``s * w`` are exact in float64, and IEEE division is
  correctly rounded, so every share ``fl(T * w / (s * w))`` equals
  ``fl(T / s)``;
* its floor is ``T // s``, because ``T / s`` lies at least ``1 / s`` below
  the next integer, more than half a unit in the last place when
  ``T < 2**53``;
* every fraction is then the same, so the ``T % s`` leftover tokens go to
  the earliest entries.

Rows whose targets carry mixed counts, and rows at or past the ``2**53``
bound, are split by :func:`_split_rows`.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout
from repro.core.routing_plan import RoutingBatch, RoutingPlan


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
    # Rank the entries of every row by descending fraction, equal fractions
    # in entry order.  A stable sort orders complex keys by the real part
    # (the row), then the imaginary part (the negated fraction): exactly a
    # two-key lexsort, several times faster.
    key = np.empty(rows.size, dtype=np.complex128)
    key.real = rows
    key.imag = -(raw - base)
    order = np.argsort(key, kind="stable")
    rank = np.arange(rows.size) - offsets[:-1][rows]
    bonus = np.empty(rows.size, dtype=np.int64)
    bonus[order] = rank < leftover[rows]
    return base + bonus


def _route(routing: np.ndarray, layouts: "list[ExpertLayout]",
           topology: ClusterTopology) -> RoutingBatch:
    """Lite-route onto every layout in one vectorized pass.

    ``routing`` is one ``(N, E)`` matrix shared by every layout or an
    ``(M, N, E)`` stack, one matrix per layout.  An invalid batch raises the
    error of its first invalid layout: the one a loop of single-layout
    calls would raise first.
    """
    m = len(layouts)
    n, num_experts = routing.shape[-2:]
    per_node = topology.devices_per_node
    nodes = topology.num_nodes
    # Every replica of every (layout, expert), sorted by device: the
    # nonzeros of the stacked (M, E, N) replica counts in C order.
    replica = np.stack([layout.assignment.T for layout in layouts])
    flat = np.flatnonzero(replica)
    device = flat % n
    counts = replica.reshape(-1)[flat]
    # Per (layout, expert, node): where the node's replicas of the expert
    # start in that list, how many there are, and their count sum and
    # maximum; then the same over the expert's replicas on every node.
    by_node = replica.reshape(m, num_experts, nodes, per_node)
    size = np.count_nonzero(by_node, axis=-1)
    start = (np.cumsum(size.reshape(-1)) - size.reshape(-1)).reshape(size.shape)
    weight = by_node.sum(axis=-1)
    peak = by_node.max(axis=-1)
    all_size = size.sum(axis=-1, keepdims=True)
    all_weight = weight.sum(axis=-1, keepdims=True)
    all_peak = peak.max(axis=-1, keepdims=True)

    negative = np.broadcast_to((routing < 0).any(axis=(-2, -1)), (m,))
    node_tokens = routing.reshape(
        routing.shape[:-2] + (nodes, per_node, num_experts)).sum(axis=-2)
    missing = (node_tokens > 0) & (all_size == 0).reshape(m, 1, num_experts)
    failing = negative | missing.any(axis=(1, 2))
    if np.any(failing):
        index = int(np.argmax(failing))
        if negative[index]:
            raise ValueError("token counts must be non-negative")
        # The first node needing a missing expert, then its lowest one.
        expert_id = int(np.argwhere(missing[index])[0, 1])
        raise ValueError(f"expert {expert_id} has no replica in the layout")

    # Targets of (layout, expert, node): the node's replicas of the expert
    # when it hosts any, every replica of the expert otherwise.  A group of
    # equal counts splits in closed form up to the largest total the module
    # docstring's bound allows; a mixed group's limit of -1 sends its rows
    # to _split_rows.
    intra = size > 0
    start = np.where(intra, start, start[..., :1])
    size = np.where(intra, size, all_size)
    weight = np.where(intra, weight, all_weight)
    peak = np.where(intra, peak, all_peak)
    limit = np.where(peak * size == weight,
                     (2 ** 53 - 1) // np.maximum(peak, 1), -1)

    def per_row(table: np.ndarray) -> np.ndarray:
        """(M, E, nodes) -> one value per (layout, sender, expert) row."""
        return np.repeat(table.transpose(0, 2, 1), per_node, axis=1).reshape(-1)

    totals = np.broadcast_to(routing, (m, n, num_experts)).reshape(-1)
    sizes = np.where(totals > 0, per_row(size), 0)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    position = np.arange(offsets[-1])
    entries = np.repeat(per_row(start) - offsets[:-1], sizes) + position
    dest = device[entries]
    share, extra = np.divmod(totals, np.maximum(sizes, 1))
    tokens = (np.repeat(share, sizes)
              + (position < np.repeat(offsets[:-1] + extra, sizes)))
    mixed = (sizes > 0) & (totals > per_row(limit))
    if mixed.any():
        at = np.repeat(mixed, sizes)
        mixed_sizes = sizes[mixed]
        tokens[at] = _split_rows(
            totals[mixed], np.concatenate(([0], np.cumsum(mixed_sizes))),
            np.repeat(np.arange(mixed_sizes.size), mixed_sizes),
            counts[entries[at]])

    return RoutingBatch(m, n, num_experts, offsets, dest, tokens)


def _check_routing(routing: np.ndarray, shapes: "list[tuple]",
                   topology: ClusterTopology, what: str) -> np.ndarray:
    """Check ``routing`` against the accepted ``shapes`` and the topology;
    return it as int64.  Token counts are checked per layout by :func:`_route`."""
    routing = np.asarray(routing, dtype=np.int64)
    if routing.shape not in shapes:
        raise ValueError(
            f"routing must have shape {' or '.join(map(str, shapes))}, "
            f"got {routing.shape}")
    if topology.num_devices != routing.shape[-2]:
        raise ValueError(f"topology size does not match the {what}")
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
    routing = _check_routing(
        routing, [(layout.num_devices, layout.num_experts)], topology, "layout")
    return _route(routing, [layout], topology)[0]


def lite_route_batch(routing: np.ndarray, layouts: "list[ExpertLayout]",
                     topology: ClusterTopology) -> RoutingBatch:
    """Run :func:`lite_route` for ``M`` layouts in one batch.

    ``routing`` broadcasts over the layouts.  The layout tuner scores every
    candidate layout on the *same* ``(N, E)`` matrix (its hot path, in the
    ``planner.batch-eval`` telemetry span); a policy's iteration dispatch
    routes each MoE layer's own matrix onto that layer's layout, passing the
    ``(M, N, E)`` stack (in the ``planner.lite-route`` span).  The
    ``(layout, sender, expert)`` rows of all layouts are split in one
    vectorized pass, bit-identical to ``M`` separate :func:`lite_route`
    calls; an invalid batch raises the error the first failing call of
    that loop would raise.

    Args:
        routing: ``(N, E)`` routing matrix ``R`` shared by all layouts, or
            an ``(M, N, E)`` stack with one matrix per layout.
        layouts: Expert layouts (all for the same cluster).
        topology: Cluster topology.

    Returns:
        The ``M`` plans as one :class:`RoutingBatch`; ``batch[m]`` equals
        ``lite_route(routing[m], layouts[m], topology)`` exactly (with
        ``routing`` itself for a shared matrix).
    """
    if not layouts:
        raise ValueError("need at least one candidate layout")
    n = layouts[0].num_devices
    num_experts = layouts[0].num_experts
    for layout in layouts:
        if layout.num_devices != n or layout.num_experts != num_experts:
            raise ValueError("candidate layouts must share one cluster shape")
    routing = _check_routing(
        routing, [(n, num_experts), (len(layouts), n, num_experts)],
        topology, "layouts")
    return _route(routing, layouts, topology)
