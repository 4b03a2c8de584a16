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

Pricing needs only each device's tokens per link class and the tokens it
computes, and those are sums over the (node, expert) groups, so
:func:`lite_route_tokens` prices without a plan (:class:`LiteRouting`, the
layout tuner's candidates).  A sender keeps its own
``T // s + [rank < T % s]`` tokens, and the target at rank ``p`` receives
``sum(T // s) + #{senders with T % s > p}`` from its group.  Mixed and
past-the-bound rows are split entry by entry, as :func:`_route` splits
them.  The sums are whole numbers, so times whole bytes per token they
equal the price kernel's float sums of per-entry bytes in any order while
each device's bytes stay below ``2**53``.
"""

from __future__ import annotations

from typing import NamedTuple

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


def _groups(routing: np.ndarray, layouts: "list[ExpertLayout]",
            topology: ClusterTopology) -> "tuple[np.ndarray, ...]":
    """Every replica (``flat``, its index into the stacked ``(M, E, N)``
    replica counts, and its ``counts``); where each (layout, expert, node)'s
    replicas start in that list (``starts``, then its end); and per (layout,
    expert, node) group of senders, ``(M, E, nodes)`` tables of its
    targets' first replica and number, whether they are on the node, and
    the largest total a row splits in closed form.  ``routing`` is one
    ``(N, E)`` matrix shared by every layout or an ``(M, N, E)`` stack; an
    invalid batch raises the error of its first invalid layout, as a loop
    of single-layout calls would.
    """
    m = len(layouts)
    n, num_experts = routing.shape[-2:]
    per_node = topology.devices_per_node
    nodes = topology.num_nodes
    # Every replica of every (layout, expert), sorted by device: the
    # nonzeros of the stacked (M, E, N) replica counts in C order.
    replica = np.stack([layout.assignment.T for layout in layouts])
    flat = np.flatnonzero(replica)
    counts = replica.reshape(-1)[flat]
    # Per (layout, expert, node): the number of the node's replicas of the
    # expert, their count sum and square sum (the counts are equal iff
    # size * square == sum ** 2); then the same over every node.
    tables = np.stack([
        np.bincount(flat // per_node, weights, m * num_experts * nodes)
        for weights in (None, counts, counts * counts)]).astype(np.int64)
    tables = tables.reshape(3, m, num_experts, nodes)
    everywhere = tables.sum(axis=-1, keepdims=True)
    starts = np.concatenate(([0], np.cumsum(tables[0])))

    negative = np.broadcast_to((routing < 0).any(axis=(-2, -1)), (m,))
    node_tokens = routing.reshape(
        routing.shape[:-2] + (nodes, per_node, num_experts)).sum(axis=-2)
    missing = ((node_tokens > 0)
               & (everywhere[0] == 0).reshape(m, 1, num_experts))
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
    # docstring's bound allows; a mixed group's limit of 0 sends every row
    # with tokens to _split_rows.
    intra = tables[0] > 0
    start = starts[:-1].reshape(intra.shape)
    start = np.where(intra, start, start[..., :1])
    size, total, square = np.where(intra, tables, everywhere)
    peak = np.maximum(total // np.maximum(size, 1), 1)
    limit = np.where(size * square == total * total, (2 ** 53 - 1) // peak, 0)
    return flat, counts, starts, start, size, intra, limit


def _split_mixed(totals: np.ndarray, start: np.ndarray, size: np.ndarray,
                 counts: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Rows of ``totals`` tokens, each over the ``size`` replicas from its
    ``start``, split by :func:`_split_rows` over the replicas' ``counts``:
    every entry's replica and tokens, row after row."""
    offsets = np.concatenate(([0], np.cumsum(size)))
    entries = np.repeat(start - offsets[:-1], size) + np.arange(offsets[-1])
    return entries, _split_rows(totals, offsets,
                                np.repeat(np.arange(size.size), size),
                                counts[entries])


def _route(routing: np.ndarray, layouts: "list[ExpertLayout]",
           topology: ClusterTopology) -> RoutingBatch:
    """Lite-route ``routing`` onto every layout in one vectorized pass."""
    flat, counts, _, start, size, _, limit = _groups(
        routing, layouts, topology)
    m = len(layouts)
    n, num_experts = routing.shape[-2:]
    # One value per (layout, sender, expert) row.
    start, size, limit = (
        np.repeat(table.transpose(0, 2, 1), topology.devices_per_node,
                  axis=1).reshape(-1) for table in (start, size, limit))
    totals = np.broadcast_to(routing, (m, n, num_experts)).reshape(-1)
    sizes = np.where(totals > 0, size, 0)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    position = np.arange(offsets[-1])
    dest = (flat % n)[np.repeat(start - offsets[:-1], sizes) + position]
    share, extra = np.divmod(totals, np.maximum(sizes, 1))
    tokens = (np.repeat(share, sizes)
              + (position < np.repeat(offsets[:-1] + extra, sizes)))
    mixed = totals > limit
    if mixed.any():
        tokens[np.repeat(mixed, sizes)] = _split_mixed(
            totals[mixed], start[mixed], size[mixed], counts)[1]
    return RoutingBatch(m, n, num_experts, offsets, dest, tokens)


def _check_routing(routing: np.ndarray, shapes: "list[tuple]",
                   topology: ClusterTopology, what: str) -> np.ndarray:
    """Check ``routing`` against the accepted ``shapes`` and the topology;
    return it as int64.  Token counts are checked per layout by
    :func:`_groups`."""
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

    ``routing`` broadcasts over the layouts.  A policy's iteration dispatch
    routes each MoE layer's own matrix onto that layer's layout, passing the
    ``(M, N, E)`` stack (in the ``planner.lite-route`` span).  The rows of
    all layouts are split in one vectorized pass, bit-identical to ``M``
    separate :func:`lite_route` calls; an invalid batch raises the error
    the first failing call of that loop would raise.

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
    return _route(_checked_batch(routing, layouts, topology), layouts,
                  topology)


def _checked_batch(routing: np.ndarray, layouts: "list[ExpertLayout]",
                   topology: ClusterTopology) -> np.ndarray:
    """:func:`lite_route_batch`'s checks of its arguments, in its order."""
    if not layouts:
        raise ValueError("need at least one candidate layout")
    n = layouts[0].num_devices
    num_experts = layouts[0].num_experts
    for layout in layouts:
        if layout.num_devices != n or layout.num_experts != num_experts:
            raise ValueError("candidate layouts must share one cluster shape")
    return _check_routing(
        routing, [(n, num_experts), (len(layouts), n, num_experts)],
        topology, "layouts")


class LiteRouting(NamedTuple):
    """``lite_route_batch(routing, layouts, ...)`` left unbuilt, for
    :func:`~repro.core.cost_model.token_all_to_all` to price."""

    routing: np.ndarray
    layouts: "list[ExpertLayout]"


def lite_route_tokens(routing: np.ndarray, layouts: "list[ExpertLayout]",
                      topology: ClusterTopology
                      ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """What ``lite_route_batch(routing, layouts, topology)`` moves per
    (layout, device), summed per target group (module docstring): the
    ``(M, N, 3)`` float64 tokens sent and received per link class (local,
    intra-node, inter-node), and the ``(M, N)`` tokens computed.  Invalid
    input raises :func:`lite_route_batch`'s errors, in its order."""
    routing = _checked_batch(routing, layouts, topology)
    flat, counts, starts, start, size, intra, limit = _groups(
        routing, layouts, topology)
    m = len(layouts)
    n, num_experts = routing.shape[-2:]
    nodes = topology.num_nodes
    count = flat.size
    # Rows (layout, expert, node, sender on the node): each group's tables
    # broadcast over its senders, and replica k's own row is flat[k].
    totals = np.broadcast_to(routing, (m, n, num_experts)).transpose(
        0, 2, 1).reshape(intra.shape + (-1,))
    mixed = totals > limit[..., None]
    share, extra = np.divmod(np.where(mixed, 0, totals),
                             np.maximum(size, 1)[..., None])
    # Replica k is slot k of its node's target group and slot count + k of
    # its expert's group on every node.  A group adds up its floors at its
    # first slot and counts each remainder at the slot it names (a zero at
    # the first slot, which no target's count of larger ones reads).
    first = np.where(intra, start, start + count)
    floors = np.bincount(first.reshape(-1), share.sum(axis=-1).reshape(-1),
                         2 * count)
    above = np.cumsum(np.bincount((first[..., None] + extra).reshape(-1),
                                  minlength=2 * count))
    group, expert = flat // topology.devices_per_node, flat // n * nodes
    low = np.concatenate((starts[group], count + starts[expert]))
    high = np.concatenate((starts[group + 1], count + starts[expert + nodes]))
    receive = floors[low] + above[high - 1] - above[:2 * count]
    # What each replica's device keeps of its own row.
    keep = (share.reshape(-1)[flat]
            + (np.arange(count) - low[:count] < extra.reshape(-1)[flat]))
    if mixed.any():
        starts_at, sizes, on_nodes = (
            np.broadcast_to(table[..., None], totals.shape)[mixed]
            for table in (start, size, intra))
        entries, tokens = _split_mixed(totals[mixed], starts_at, sizes,
                                       counts)
        receive = receive + np.bincount(
            entries + count * ~on_nodes.repeat(sizes), tokens, 2 * count)
        # Entries whose target is their own sender stay local.
        kept = flat[entries] % n == np.flatnonzero(mixed).repeat(sizes) % n
        keep = keep + np.bincount(entries[kept], tokens[kept], count)
    owner = flat // (num_experts * n) * n + flat % n
    hold, into_node, into_other = (
        np.bincount(owner, weights, m * n)
        for weights in (keep, receive[:count], receive[count:]))
    on_node = (totals * intra[..., None]).sum(axis=1).reshape(-1)
    sent = (hold, on_node - hold, totals.sum(axis=1).reshape(-1) - on_node)
    received = (hold, into_node - hold, into_other)
    return (np.stack(sent, axis=-1).reshape(m, n, 3),
            np.stack(received, axis=-1).reshape(m, n, 3),
            (into_node + into_other).reshape(m, n))
