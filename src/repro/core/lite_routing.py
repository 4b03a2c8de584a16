"""Lite routing (Algorithm 3): the synchronous token dispatcher.

Given the routing matrix ``R`` (tokens per device per expert) and the expert
layout ``A``, lite routing decides which replica of an expert each token goes
to.  The algorithm is topology-aware and requires no global coordination:

* if replicas of the expert exist **within the sender's node**, tokens are
  split evenly among those intra-node replicas (keeping traffic on NVLink);
* otherwise tokens are split evenly among **all** replicas across the cluster.

The result is the routing plan ``S[i, j, k]`` consumed by the cost model, the
All-to-All dispatcher and the iteration simulator.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout


def _split_evenly_batched(totals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_split_evenly`: split ``totals[m]`` along ``weights[m]``.

    Args:
        totals: ``(M,)`` non-negative token counts.
        weights: ``(M, K)`` non-negative weights; every row whose total is
            positive must have a positive weight sum (rows with a zero total
            yield all zeros and their weights are ignored).

    Returns:
        ``(M, K)`` int64 splits, each row exactly equal to
        ``_split_evenly(totals[m], weights[m])``: floor of the proportional
        share first, leftovers to the largest fractional shares with ties
        broken by index.
    """
    totals = np.asarray(totals, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(totals < 0):
        raise ValueError("total must be non-negative")
    weight_sums = weights.sum(axis=1)
    active = totals > 0
    if np.any(active & (weight_sums <= 0)):
        raise ValueError("weights must sum to a positive value")
    safe_sums = np.where(weight_sums > 0, weight_sums, 1.0)
    raw = totals[:, None] * weights / safe_sums[:, None]
    base = np.floor(raw).astype(np.int64)
    remainder = totals - base.sum(axis=1)
    frac = raw - base
    # Rank the fractional shares per row (stable => ties broken by index)
    # and hand each row's leftover tokens to its top-`remainder` ranks.
    order = np.argsort(-frac, axis=1, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(order.shape[0])[:, None]
    ranks[rows, order] = np.arange(order.shape[1])[None, :]
    base += ranks < remainder[:, None]
    return base


def _split_evenly(total: int, weights: np.ndarray) -> np.ndarray:
    """Split ``total`` integer tokens proportionally to ``weights``.

    The split is deterministic: the integer floor of the proportional share is
    assigned first and the remaining tokens are handed out one-by-one in index
    order, so tests (and all devices running the algorithm independently)
    agree on the result.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    if total < 0:
        raise ValueError("total must be non-negative")
    if weights.sum() <= 0:
        raise ValueError("weights must sum to a positive value")
    return _split_evenly_batched(np.asarray([total]), weights)[0]


def _node_target_weights(layout: ExpertLayout, topology: ClusterTopology,
                         node: int) -> np.ndarray:
    """Per-expert ``(E, N)`` split weights for senders hosted on ``node``.

    Every expert's row is the node-local replica counts when the node hosts
    at least one replica (keeping traffic on NVLink), otherwise the global
    replica counts -- the vectorized form of Algorithm 3's target selection,
    shared by every sender on the node.
    """
    replica = layout.assignment.T.astype(np.float64)  # (E, N)
    node_devices = np.asarray(topology.devices_on_node(node))
    intra = np.zeros_like(replica)
    intra[:, node_devices] = replica[:, node_devices]
    has_intra = intra.sum(axis=1) > 0
    return np.where(has_intra[:, None], intra, replica)


def _check_replicas(routing: np.ndarray, weights: np.ndarray) -> None:
    """Raise for the first expert that has tokens but no replica anywhere."""
    missing = (routing.sum(axis=0) > 0) & (weights.sum(axis=1) <= 0)
    if np.any(missing):
        expert = int(np.argmax(missing))
        raise ValueError(f"expert {expert} has no replica in the layout")


def lite_route(routing: np.ndarray, layout: ExpertLayout,
               topology: ClusterTopology) -> np.ndarray:
    """Run lite routing for every sender, producing the full plan ``S``.

    Args:
        routing: ``(N, E)`` routing matrix ``R``.
        layout: Expert layout ``A``.
        topology: Cluster topology.

    Returns:
        ``(N, E, N)`` integer plan ``S`` satisfying
        ``S.sum(axis=2) == routing`` and placing tokens only on devices that
        restore the corresponding expert.
    """
    routing = np.asarray(routing, dtype=np.int64)
    n = layout.num_devices
    if routing.shape != (n, layout.num_experts):
        raise ValueError(
            f"routing must have shape ({n}, {layout.num_experts}), "
            f"got {routing.shape}")
    if topology.num_devices != n:
        raise ValueError("topology size does not match the layout")
    if np.any(routing < 0):
        raise ValueError("token counts must be non-negative")
    num_experts = layout.num_experts
    plan = np.zeros((n, num_experts, n), dtype=np.int64)
    # All senders on a node share the same per-expert target weights, so the
    # whole node's (ranks x experts) splits batch into one call.
    for node in range(topology.num_nodes):
        ranks = topology.devices_on_node(node)
        weights = _node_target_weights(layout, topology, node)
        _check_replicas(routing[ranks], weights)
        totals = routing[ranks].reshape(-1)                  # (R*E,)
        tiled = np.tile(weights, (len(ranks), 1))            # (R*E, N)
        plan[ranks] = _split_evenly_batched(totals, tiled).reshape(
            len(ranks), num_experts, n)
    return plan


def lite_route_batch(routing: np.ndarray, layouts: "list[ExpertLayout]",
                     topology: ClusterTopology) -> np.ndarray:
    """Run :func:`lite_route` for ``M`` candidate layouts in one batch.

    The layout tuner scores every candidate layout on the *same* routing
    matrix; since :func:`_split_evenly_batched` is purely row-wise, the
    ``(candidate, sender, expert)`` rows of all candidates stack into a
    single call and the result is bit-identical to ``M`` separate
    :func:`lite_route` invocations -- this is the tuner's vectorized hot
    path (wrapped in the ``planner.batch-eval`` telemetry span).

    Args:
        routing: ``(N, E)`` routing matrix ``R`` shared by all candidates.
        layouts: Candidate expert layouts (all for the same cluster).
        topology: Cluster topology.

    Returns:
        ``(M, N, E, N)`` integer plans; ``plans[m]`` equals
        ``lite_route(routing, layouts[m], topology)`` exactly.
    """
    routing = np.asarray(routing, dtype=np.int64)
    if not layouts:
        raise ValueError("need at least one candidate layout")
    n = layouts[0].num_devices
    num_experts = layouts[0].num_experts
    for layout in layouts:
        if layout.num_devices != n or layout.num_experts != num_experts:
            raise ValueError("candidate layouts must share one cluster shape")
    if routing.shape != (n, num_experts):
        raise ValueError(
            f"routing must have shape ({n}, {num_experts}), "
            f"got {routing.shape}")
    if topology.num_devices != n:
        raise ValueError("topology size does not match the layouts")
    if np.any(routing < 0):
        raise ValueError("token counts must be non-negative")
    m = len(layouts)
    replica = np.stack([layout.assignment.T for layout in layouts]
                       ).astype(np.float64)                      # (M, E, N)
    plans = np.zeros((m, n, num_experts, n), dtype=np.int64)
    for node in range(topology.num_nodes):
        ranks = topology.devices_on_node(node)
        # Per-candidate node target weights: intra-node replicas when the
        # node hosts any, global replicas otherwise (same selection as
        # _node_target_weights, vectorized over candidates).
        intra = np.zeros_like(replica)
        intra[:, :, ranks] = replica[:, :, ranks]
        has_intra = intra.sum(axis=2) > 0                        # (M, E)
        weights = np.where(has_intra[:, :, None], intra, replica)
        missing = ((routing[ranks].sum(axis=0) > 0)[None, :]
                   & (weights.sum(axis=2) <= 0))
        if np.any(missing):
            expert = int(np.argmax(np.any(missing, axis=0)))
            raise ValueError(f"expert {expert} has no replica in the layout")
        num_ranks = len(ranks)
        totals = np.tile(routing[ranks].reshape(-1), m)          # (M*R*E,)
        tiled = np.broadcast_to(
            weights[:, None, :, :], (m, num_ranks, num_experts, n)
        ).reshape(m * num_ranks * num_experts, n)
        plans[:, ranks] = _split_evenly_batched(totals, tiled).reshape(
            m, num_ranks, num_experts, n)
    return plans

