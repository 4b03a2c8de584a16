"""Scalar reference kernels: verbatim ports of the pre-vectorization loops.

The vectorized simulation kernels (the batched All-to-All kernel, batched
routing draws, compact lite-routing splits, the replica placement over
node classes, the closed-form replica allocation, the one-pass iteration
simulator) replaced per-pair / per-device / per-slot / per-layer Python
loops.  This module keeps the original loop semantics in
one canonical place so that

* ``tests/test_vectorized_kernels.py`` can assert scalar-vs-vectorized
  equivalence against the true original behaviour, and
* ``benchmarks/bench_floors.py`` can patch the scalar kernels back in and
  check the vectorized kernels' speedup floors on the same host

without maintaining two drifting copies of the reference code.  Nothing in
the production pipeline imports this module.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.cluster.topology import LinkType
from repro.core.comm_schedule import LayerTimings, schedule_layer
from repro.core.cost_model import BYTES_PER_ELEMENT
from repro.core.layout import ExpertLayout
from repro.core.replica_allocation import _validate_inputs
from repro.core.routing_plan import RoutingPlan
from repro.sim.iteration import IterationResult, LayerResult


def scalar_all_to_all(model, traffic, group=None, scale=1.0):
    """Original O(n^2) per-pair loop of ``CollectiveCostModel.all_to_all``.

    Signature-compatible with the method (``model`` binds as ``self`` when
    patched onto the class).
    """
    members = list(model._resolve_group(group))
    traffic = np.asarray(traffic, dtype=np.float64)
    if traffic.shape != (len(members), len(members)):
        raise ValueError("traffic matrix shape mismatch")
    if np.any(traffic < 0):
        raise ValueError("traffic entries must be non-negative")
    n = len(members)
    if n == 1:
        return 0.0
    send_time = np.zeros(n)
    recv_time = np.zeros(n)
    latency = np.zeros(n)
    for a in range(n):
        for b in range(n):
            if a == b or traffic[a, b] == 0:
                continue
            bw = model.topology.bandwidth(members[a], members[b]) * model.efficiency
            t = (traffic[a, b] * scale) / bw
            send_time[a] += t
            recv_time[b] += t
            latency[a] = max(latency[a],
                             model.topology.latency(members[a], members[b]))
    return float((np.maximum(send_time, recv_time) + latency).max())


def scalar_class_all_to_all(model, traffic, group=None, scale=1.0):
    """Per-entry loop of the link-class All-to-All kernel on a dense
    ``traffic`` matrix: each member's bytes per link class, added in the
    kernel's (row-major) order, then priced per class; ``scale`` multiplies
    each class sum.  Signature-compatible with ``all_to_all``."""
    members = model._resolve_group(group)
    traffic = np.asarray(traffic, dtype=np.float64)
    if traffic.shape != (len(members), len(members)):
        raise ValueError("traffic matrix shape mismatch")
    topology = model.topology
    # Link classes in the order the kernel numbers them.
    classes = (LinkType.LOCAL, LinkType.INTRA_NODE, LinkType.INTER_NODE)
    sent = np.zeros((len(members), 3))
    received = np.zeros((len(members), 3))
    for a, sender in enumerate(members):
        for b, receiver in enumerate(members):
            link = classes.index(topology.link_type(sender, receiver))
            sent[a, link] += traffic[a, b]
            received[b, link] += traffic[a, b]
    intra = 1.0 / (topology.intra_node_bandwidth * model.efficiency)
    inter = 1.0 / (topology.inter_node_bandwidth * model.efficiency)
    worst = 0.0
    for out, into in zip(sent.tolist(), received.tolist()):
        drain = max((out[1] * scale) * intra + (out[2] * scale) * inter,
                    (into[1] * scale) * intra + (into[2] * scale) * inter)
        latency = max(topology.intra_node_latency if out[1] > 0 else 0.0,
                      topology.inter_node_latency if out[2] > 0 else 0.0)
        worst = max(worst, drain + latency)
    return worst


def scalar_overflow_charge(overflow, tokens_per_device, capacity, unit_time):
    """Original one-layer ``OverflowModel.charge``: returns the tokens each
    device computes, the hottest device's overflow, the overflow time and
    the number of dropped tokens."""
    overflow_tokens = max(0, int(tokens_per_device.max()) - capacity)
    if overflow.drop_policy == "truncate":
        computed = np.minimum(tokens_per_device, capacity)
        dropped = int(np.maximum(tokens_per_device - capacity, 0.0).sum())
        return computed, overflow_tokens, 0.0, dropped
    # Recompute is the linear charge at factor 1: ``overflow_tokens`` is
    # an int, so ``1.0 * overflow_tokens`` is exact.
    factor = (1.0 if overflow.drop_policy == "recompute"
              else overflow.overflow_penalty)
    return (tokens_per_device, overflow_tokens,
            (factor * overflow_tokens) * unit_time, 0)


def scalar_simulate_layer(simulator, layer, decision,
                          all_to_all=scalar_class_all_to_all):
    """Original per-layer body of ``IterationSimulator.simulate_iteration``.

    The layer's duration is driven by the *slowest* device's expert
    computation; in the per-rank-averaged breakdown (what the paper's
    profiles report), the stall of the faster ranks shows up as
    All-to-All time, so the expert-compute bucket records the mean and the
    difference max - mean is added to the All-to-All bucket.
    """
    (attention, prefetch, attention_prefetch,
     grad_sync) = simulator._invariant_times()
    plan = decision.routing_plan
    dense = plan.to_dense()
    # One token All-to-All (dispatch or combine) from the plan's dense
    # (N, N) byte matrix; token counts are whole, so float64 holds them.
    traffic = (dense.sum(axis=1).astype(np.float64)
               * simulator.config.hidden_size * BYTES_PER_ELEMENT)
    np.fill_diagonal(traffic, 0.0)
    a2a = all_to_all(simulator.collectives, traffic,
                     scale=simulator.comm_bytes_scale)
    tokens_per_device = dense.sum(axis=(0, 1)).astype(np.float64)
    ideal = plan.tokens.sum() / simulator.topology.num_devices
    max_tokens = int(tokens_per_device.max())
    unit_time = (simulator.config.expert_flops_per_token
                 / simulator.topology.device_spec.effective_flops)
    computed, overflow_tokens, overflow_time, dropped_tokens = (
        tokens_per_device, 0, 0.0, 0)
    if simulator._device_token_capacity is not None:
        computed, overflow_tokens, overflow_time, dropped_tokens = (
            scalar_overflow_charge(simulator.overflow, tokens_per_device,
                                   simulator._device_token_capacity,
                                   unit_time))
    expert_max = float(computed.max()) * unit_time
    expert_mean = float(computed.mean()) * unit_time
    timings = LayerTimings(
        attention_compute=attention,
        expert_compute=expert_max,
        token_a2a=a2a,
        expert_prefetch=prefetch,
        attention_prefetch=attention_prefetch,
        grad_sync=grad_sync
        + simulator.exposed_time_from_bytes(decision.grad_sync_extra_bytes),
    )
    scheduled = schedule_layer(timings, simulator.schedule)
    relayout = simulator.exposed_time_from_bytes(
        decision.relayout_bytes_exposed)
    if simulator.activation_checkpointing:
        recompute = expert_max + attention
    else:
        recompute = 0.0
    imbalance_wait = 3.0 * (expert_max - expert_mean)
    return LayerResult(
        layer=layer,
        forward_time=scheduled.forward_time,
        backward_time=scheduled.backward_time + recompute,
        attention_time=3.0 * attention,
        expert_compute_time=3.0 * expert_mean,
        all_to_all_time=scheduled.a2a_time + imbalance_wait,
        exposed_comm_time=scheduled.exposed_prefetch + scheduled.exposed_grad_sync,
        relayout_time=relayout,
        max_tokens=max_tokens,
        ideal_tokens=float(ideal),
        overflow_tokens=overflow_tokens,
        overflow_time=overflow_time,
        dropped_tokens=dropped_tokens,
    )


def scalar_simulate_iteration(simulator, iteration, decisions,
                              all_to_all=scalar_class_all_to_all):
    """Original per-layer loop of ``IterationSimulator.simulate_iteration``.

    Signature-compatible with the method (``simulator`` binds as ``self``);
    ``all_to_all(model, traffic, scale=...)`` charges each layer's token
    All-to-All (the per-entry class-sum loop by default,
    :func:`scalar_all_to_all` for the per-pair loop).
    """
    if not decisions:
        raise ValueError("decisions must not be empty")
    layer_results = []
    for layer, decision in enumerate(decisions):
        layer_results.append(
            scalar_simulate_layer(simulator, layer, decision, all_to_all))
    scale = simulator.num_layers / len(layer_results)
    breakdown = {
        "attention_and_other": scale * sum(r.attention_time for r in layer_results),
        "expert_compute": scale * sum(r.expert_compute_time for r in layer_results),
        "all_to_all": scale * sum(r.all_to_all_time for r in layer_results),
        "exposed_comm": scale * sum(r.exposed_comm_time for r in layer_results),
        "relayout": scale * sum(r.relayout_time for r in layer_results),
    }
    if simulator._device_token_capacity is not None:
        breakdown["overflow"] = scale * sum(
            r.overflow_time for r in layer_results)
    total = scale * sum(r.total_time for r in layer_results)
    breakdown["other"] = max(0.0, total - sum(breakdown.values()))
    return IterationResult(
        iteration=iteration,
        total_time=total,
        breakdown=breakdown,
        layers=layer_results,
    )


def scalar_draw_routing_frame(rng, probs_by_layer, config):
    """Original per-(layer, device) loop of ``draw_routing_frame``."""
    assignments = config.tokens_per_device * config.top_k
    out = np.zeros((config.num_layers, config.num_devices, config.num_experts),
                   dtype=np.int64)
    for layer in range(config.num_layers):
        probs = probs_by_layer[layer]
        for dev in range(config.num_devices):
            if config.device_noise > 0:
                noisy = probs * rng.lognormal(
                    0.0, config.device_noise, size=config.num_experts)
                noisy = noisy / noisy.sum()
            else:
                noisy = probs
            out[layer, dev] = rng.multinomial(assignments, noisy)
    return out


def scalar_split_evenly(total, weights):
    """Original single-row token split (floor + stable-argsort ties), which
    lite routing's ``_split_rows`` and equal-count closed form reproduce."""
    weights = np.asarray(weights, dtype=np.float64)
    raw = total * weights / weights.sum()
    base = np.floor(raw).astype(np.int64)
    remainder = int(total - base.sum())
    if remainder > 0:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:remainder]] += 1
    return base


def scalar_lite_route(routing, layout, topology):
    """Original per-rank, per-expert lite-routing loop (Algorithm 3).

    Fills the dense ``(N, E, N)`` plan and returns it as a
    :class:`RoutingPlan`.
    """
    routing = np.asarray(routing, dtype=np.int64)
    n = layout.num_devices
    plan = np.zeros((n, layout.num_experts, n), dtype=np.int64)
    for rank in range(n):
        node_devices = np.asarray(
            topology.devices_on_node(topology.node(rank)))
        for expert in range(layout.num_experts):
            tokens = int(routing[rank, expert])
            if tokens == 0:
                continue
            replica_counts = layout.assignment[:, expert]
            intra = np.zeros(n, dtype=np.int64)
            intra[node_devices] = replica_counts[node_devices]
            targets = intra if intra.sum() > 0 else replica_counts
            if targets.sum() == 0:
                raise ValueError(f"expert {expert} has no replica")
            plan[rank, expert] = scalar_split_evenly(tokens, targets)
    return RoutingPlan.from_dense(plan)


def scalar_select_device(node_counts, node_of, device_slots, device_loads,
                         capacity):
    """Original node-preference scan that places one replica: the device
    minimising (replicas on its node, accumulated load, index)."""
    has_capacity = device_slots < capacity
    if not np.any(has_capacity):
        raise ValueError("no device has spare capacity for the replica")
    for count in np.sort(np.unique(node_counts)):
        candidate_nodes = np.nonzero(node_counts == count)[0]
        mask = has_capacity & np.isin(node_of, candidate_nodes)
        candidates = np.nonzero(mask)[0]
        if candidates.size == 0:
            continue
        return int(candidates[int(np.argmin(device_loads[candidates]))])
    candidates = np.nonzero(has_capacity)[0]
    return int(candidates[int(np.argmin(device_loads[candidates]))])


def scalar_relocate_experts(expert_replicas, expert_loads, topology, capacity):
    """Original greedy relocation (Algorithm 1): one device scan per replica.

    Signature-compatible with ``repro.core.relocation.relocate_experts``.
    """
    expert_replicas = np.asarray(expert_replicas, dtype=np.int64)
    expert_loads = np.asarray(expert_loads, dtype=np.float64)
    num_experts = expert_replicas.shape[0]
    num_devices = topology.num_devices
    if expert_loads.shape != (num_experts,):
        raise ValueError("expert_loads and expert_replicas must align")
    if np.any(expert_replicas < 1):
        raise ValueError("every expert needs at least one replica")
    if np.any(expert_loads < 0):
        raise ValueError("expert loads must be non-negative")
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    total_replicas = int(expert_replicas.sum())
    if total_replicas > num_devices * capacity:
        raise ValueError(
            f"{total_replicas} replicas exceed the cluster capacity "
            f"{num_devices * capacity}")

    # One entry per replica, carrying the average load a replica of that
    # expert will serve, sorted descending by load, ties by expert id.
    replica_experts = np.repeat(np.arange(num_experts), expert_replicas)
    replica_loads = np.repeat(expert_loads / expert_replicas, expert_replicas)
    order = np.lexsort((replica_experts, -replica_loads))
    replica_list: List[Tuple[int, float]] = list(
        zip(replica_experts[order].tolist(), replica_loads[order].tolist()))

    assignment = np.zeros((num_devices, num_experts), dtype=np.int64)
    device_slots = np.zeros(num_devices, dtype=np.int64)
    device_loads = np.zeros(num_devices, dtype=np.float64)
    node_of = np.array([topology.node(d) for d in range(num_devices)])
    node_expert_counts = np.zeros((topology.num_nodes, num_experts),
                                  dtype=np.int64)

    for expert, load in replica_list:
        node_counts = node_expert_counts[:, expert]
        device = scalar_select_device(node_counts, node_of, device_slots,
                                      device_loads, capacity)
        assignment[device, expert] += 1
        node_expert_counts[node_of[device], expert] += 1
        device_loads[device] += load
        device_slots[device] += 1

    return ExpertLayout(assignment, capacity)


def scalar_allocate_replicas(expert_loads, num_devices, num_experts, capacity):
    """Original priority-queue Algorithm 4: one heap pop and push per extra
    replica.

    Signature-compatible with
    ``repro.core.replica_allocation.allocate_replicas_priority_queue``.
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
