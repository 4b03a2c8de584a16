"""Expert relocation (Algorithm 1): place replicas on devices.

Given the replica count of every expert (from Algorithm 4 or the even scheme)
and the expert loads, the greedy relocation places replicas one by one, largest
per-replica load first.  For each replica it prefers the node(s) currently
holding the fewest replicas of that expert (so lite routing's intra-node
splitting stays balanced) and, within those nodes, the device with the smallest
accumulated load and free capacity.

That choice is the lexicographic minimum of (replicas of the expert on the
device's node, device load, device index) over the devices with a free slot.
All replicas of one expert share one load, so they are placed one after
another, starting from zero replicas on every node.  Each node keeps a heap
of (load, device) over its devices with a free slot, and its top is the
node's candidate.  Because the choice compares the expert's count on a node
first, every node with a free slot takes one replica before any node takes
a second: the placement runs in rounds over the nodes.  A replica changes
only its own node's heap, so in a round that reaches every such node the
order of the nodes cannot change where the replicas land, and each node
simply takes its own heap top.  Only the last, partial round picks nodes:
the ones with the smallest (top load, top device).  A replica costs one
operation on its node's heap, ``O(log D)`` for ``D`` devices per node.  The
device scan this reproduces is
``repro.scalar_reference.scalar_relocate_experts``.
"""

from __future__ import annotations

from heapq import heappop, heapreplace
from operator import itemgetter
from typing import List, Tuple

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout


def relocate_experts(expert_replicas: np.ndarray, expert_loads: np.ndarray,
                     topology: ClusterTopology, capacity: int) -> ExpertLayout:
    """Algorithm 1: greedy topology-aware placement of expert replicas.

    Args:
        expert_replicas: ``(E,)`` replica counts per expert, summing to at most
            ``N * C`` (the layout tuner always passes exactly ``N * C``).
        expert_loads: ``(E,)`` total token load of each expert.
        topology: Cluster topology (for node awareness).
        capacity: Expert capacity per device ``C``.

    Returns:
        An :class:`ExpertLayout` with every replica placed and no device
        exceeding its capacity.
    """
    expert_replicas = np.asarray(expert_replicas, dtype=np.int64)
    expert_loads = np.asarray(expert_loads, dtype=np.float64)
    num_experts = expert_replicas.shape[0]
    num_devices = topology.num_devices
    if expert_loads.shape != (num_experts,):
        raise ValueError("expert_loads and expert_replicas must align")
    if np.any(expert_replicas < 1):
        raise ValueError("every expert needs at least one replica")
    if not np.all(np.isfinite(expert_loads)):
        raise ValueError("expert loads must be finite")
    if np.any(expert_loads < 0):
        raise ValueError("expert loads must be non-negative")
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    total_replicas = int(expert_replicas.sum())
    if total_replicas > num_devices * capacity:
        raise ValueError(
            f"{total_replicas} replicas exceed the cluster capacity "
            f"{num_devices * capacity}")
    per_node = topology.devices_per_node

    # Experts in placement order: descending per-replica load (Lines 3-5),
    # ties broken by expert id for determinism.
    replica_loads = expert_loads / expert_replicas
    order = np.lexsort((np.arange(num_experts), -replica_loads))
    counts = expert_replicas[order]

    slots = [0] * num_devices
    # Per node: (load, device) of every device with a free slot.  A sorted
    # list is a heap.
    node_heaps: List[List[Tuple[float, int]]] = [
        [(0.0, device) for device in range(node * per_node,
                                           (node + 1) * per_node)]
        for node in range(topology.num_nodes)]
    devices: List[int] = []  # the device of every replica, in placement order

    # The validated total leaves a free slot for every replica, so a round
    # never finds every node full.
    for replicas, load in zip(counts.tolist(),
                              replica_loads[order].tolist()):
        while replicas:
            # One round: every node with a free slot, or in the last,
            # partial round the ones with the lowest (load, device) tops.
            nodes = [heap for heap in node_heaps if heap]
            if replicas < len(nodes):
                nodes = sorted(nodes, key=itemgetter(0))[:replicas]
            for heap in nodes:
                device_load, device = heap[0]
                slots[device] += 1
                if slots[device] < capacity:
                    heapreplace(heap, (device_load + load, device))
                else:
                    heappop(heap)
                devices.append(device)
            replicas -= len(nodes)

    placed = (np.asarray(devices, dtype=np.int64) * num_experts
              + np.repeat(order, counts))
    assignment = np.bincount(placed, minlength=num_devices * num_experts)
    return ExpertLayout(assignment.reshape(num_devices, num_experts), capacity)
