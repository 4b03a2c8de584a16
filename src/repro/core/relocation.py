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
another, starting from zero replicas on every node.  Each node therefore
keeps a heap of (load, device) over its devices with a free slot, and each
expert a heap of (replicas on the node, the node's top load, its top device,
node): a replica costs ``O(log N)`` instead of a scan over every device.
"""

from __future__ import annotations

import heapq
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

    assignment = np.zeros((num_devices, num_experts), dtype=np.int64)
    slots = [0] * num_devices
    # Per node: (load, device) of every device with a free slot.  A sorted
    # list is a heap.
    node_heaps: List[List[Tuple[float, int]]] = [
        [(0.0, device) for device in range(node * per_node,
                                           (node + 1) * per_node)]
        for node in range(topology.num_nodes)]

    for expert in order.tolist():
        load = float(replica_loads[expert])
        # (replicas of this expert on the node, the node's top load and
        # device, node) for every node with a free slot.
        nodes = [(0, heap[0][0], heap[0][1], node)
                 for node, heap in enumerate(node_heaps) if heap]
        heapq.heapify(nodes)
        for _ in range(int(expert_replicas[expert])):
            if not nodes:
                raise ValueError("no device has spare capacity for the replica")
            count, device_load, device, node = heapq.heappop(nodes)
            heap = node_heaps[node]
            slots[device] += 1
            if slots[device] < capacity:
                heapq.heapreplace(heap, (device_load + load, device))
            else:
                heapq.heappop(heap)
            assignment[device, expert] += 1
            if heap:
                heapq.heappush(nodes, (count + 1, heap[0][0], heap[0][1], node))

    return ExpertLayout(assignment, capacity)
