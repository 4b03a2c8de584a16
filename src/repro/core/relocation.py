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
another, starting from zero replicas on every node.  Because the choice
compares the expert's count on a node first, every node with a free slot
takes one replica before any node takes a second: the placement runs in
rounds over the nodes.  Within a node the choice is the top of a heap of
(load, device) over its devices with a free slot.  A replica changes only
its own node's heap, so in a round that reaches every such node the order
of the nodes cannot change where the replicas land, and each node simply
takes its own heap top.  Only an expert's last, partial round picks nodes:
the ones with the smallest (top load, top device).

Nodes that have received the same replicas on the same local devices hold
equal heaps of (load, local device) and equal slot counts.  They form a
class, which keeps one heap and one slot vector for all of its nodes.  The
nodes stay interchangeable while every round gives all of them a replica or
none: each then takes the same local device and adds the same load to it
(``device_load + load``, in placement order), so they also fill up
together, and a round costs one heap operation per class, not one per node.
A full round gives every free node a replica, so only a partial round can
split a class.  There a class's nodes share one top load, and a device
index ``node * D + local`` orders nodes by node index whatever their local
devices, so the round takes the nodes below a boundary (top load, node
index): all of a class whose top load is below the boundary's, none of one
above it, and of a class tied with it the nodes up to the boundary node, a
prefix in index order.  That prefix moves to a new class with copies of the
heap, the slots and the placements.  Every node's layout row is built once,
from its class's placements, at the end.  The device scan this reproduces
is ``repro.scalar_reference.scalar_relocate_experts``.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heapreplace
from itertools import chain, groupby
from typing import List

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout

# A class of interchangeable nodes: [its nodes in index order, a heap of
# (load, local device) over the devices with a free slot (a sorted list is a
# heap), the slots taken per local device, ``local device * E + expert`` of
# every replica each node has received].
_NodeClass = list


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

    # The classes with a free slot, at first one of every node, and the
    # classes of full nodes.
    live: List[_NodeClass] = [[
        list(range(topology.num_nodes)),
        [(0.0, device) for device in range(per_node)],
        [0] * per_node, []]]
    full: List[_NodeClass] = []
    live_nodes = topology.num_nodes

    for expert, replicas, load in zip(order.tolist(),
                                      expert_replicas[order].tolist(),
                                      replica_loads[order].tolist()):
        while replicas:
            if replicas < live_nodes:
                takers = _partial_round(live, replicas)
                replicas = 0
            elif live_nodes:
                takers = live
                replicas -= live_nodes
            else:
                # The validated total leaves a free slot for every replica;
                # without one, a round would place nothing, forever.
                raise RuntimeError("no device has a free slot left")
            filled = False
            for node_class in takers:
                _, heap, slots, placed = node_class
                device_load, device = heap[0]
                slots[device] += 1
                if slots[device] < capacity:
                    heapreplace(heap, (device_load + load, device))
                else:
                    heappop(heap)
                    filled = filled or not heap
                placed.append(device * num_experts + expert)
            if filled:
                full.extend(node_class for node_class in live
                            if not node_class[1])
                live = [node_class for node_class in live if node_class[1]]
                live_nodes = sum(len(node_class[0]) for node_class in live)

    # Each class's (local device, expert) counts, once, as every node's row.
    classes = live + full
    block = per_node * num_experts
    class_of = [0] * topology.num_nodes
    placements: List[int] = []
    for index, (nodes, _, _, placed) in enumerate(classes):
        for node in nodes:
            class_of[node] = index
        placements.extend([index * block + entry for entry in placed])
    counts = np.bincount(placements, minlength=len(classes) * block)
    assignment = counts.reshape(len(classes), block)[class_of]
    return ExpertLayout(assignment.reshape(num_devices, num_experts), capacity)


def _top_load(node_class: _NodeClass) -> float:
    return node_class[1][0][0]


def _partial_round(live: List[_NodeClass], replicas: int) -> List[_NodeClass]:
    """The classes whose nodes take an expert's last ``replicas`` replicas,
    fewer than ``live`` has nodes.

    They are the nodes with the smallest (top load, node index).  A class
    tied with the boundary node keeps the nodes past it; its nodes up to it
    move to a new class, appended to ``live``, which takes.
    """
    takers: List[_NodeClass] = []
    for _, tied in groupby(sorted(live, key=_top_load), key=_top_load):
        tied = list(tied)
        size = sum(len(node_class[0]) for node_class in tied)
        if size >= replicas:
            break
        takers.extend(tied)
        replicas -= size
    # The boundary node: among the classes tied on its top load, the lower
    # node index goes first, whatever its class.
    cut = sorted(chain.from_iterable(
        node_class[0] for node_class in tied))[replicas - 1]
    for node_class in tied:
        nodes, heap, slots, placed = node_class
        taken = bisect_right(nodes, cut)
        if taken == len(nodes):
            takers.append(node_class)
        elif taken:
            split = [nodes[:taken], list(heap), list(slots), list(placed)]
            node_class[0] = nodes[taken:]
            live.append(split)
            takers.append(split)
    return takers
