"""Cluster topology: devices grouped into nodes with hierarchical bandwidth.

The paper's experiments run on a 4-node cluster with 8 A100 GPUs per node.
GPUs within a node are connected by NVLink (300 GB/s unidirectional) and nodes
are connected by InfiniBand (800 Gbps = 100 GB/s).  The planner's cost model
(Sec. 3.2) needs two primitives from the topology:

* ``bw(i, j)`` -- the bandwidth of the link used when device ``i`` sends data
  to device ``j`` (intra-node or inter-node).
* ``node(i)`` -- the node hosting device ``i`` (used by the topology-aware
  lite-routing and relocation algorithms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, List

import numpy as np

from repro.cluster.device import A100_SPEC, DeviceSpec


class LinkType(Enum):
    """Kind of link connecting a pair of devices."""

    LOCAL = "local"
    INTRA_NODE = "intra_node"
    INTER_NODE = "inter_node"


_GB = 1024.0 ** 3

#: Intra-node unidirectional bandwidth used in the paper (NVLink, 300 GB/s).
DEFAULT_INTRA_NODE_BANDWIDTH = 300.0 * _GB
#: Inter-node unidirectional bandwidth used in the paper (800 Gbps InfiniBand).
DEFAULT_INTER_NODE_BANDWIDTH = 100.0 * _GB
#: Fixed per-message latency (seconds) for intra-node transfers.
DEFAULT_INTRA_NODE_LATENCY = 3e-6
#: Fixed per-message latency (seconds) for inter-node transfers.
DEFAULT_INTER_NODE_LATENCY = 12e-6


@dataclass
class ClusterTopology:
    """A two-level (node / device) cluster topology.

    Attributes:
        num_nodes: Number of nodes in the cluster.
        devices_per_node: Number of accelerators in every node.
        intra_node_bandwidth: Unidirectional intra-node bandwidth in bytes/s.
        inter_node_bandwidth: Unidirectional inter-node bandwidth in bytes/s.
        intra_node_latency: Per-message latency for intra-node transfers (s).
        inter_node_latency: Per-message latency for inter-node transfers (s).
        device_spec: Compute/memory specification shared by all devices.
    """

    num_nodes: int
    devices_per_node: int
    intra_node_bandwidth: float = DEFAULT_INTRA_NODE_BANDWIDTH
    inter_node_bandwidth: float = DEFAULT_INTER_NODE_BANDWIDTH
    intra_node_latency: float = DEFAULT_INTRA_NODE_LATENCY
    inter_node_latency: float = DEFAULT_INTER_NODE_LATENCY
    device_spec: DeviceSpec = field(default_factory=lambda: A100_SPEC)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.devices_per_node <= 0:
            raise ValueError("devices_per_node must be positive")
        if self.intra_node_bandwidth <= 0 or self.inter_node_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.intra_node_latency < 0 or self.inter_node_latency < 0:
            raise ValueError("latencies must be non-negative")
        # Built on first use.  The topology is treated as immutable after
        # construction (nothing in the repo mutates it in place).
        self._device_nodes: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        """Total number of devices ``N`` in the cluster."""
        return self.num_nodes * self.devices_per_node

    def devices(self) -> Iterator[int]:
        """Iterate over global device ranks ``0..N-1``."""
        return iter(range(self.num_devices))

    def node(self, device: int) -> int:
        """Return the node index hosting global device rank ``device``."""
        self._check_device(device)
        return device // self.devices_per_node

    def devices_on_node(self, node: int) -> List[int]:
        """Return the list of global device ranks located on ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")
        start = node * self.devices_per_node
        return list(range(start, start + self.devices_per_node))

    def same_node(self, device_a: int, device_b: int) -> bool:
        """Return True when both devices are hosted on the same node."""
        return self.node(device_a) == self.node(device_b)

    # ------------------------------------------------------------------
    # Link characteristics
    # ------------------------------------------------------------------
    def link_type(self, src: int, dst: int) -> LinkType:
        """Classify the link between ``src`` and ``dst``."""
        self._check_device(src)
        self._check_device(dst)
        if src == dst:
            return LinkType.LOCAL
        if self.same_node(src, dst):
            return LinkType.INTRA_NODE
        return LinkType.INTER_NODE

    def bandwidth(self, src: int, dst: int) -> float:
        """Return ``bw(src, dst)`` in bytes/s.

        Local (same-device) transfers are treated as infinitely fast since no
        data crosses any interconnect.
        """
        kind = self.link_type(src, dst)
        if kind is LinkType.LOCAL:
            return float("inf")
        if kind is LinkType.INTRA_NODE:
            return self.intra_node_bandwidth
        return self.inter_node_bandwidth

    def latency(self, src: int, dst: int) -> float:
        """Return the fixed message latency between ``src`` and ``dst``."""
        kind = self.link_type(src, dst)
        if kind is LinkType.LOCAL:
            return 0.0
        if kind is LinkType.INTRA_NODE:
            return self.intra_node_latency
        return self.inter_node_latency

    def p2p_time(self, src: int, dst: int, num_bytes: float) -> float:
        """Time to move ``num_bytes`` from ``src`` to ``dst`` (alpha-beta model)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if src == dst or num_bytes == 0:
            return 0.0
        return self.latency(src, dst) + num_bytes / self.bandwidth(src, dst)

    # ------------------------------------------------------------------
    # Array form (cached)
    # ------------------------------------------------------------------
    def device_nodes(self) -> np.ndarray:
        """Return the cached, read-only ``(N,)`` array mapping device rank to
        node index."""
        if self._device_nodes is None:
            nodes = np.arange(self.num_devices) // self.devices_per_node
            nodes.setflags(write=False)
            self._device_nodes = nodes
        return self._device_nodes

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def paper_cluster(cls) -> "ClusterTopology":
        """The 4-node x 8-A100 cluster used in the paper's evaluation."""
        return cls(num_nodes=4, devices_per_node=8)

    @classmethod
    def single_node(cls, devices: int = 8, **kwargs: object) -> "ClusterTopology":
        """A single-node cluster with ``devices`` accelerators."""
        return cls(num_nodes=1, devices_per_node=devices, **kwargs)  # type: ignore[arg-type]

    @classmethod
    def homogeneous(cls, num_devices: int, devices_per_node: int = 8,
                    **kwargs: object) -> "ClusterTopology":
        """Build a cluster of ``num_devices`` devices, ``devices_per_node`` per node.

        ``num_devices`` must be a multiple of ``devices_per_node`` unless it is
        smaller, in which case a single node holding all devices is returned.
        """
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        if num_devices <= devices_per_node:
            return cls(num_nodes=1, devices_per_node=num_devices, **kwargs)  # type: ignore[arg-type]
        if num_devices % devices_per_node != 0:
            raise ValueError(
                f"num_devices ({num_devices}) must be a multiple of "
                f"devices_per_node ({devices_per_node})"
            )
        return cls(num_nodes=num_devices // devices_per_node,
                   devices_per_node=devices_per_node, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.num_devices:
            raise ValueError(
                f"device {device} out of range [0, {self.num_devices})"
            )

    def describe(self) -> str:
        """Return a human-readable one-line description of the topology."""
        return (
            f"{self.num_nodes} node(s) x {self.devices_per_node} "
            f"{self.device_spec.name} "
            f"(intra {self.intra_node_bandwidth / _GB:.0f} GB/s, "
            f"inter {self.inter_node_bandwidth / _GB:.0f} GB/s)"
        )
