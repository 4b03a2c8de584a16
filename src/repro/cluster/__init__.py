"""Hardware cluster substrate.

This subpackage models the training cluster the paper evaluates on: a set of
nodes, each holding several accelerators, connected by fast intra-node links
(NVLink) and slower inter-node links (InfiniBand).  On top of the topology it
provides analytic cost models for the collective communication operations the
training systems use (All-to-All, All-Gather, Reduce-Scatter, broadcast,
point-to-point) and simple compute / memory models for each device.

The cost models follow the alpha-beta convention: a fixed latency per operation
plus a bandwidth term proportional to the number of bytes crossing the slowest
link involved.
"""

from repro.cluster.topology import ClusterTopology, LinkType
from repro.cluster.device import DeviceSpec, A100_SPEC, H100_SPEC, V100_SPEC
from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.memory import MemoryModel, MemoryBreakdown

__all__ = [
    "ClusterTopology",
    "LinkType",
    "DeviceSpec",
    "A100_SPEC",
    "H100_SPEC",
    "V100_SPEC",
    "CollectiveCostModel",
    "MemoryModel",
    "MemoryBreakdown",
]
