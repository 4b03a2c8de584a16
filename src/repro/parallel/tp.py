"""Tensor parallelism cost helpers (Megatron-style attention).

Megatron splits the attention projections across ``tp_size`` devices and
synchronises the activations with two All-Reduces per layer in the forward
pass (and two in the backward pass).  TP also reduces GEMM efficiency because
each device multiplies smaller matrices; :data:`EFFICIENCY_LOSS_PER_SPLIT`
captures that empirically-observed degradation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology
from repro.workloads.model_configs import BYTES_PER_ELEMENT, MoEModelConfig

#: Multiplicative GEMM efficiency loss for every doubling of the TP degree
#: (smaller per-device matrices).
EFFICIENCY_LOSS_PER_SPLIT = 0.06


@dataclass
class TensorParallelCost:
    """Per-layer attention cost under tensor parallelism.

    Attributes:
        topology: Cluster topology.
        config: Model configuration.
        tp_size: Tensor-parallel degree.
    """

    topology: ClusterTopology
    config: MoEModelConfig
    tp_size: int

    def __post_init__(self) -> None:
        if self.tp_size < 1:
            raise ValueError("tp_size must be at least 1")
        self._collectives = CollectiveCostModel(self.topology)

    # ------------------------------------------------------------------
    def compute_efficiency(self) -> float:
        """Fraction of single-device GEMM efficiency retained under TP."""
        splits = 0
        size = self.tp_size
        while size > 1:
            splits += 1
            size //= 2
        return (1.0 - EFFICIENCY_LOSS_PER_SPLIT) ** splits

    def attention_forward_time(self, tokens_per_device: int) -> float:
        """Forward attention time per layer per device, including TP comm.

        With a fixed number of tokens per device, tensor parallelism does not
        reduce the per-device attention work: a TP group of size ``tp`` jointly
        processes ``tp`` devices' tokens, so the per-device share is unchanged.
        TP only adds the activation All-Reduces and loses some GEMM efficiency
        because each device multiplies thinner matrices.
        """
        if tokens_per_device < 0:
            raise ValueError("tokens_per_device must be non-negative")
        flops = tokens_per_device * self.config.attention_flops_per_token()
        device = self.topology.device_spec
        compute = flops / (device.effective_flops * self.compute_efficiency())
        return compute + self.allreduce_time_per_layer(tokens_per_device) / 3.0

    def allreduce_time_per_layer(self, tokens_per_device: int) -> float:
        """Total TP All-Reduce time per layer (forward + backward).

        Two All-Reduces of the TP group's joint activations per forward pass
        and two per backward pass; TP groups are placed inside a node whenever
        possible.
        """
        if self.tp_size == 1:
            return 0.0
        group = list(range(min(self.tp_size, self.topology.devices_per_node)))
        if self.tp_size > self.topology.devices_per_node:
            group = list(range(self.tp_size))
        activation_bytes = (self.tp_size * tokens_per_device
                            * self.config.hidden_size * BYTES_PER_ELEMENT)
        one = self._collectives.all_reduce(activation_bytes, group)
        return 4.0 * one
