"""Per-device memory model for MoE training under different parallel paradigms.

The paper's memory analysis (Sec. 3.1) compares FSEP against traditional
FSDP(+EP): FSEP keeps optimizer/parameter/gradient states fully sharded like
FSDP and only adds a transient ``2 * C * Psi_expert`` buffer for the restored
expert parameters and their gradients.  This module implements that accounting
so both the simulator and the tests can check memory feasibility and reproduce
the analysis numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import ClusterTopology
from repro.workloads.model_configs import BYTES_PER_ELEMENT, MoEModelConfig

#: Bytes per parameter for fp32 master weights / optimizer moments.
BYTES_FP32 = 4
#: Adam keeps fp32 master weights + two fp32 moments per parameter.
ADAM_STATE_BYTES_PER_PARAM = 3 * BYTES_FP32


@dataclass(frozen=True)
class MemoryBreakdown:
    """Per-device memory usage, in bytes, broken into the usual categories."""

    parameters: float
    gradients: float
    optimizer_state: float
    activations: float
    transient_buffers: float

    @property
    def total(self) -> float:
        """Total bytes across all categories."""
        return (self.parameters + self.gradients + self.optimizer_state
                + self.activations + self.transient_buffers)


@dataclass
class MemoryModel:
    """Estimate per-device memory for a model / topology / paradigm combination.

    Attributes:
        config: MoE model configuration (Table 2 entry).
        topology: Cluster topology the model is trained on.
        activation_checkpointing: Whether full activation recomputation is on
            (reduces resident activations to one layer's worth of inputs).
    """

    config: MoEModelConfig
    topology: ClusterTopology
    activation_checkpointing: bool = True

    # ------------------------------------------------------------------
    # Parameter bookkeeping
    # ------------------------------------------------------------------
    @property
    def total_param_bytes(self) -> float:
        """Total bf16 parameter bytes of the full model."""
        return self.config.total_params * BYTES_PER_ELEMENT

    @property
    def expert_param_bytes_per_layer(self) -> float:
        """bf16 bytes of all experts of one MoE layer."""
        return (self.config.expert_params_per_layer * self.config.num_experts
                * BYTES_PER_ELEMENT)

    @property
    def single_expert_param_bytes(self) -> float:
        """bf16 bytes of a single expert (``Psi_expert`` in the paper)."""
        return self.config.expert_param_bytes

    # ------------------------------------------------------------------
    # Paradigm-specific budgets
    # ------------------------------------------------------------------
    def fsdp_breakdown(self, tokens_per_device: int) -> MemoryBreakdown:
        """Memory under plain FSDP (ZeRO-3) over all ``N`` devices."""
        n = self.topology.num_devices
        sharded_params = self.total_param_bytes / n
        sharded_grads = self.total_param_bytes / n
        optimizer = self.config.total_params * ADAM_STATE_BYTES_PER_PARAM / n
        unsharded_layer = self._layer_param_bytes()
        activations = self._activation_bytes(tokens_per_device)
        return MemoryBreakdown(
            parameters=sharded_params + unsharded_layer,
            gradients=sharded_grads + unsharded_layer,
            optimizer_state=optimizer,
            activations=activations,
            transient_buffers=unsharded_layer,
        )

    def fsep_breakdown(self, tokens_per_device: int,
                       expert_capacity: int | None = None) -> MemoryBreakdown:
        """Memory under FSEP for MoE layers + FSDP for the rest (Sec. 3.1).

        The extra cost over FSDP is ``2 * C * Psi_expert``: the restored expert
        parameters of the current layer plus the prefetched ones of the next,
        and symmetrically for gradients (delayed reduction).
        """
        n = self.topology.num_devices
        capacity = expert_capacity if expert_capacity is not None else self.config.expert_capacity
        sharded_params = self.total_param_bytes / n
        sharded_grads = self.total_param_bytes / n
        optimizer = self.config.total_params * ADAM_STATE_BYTES_PER_PARAM / n
        other_layer = self.config.non_expert_params_per_layer * BYTES_PER_ELEMENT
        restored_experts = 2 * capacity * self.single_expert_param_bytes
        activations = self._activation_bytes(tokens_per_device)
        return MemoryBreakdown(
            parameters=sharded_params + other_layer + restored_experts,
            gradients=sharded_grads + other_layer + restored_experts,
            optimizer_state=optimizer,
            activations=activations,
            transient_buffers=0.0,
        )

    def fsdp_ep_breakdown(self, tokens_per_device: int, ep_size: int) -> MemoryBreakdown:
        """Memory under the FSDP+EP hybrid baseline.

        Expert parameters are partitioned ``ep_size`` ways by EP and the
        remaining ``N / ep_size`` ways by FSDP, so model states end up fully
        sharded; non-expert parameters are FSDP-sharded across all devices.
        """
        n = self.topology.num_devices
        if n % ep_size != 0:
            raise ValueError("ep_size must divide the number of devices")
        fsdp_size = n // ep_size
        expert_bytes = (self.expert_param_bytes_per_layer * self.config.num_moe_layers)
        non_expert_bytes = self.total_param_bytes - expert_bytes
        sharded_params = expert_bytes / (ep_size * fsdp_size) + non_expert_bytes / n
        sharded_grads = sharded_params
        optimizer = (self.config.total_params * ADAM_STATE_BYTES_PER_PARAM) / n
        experts_per_device = self.config.num_experts / ep_size
        unsharded = (experts_per_device * self.single_expert_param_bytes
                     + self.config.non_expert_params_per_layer * BYTES_PER_ELEMENT)
        activations = self._activation_bytes(tokens_per_device)
        return MemoryBreakdown(
            parameters=sharded_params + unsharded,
            gradients=sharded_grads + unsharded,
            optimizer_state=optimizer,
            activations=activations,
            transient_buffers=unsharded,
        )

    def megatron_breakdown(self, tokens_per_device: int, tp_size: int,
                           ep_size: int,
                           optimizer_sharding_dp: int = 1) -> MemoryBreakdown:
        """Memory under a Megatron-style TP(attention) + EP(MoE) configuration.

        Non-expert parameters are replicated within each DP group and split
        ``tp_size`` ways; experts are split ``ep_size`` ways.  Optimizer states
        follow the same partitioning, optionally further sharded across
        ``optimizer_sharding_dp`` data-parallel ranks (Megatron's distributed
        optimizer / ZeRO-1).
        """
        if optimizer_sharding_dp < 1:
            raise ValueError("optimizer_sharding_dp must be at least 1")
        expert_bytes = self.expert_param_bytes_per_layer * self.config.num_moe_layers
        non_expert_bytes = self.total_param_bytes - expert_bytes
        params = expert_bytes / ep_size + non_expert_bytes / tp_size
        grads = params
        optimizer = (params / BYTES_PER_ELEMENT * ADAM_STATE_BYTES_PER_PARAM
                     / optimizer_sharding_dp)
        activations = self._activation_bytes(tokens_per_device) / tp_size
        return MemoryBreakdown(
            parameters=params,
            gradients=grads,
            optimizer_state=optimizer,
            activations=activations,
            transient_buffers=0.0,
        )

    # ------------------------------------------------------------------
    # Feasibility helpers
    # ------------------------------------------------------------------
    def fits(self, breakdown: MemoryBreakdown, safety_margin: float = 0.9) -> bool:
        """Check whether a breakdown fits in device memory with a safety margin."""
        if not 0.0 < safety_margin <= 1.0:
            raise ValueError("safety_margin must be in (0, 1]")
        return breakdown.total <= self.topology.device_spec.memory_bytes * safety_margin

    def max_tokens_per_device(self, paradigm: str = "fsep",
                              safety_margin: float = 0.9, **kwargs: int) -> int:
        """Binary-search the largest per-device token count that fits in memory."""
        builders = {
            "fsdp": self.fsdp_breakdown,
            "fsep": self.fsep_breakdown,
            "fsdp_ep": self.fsdp_ep_breakdown,
            "megatron": self.megatron_breakdown,
        }
        if paradigm not in builders:
            raise ValueError(f"unknown paradigm {paradigm!r}")
        builder = builders[paradigm]
        lo, hi = 0, 1
        while self.fits(builder(hi, **kwargs), safety_margin) and hi < 2 ** 24:
            lo, hi = hi, hi * 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.fits(builder(mid, **kwargs), safety_margin):
                lo = mid
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _layer_param_bytes(self) -> float:
        per_layer = (self.config.non_expert_params_per_layer
                     + self.config.expert_params_per_layer * self.config.num_experts)
        return per_layer * BYTES_PER_ELEMENT

    def _activation_bytes(self, tokens_per_device: int) -> float:
        per_token = self.config.activation_bytes_per_token(
            checkpointing=self.activation_checkpointing)
        return per_token * tokens_per_device
