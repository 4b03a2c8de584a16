"""Per-iteration cost assembly.

The :class:`IterationSimulator` converts the decisions of a load-balancing
policy (expert layouts and token routing plans) into time, using the cluster's
collective cost models and the Fig. 5 communication schedule:

* attention (and the rest of the dense transformer work) on every device,
  optionally under tensor parallelism;
* the token dispatch / combine All-to-All, charged from the actual traffic
  of the routing plans: one pass over the routing batch holding every
  layer's plan costs all the layers' exchanges at once
  (:func:`repro.core.cost_model.token_all_to_all`, the price the planner's
  cost model charges too);
* expert computation, taken as the *maximum* across devices (the tail latency
  the paper targets);
* expert-parameter prefetch and gradient synchronisation, whose exposure
  depends on the paradigm (FSEP unshard/reshard, FSDP All-Gather /
  Reduce-Scatter, or Megatron's replicated gradients);
* re-layout overheads reported by the policy (migrations, shadow broadcasts);
* optionally, a **capacity-overflow model** (:class:`OverflowModel`): when
  a scenario routes more tokens onto a device than its memory can hold, the
  overflowing tokens are charged or dropped according to its
  ``drop_policy``.  Off by default; the per-device token budget defaults to
  the paradigm's :class:`~repro.cluster.memory.MemoryModel` feasibility
  limit and can be pinned explicitly via ``token_capacity``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import PolicyDecision
from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.memory import MemoryModel
from repro.cluster.topology import ClusterTopology
from repro.core.comm_schedule import (
    CommScheduleConfig,
    LayerTimings,
    schedule_layer,
)
from repro.core.cost_model import BYTES_PER_ELEMENT, token_all_to_all
from repro.parallel.tp import TensorParallelCost
from repro.telemetry.trace import span as _span
from repro.workloads.model_configs import MoEModelConfig

#: Supported capacity-overflow handling policies.
DROP_POLICIES = ("penalty", "truncate", "recompute")


@dataclass(frozen=True)
class OverflowModel:
    """How a layer charges the tokens routed beyond a device's capacity.

    Attributes:
        overflow_penalty: Cost factor of the ``"penalty"`` policy: each
            overflowing token is charged as ``penalty`` times its expert
            compute time.  ``0.0`` (the default) leaves the model off.
        token_capacity: Per-device routed-token budget; ``None`` derives it
            from device memory (see
            :meth:`IterationSimulator.device_token_capacity`).
        drop_policy: ``"penalty"`` (the linear charge above), ``"truncate"``
            (capacity-factor truncation: overflowing tokens are dropped,
            never computed, so the layer's expert time is bounded at
            capacity) or ``"recompute"`` (overflowing tokens go through one
            full extra expert pass: the linear charge at factor 1, whatever
            ``overflow_penalty`` says).  The non-default policies turn the
            model on even with ``overflow_penalty == 0``.
    """

    overflow_penalty: float = 0.0
    token_capacity: Optional[int] = None
    drop_policy: str = "penalty"

    def __post_init__(self) -> None:
        if self.overflow_penalty < 0:
            raise ValueError("overflow_penalty must be non-negative")
        if self.token_capacity is not None and self.token_capacity <= 0:
            raise ValueError("token_capacity must be positive")
        if self.drop_policy not in DROP_POLICIES:
            raise ValueError(
                f"unknown drop_policy {self.drop_policy!r}; "
                f"expected one of {DROP_POLICIES}")

    @property
    def active(self) -> bool:
        """Whether any tokens are compared against a capacity at all."""
        return self.overflow_penalty > 0 or self.drop_policy != "penalty"

    def to_dict(self) -> Dict[str, Any]:
        """The non-default settings, keyed by their spec field names.

        Only set knobs are emitted: run ids and spec fingerprints are
        content hashes of the spec dict, so emitting the defaults would
        orphan every run stored before the knobs existed (resume would
        re-execute finished sweeps, regressions() would stop pairing old
        baselines with new candidates).
        """
        data: Dict[str, Any] = {}
        if self.overflow_penalty != 0.0:
            data["overflow_penalty"] = self.overflow_penalty
        if self.token_capacity is not None:
            data["token_capacity"] = self.token_capacity
        if self.drop_policy != "penalty":
            data["drop_policy"] = self.drop_policy
        return data

    def charge(self, tokens_per_device: np.ndarray, capacity: int,
               unit_time: float
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Charge each layer's per-device routed tokens against ``capacity``.

        ``tokens_per_device`` is ``(L, N)``; ``unit_time`` is one token's
        expert compute time.  Returns the ``(L, N)`` tokens each device
        computes and, per layer, the hottest device's overflow, the
        overflow time and the number of dropped tokens.
        """
        overflow_tokens = np.maximum(
            tokens_per_device.max(axis=1) - capacity, 0).astype(np.int64)
        if self.drop_policy == "truncate":
            computed = np.minimum(tokens_per_device, capacity)
            dropped = np.maximum(tokens_per_device - capacity, 0.0).sum(axis=1)
            return (computed, overflow_tokens, np.zeros(len(overflow_tokens)),
                    dropped.astype(np.int64))
        # Recompute is the linear charge at factor 1: the overflow counts
        # are whole numbers, so ``1.0 * overflow_tokens`` is exact.
        factor = (1.0 if self.drop_policy == "recompute"
                  else self.overflow_penalty)
        return (tokens_per_device, overflow_tokens,
                (factor * overflow_tokens) * unit_time,
                np.zeros_like(overflow_tokens))


@dataclass
class LayerResult:
    """Simulated time of one MoE transformer layer (forward + backward)."""

    layer: int
    forward_time: float
    backward_time: float
    attention_time: float
    expert_compute_time: float
    all_to_all_time: float
    exposed_comm_time: float
    relayout_time: float
    max_tokens: int
    ideal_tokens: float
    overflow_tokens: int = 0
    overflow_time: float = 0.0
    dropped_tokens: int = 0

    @property
    def total_time(self) -> float:
        return (self.forward_time + self.backward_time + self.relayout_time
                + self.overflow_time)

    @property
    def relative_max_tokens(self) -> float:
        """Maximum per-device token count relative to perfect balance."""
        if self.ideal_tokens == 0:
            return 1.0
        return self.max_tokens / self.ideal_tokens


@dataclass
class IterationResult:
    """Simulated time of one full training iteration."""

    iteration: int
    total_time: float
    breakdown: Dict[str, float]
    layers: List[LayerResult] = field(default_factory=list)

    @property
    def max_relative_tokens(self) -> float:
        """Worst relative max token count across layers (Fig. 10b metric)."""
        return max((layer.relative_max_tokens for layer in self.layers), default=1.0)

    def throughput(self, global_tokens: int) -> float:
        """Training throughput in tokens/s for a given global batch size.

        A zero/negative modelled time reports ``0.0``, like
        :attr:`repro.sim.engine.RunResult.throughput`.
        """
        if self.total_time <= 0:
            return 0.0
        return global_tokens / self.total_time


@dataclass
class IterationSimulator:
    """Assemble iteration time from policy decisions.

    Attributes:
        config: Model configuration (Table 2 entry).
        topology: Cluster topology.
        tokens_per_device: Tokens per device per micro-batch ``S``.
        paradigm: ``"fsep"``, ``"fsdp_ep"`` or ``"megatron"`` -- controls how
            parameter prefetch and gradient synchronisation are charged.
        schedule: Fig. 5 communication scheduling configuration.
        tp_size: Tensor-parallel degree of the attention layers (Megatron).
        ep_size: Expert-parallel degree (for the FSDP+EP / Megatron paradigms).
        activation_checkpointing: Whether expert recomputation is enabled.
        num_layers: Number of MoE transformer layers simulated per iteration;
            defaults to the model's layer count.
        overflow: The capacity-overflow model (off by default).
        comm_bytes_scale: Calibrated multiplier on the bytes moved per
            routed token in the All-to-All (protocol/framing overhead
            fitted by :mod:`repro.calib`); 1.0 models the nominal
            hidden-vector bytes.
    """

    config: MoEModelConfig
    topology: ClusterTopology
    tokens_per_device: int
    paradigm: str = "fsep"
    schedule: CommScheduleConfig = field(default_factory=CommScheduleConfig.all_enabled)
    tp_size: int = 1
    ep_size: int = 1
    activation_checkpointing: bool = False
    num_layers: Optional[int] = None
    overflow: OverflowModel = field(default_factory=OverflowModel)
    comm_bytes_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.tokens_per_device <= 0:
            raise ValueError("tokens_per_device must be positive")
        if self.comm_bytes_scale <= 0:
            raise ValueError("comm_bytes_scale must be positive")
        if self.paradigm not in ("fsep", "fsdp_ep", "megatron"):
            raise ValueError(f"unknown paradigm {self.paradigm!r}")
        if self.tp_size < 1 or self.ep_size < 1:
            raise ValueError("tp_size and ep_size must be at least 1")
        self.collectives = CollectiveCostModel(self.topology)
        self._tp_cost = TensorParallelCost(self.topology, self.config, self.tp_size)
        if self.num_layers is None:
            self.num_layers = self.config.num_layers
        self._device_token_capacity = (
            self.device_token_capacity() if self.overflow.active else None)
        self._layer_invariants: Optional[Tuple[float, float, float, float]] = None

    def device_token_capacity(self) -> int:
        """The per-device *routed*-token budget the overflow model enforces.

        An explicit ``overflow.token_capacity`` wins (it is compared
        directly against the routing plan's per-device sums, which count
        expert slots -- ``top_k`` routed copies per input token).
        Otherwise the budget is derived from the :class:`MemoryModel`
        feasibility search: the largest per-device *input*-token count
        whose activations fit in device memory, scaled by ``top_k`` to land
        in the same routed-token units as the plan sums -- without the
        scaling a memory-feasible, perfectly balanced workload would read
        as overflowing by a factor of ``top_k``.
        """
        if self.overflow.token_capacity is not None:
            return int(self.overflow.token_capacity)
        memory = MemoryModel(self.config, self.topology,
                             activation_checkpointing=self.activation_checkpointing)
        kwargs: Dict[str, int] = {}
        if self.paradigm == "fsdp_ep":
            kwargs = {"ep_size": self.ep_size}
        elif self.paradigm == "megatron":
            kwargs = {"tp_size": self.tp_size, "ep_size": self.ep_size,
                      "optimizer_sharding_dp":
                          max(1, self.topology.num_devices // self.tp_size)}
        input_budget = memory.max_tokens_per_device(self.paradigm, **kwargs)
        return max(1, input_budget) * max(1, int(self.config.top_k))

    # ------------------------------------------------------------------
    # Component costs
    # ------------------------------------------------------------------
    def attention_forward_time(self) -> float:
        """Forward attention (+ dense work) time per layer per device."""
        return self._tp_cost.attention_forward_time(self.tokens_per_device)

    def prefetch_time(self) -> float:
        """Expert-parameter restore time per layer for the active paradigm."""
        expert_bytes = self.config.expert_param_bytes
        capacity = self.config.expert_capacity
        n = self.topology.num_devices
        if self.paradigm == "fsep":
            bytes_per_pair = capacity * expert_bytes / n
            return self.collectives.uniform_all_to_all(bytes_per_pair)
        if self.paradigm == "fsdp_ep":
            fsdp_size = max(1, n // self.ep_size)
            if fsdp_size == 1:
                return 0.0
            group = [d for d in range(n) if d % self.ep_size == 0][:fsdp_size]
            return self.collectives.all_gather(
                capacity * expert_bytes / fsdp_size, group)
        # Megatron: experts are fully resident on their owner, no restore.
        return 0.0

    def grad_sync_time(self) -> float:
        """Expert gradient synchronisation time per layer for the paradigm."""
        expert_bytes = self.config.expert_param_bytes
        capacity = self.config.expert_capacity
        n = self.topology.num_devices
        if self.paradigm == "fsep":
            # The reshard All-to-All moves the prefetch's bytes back.
            return self.prefetch_time()
        if self.paradigm == "fsdp_ep":
            fsdp_size = max(1, n // self.ep_size)
            if fsdp_size == 1:
                return 0.0
            group = [d for d in range(n) if d % self.ep_size == 0][:fsdp_size]
            return self.collectives.reduce_scatter(
                capacity * expert_bytes / fsdp_size, group)
        # Megatron: replicated expert gradients are All-Reduced across the
        # expert data-parallel group (N / ep_size ranks share each expert).
        dp = max(1, n // max(1, self.ep_size))
        if dp == 1:
            return 0.0
        group = list(range(0, n, max(1, n // dp)))[:dp]
        return self.collectives.all_reduce(capacity * expert_bytes, group)

    def attention_prefetch_time(self) -> float:
        """Prefetch/all-gather time of one layer's non-expert parameters."""
        if self.paradigm == "megatron":
            return 0.0
        n = self.topology.num_devices
        other_bytes = self.config.non_expert_params_per_layer * BYTES_PER_ELEMENT
        return self.collectives.all_gather(other_bytes / n)

    def _invariant_times(self) -> Tuple[float, float, float, float]:
        """``(attention forward, expert prefetch, attention prefetch, grad
        sync)`` per layer.

        They depend only on fields fixed at construction, so the first
        simulated iteration computes them and every later one reuses them.
        Computing them on first use rather than at construction keeps
        building a system cheap.
        """
        if self._layer_invariants is None:
            prefetch = self.prefetch_time()
            # FSEP's gradient sync is its prefetch All-to-All: price it once.
            grad_sync = (prefetch if self.paradigm == "fsep"
                         else self.grad_sync_time())
            self._layer_invariants = (
                self.attention_forward_time(), prefetch,
                self.attention_prefetch_time(), grad_sync)
        return self._layer_invariants

    def exposed_time_from_bytes(self, num_bytes: float) -> float:
        """Convert policy-reported exposed re-layout bytes into time."""
        if num_bytes <= 0:
            return 0.0
        bandwidth = self.topology.inter_node_bandwidth * self.collectives.efficiency
        return num_bytes / bandwidth

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def simulate_iteration(self, iteration: int,
                           decisions: Sequence[PolicyDecision]) -> IterationResult:
        """Simulate one iteration from the per-layer policy decisions.

        All layers are costed in one pass: one
        :func:`~repro.core.cost_model.token_all_to_all` call over the routing
        batch of every layer's plan gives every layer's token All-to-All and
        per-device loads; only the Fig. 5 schedule runs layer by layer.

        A layer's duration is driven by the *slowest* device's expert
        computation; in the per-rank-averaged breakdown (what the paper's
        profiles report), the stall of the faster ranks shows up as
        All-to-All time, so the expert-compute bucket records the mean and
        the difference max - mean is added to the All-to-All bucket.

        When the policy was driven with fewer layers than the model has (the
        usual case: traces carry a handful of representative layers), the
        simulated layers are scaled up to the model's layer count.
        """
        if not decisions:
            raise ValueError("decisions must not be empty")
        (attention, prefetch, attention_prefetch,
         grad_sync) = self._invariant_times()
        n, layers = self.topology.num_devices, len(decisions)
        with _span("sim.token-a2a", layers=layers):
            a2a, loads = token_all_to_all(
                self.collectives,
                [decision.routing_plan for decision in decisions],
                self.config.hidden_size * BYTES_PER_ELEMENT,
                self.comm_bytes_scale)
        a2a = a2a.tolist()
        # Per-device loads are whole token counts, so every reduction
        # below is exact.
        unit_time = (self.config.expert_flops_per_token
                     / self.topology.device_spec.effective_flops)
        computed = loads
        overflow_tokens, overflow_time, dropped_tokens = (
            [0] * layers, [0.0] * layers, [0] * layers)
        if self._device_token_capacity is not None:
            computed, overflow, charged, dropped = self.overflow.charge(
                loads, self._device_token_capacity, unit_time)
            overflow_tokens, overflow_time, dropped_tokens = (
                overflow.tolist(), charged.tolist(), dropped.tolist())
        expert_max = (computed.max(axis=1) * unit_time).tolist()
        expert_mean = (computed.mean(axis=1) * unit_time).tolist()
        max_tokens = loads.max(axis=1).astype(np.int64).tolist()
        ideal_tokens = (loads.sum(axis=1) / n).tolist()

        layer_results = []
        for layer, decision in enumerate(decisions):
            with _span("sim.layer", layer=layer):
                timings = LayerTimings(
                    attention_compute=attention,
                    expert_compute=expert_max[layer],
                    token_a2a=a2a[layer],
                    expert_prefetch=prefetch,
                    attention_prefetch=attention_prefetch,
                    grad_sync=grad_sync + self.exposed_time_from_bytes(
                        decision.grad_sync_extra_bytes),
                )
                scheduled = schedule_layer(timings, self.schedule)
                if self.activation_checkpointing:
                    recompute = expert_max[layer] + attention
                else:
                    recompute = 0.0
                imbalance_wait = 3.0 * (expert_max[layer] - expert_mean[layer])
                layer_results.append(LayerResult(
                    layer=layer,
                    forward_time=scheduled.forward_time,
                    backward_time=scheduled.backward_time + recompute,
                    attention_time=3.0 * attention,
                    expert_compute_time=3.0 * expert_mean[layer],
                    all_to_all_time=scheduled.a2a_time + imbalance_wait,
                    exposed_comm_time=(scheduled.exposed_prefetch
                                       + scheduled.exposed_grad_sync),
                    relayout_time=self.exposed_time_from_bytes(
                        decision.relayout_bytes_exposed),
                    max_tokens=max_tokens[layer],
                    ideal_tokens=ideal_tokens[layer],
                    overflow_tokens=overflow_tokens[layer],
                    overflow_time=overflow_time[layer],
                    dropped_tokens=dropped_tokens[layer],
                ))
        scale = self.num_layers / len(layer_results)
        breakdown = {
            "attention_and_other": scale * sum(r.attention_time for r in layer_results),
            "expert_compute": scale * sum(r.expert_compute_time for r in layer_results),
            "all_to_all": scale * sum(r.all_to_all_time for r in layer_results),
            "exposed_comm": scale * sum(r.exposed_comm_time for r in layer_results),
            "relayout": scale * sum(r.relayout_time for r in layer_results),
        }
        if self._device_token_capacity is not None:
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
