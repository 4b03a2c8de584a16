"""FSEP executor: runs real MoE computation under a planned expert layout.

The executor takes an ordinary (single-device) :class:`~repro.model.moe_layer.MoELayer`
and executes its expert computation the way LAER-MoE would on a cluster:

1. the global token batch is split into per-device shards (data parallelism);
2. the gate runs on each shard, producing the routing matrix ``R``;
3. the planner's layout ``A`` decides which experts each device restores
   (FSEP unshard of the flattened expert parameters);
4. the token dispatcher (lite routing) produces ``S`` and tokens travel to the
   devices hosting their experts;
5. every device runs its restored experts over the tokens it received;
6. outputs are combined back on the owning devices, and in the backward pass
   the full expert gradients are reshard-reduced onto the parameter shards and
   accumulated into the original layer's parameters.

Because the computation is mathematically identical to the reference layer
(only the partitioning of tokens into expert calls changes), the executor lets
the tests and the convergence study verify the paper's claim that FSEP incurs
no loss of numerical precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.fsep import FSEPShardedExperts
from repro.core.layout import ExpertLayout, round_robin_layout
from repro.core.lite_routing import lite_route
from repro.core.routing_plan import RoutingPlan
from repro.model.expert import SwiGLUExpert
from repro.model.moe_layer import MoELayer
from repro.workloads.model_configs import BYTES_PER_ELEMENT
from repro.workloads.routing_traces import routing_from_assignments


@dataclass
class DistributedMoEOutput:
    """Result of one distributed forward pass through the executor.

    Attributes:
        output: ``(batch, seq, hidden)`` MoE layer output (identical to the
            reference layer's output up to floating-point summation order).
        routing: ``(N, E)`` observed routing matrix of this batch.
        routing_plan: Token routing plan ``S`` used for dispatch.
        layout: Expert layout used for the unshard.
        tokens_per_device: ``(N,)`` expert-token assignments each device computed.
        unshard_bytes: Total parameter-restore traffic in bytes.
        dispatch_bytes: Total token dispatch + combine traffic in bytes.
        cache: Opaque cache consumed by :meth:`FSEPExecutor.backward`.
    """

    output: np.ndarray
    routing: np.ndarray
    routing_plan: RoutingPlan
    layout: ExpertLayout
    tokens_per_device: np.ndarray
    unshard_bytes: float
    dispatch_bytes: float
    cache: Dict[str, Any] = field(default_factory=dict)


class FSEPExecutor:
    """Execute a :class:`MoELayer` under FSEP with an arbitrary expert layout."""

    def __init__(self, moe_layer: MoELayer, topology: ClusterTopology):
        self.moe_layer = moe_layer
        self.topology = topology
        shapes = [(name, tuple(param.shape))
                  for name, param in moe_layer.experts[0].named_parameters()
                  if name in moe_layer.experts[0].parameter_order()]
        # Preserve the canonical flatten order.
        order = moe_layer.experts[0].parameter_order()
        shapes.sort(key=lambda item: order.index(item[0]))
        self.sharded = FSEPShardedExperts(
            expert_parameters=[e.flatten_parameters() for e in moe_layer.experts],
            num_devices=topology.num_devices,
            parameter_shapes=shapes,
        )

    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return self.topology.num_devices

    @property
    def num_experts(self) -> int:
        return self.moe_layer.num_experts

    def refresh_shards(self) -> None:
        """Re-shard the (possibly optimizer-updated) expert parameters."""
        for expert_id, expert in enumerate(self.moe_layer.experts):
            self.sharded.set_expert(expert_id, expert.flatten_parameters())

    # ------------------------------------------------------------------
    def _split_tokens(self, num_tokens: int) -> List[np.ndarray]:
        """Split global token indices into contiguous per-device shards."""
        shard = int(np.ceil(num_tokens / self.num_devices))
        return [np.arange(dev * shard, min((dev + 1) * shard, num_tokens))
                for dev in range(self.num_devices)]

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, layout: Optional[ExpertLayout] = None
                ) -> DistributedMoEOutput:
        """Distributed forward pass.

        Args:
            x: ``(batch, seq, hidden)`` input activations (the global batch).
            layout: Expert layout to use; when omitted every expert keeps a
                replica on every ``E/C``-th device (the planner normally
                supplies load-adaptive layouts).

        Returns:
            A :class:`DistributedMoEOutput` whose ``output`` matches the
            reference :meth:`MoELayer.forward` output.
        """
        if x.ndim != 3:
            raise ValueError("expected input of shape (batch, seq, hidden)")
        batch, seq, hidden = x.shape
        flat = x.reshape(-1, hidden)
        num_tokens = flat.shape[0]

        gating, gate_cache = self.moe_layer.gate.forward(flat)
        device_tokens = self._split_tokens(num_tokens)
        routing = routing_from_assignments(
            [gating.expert_indices[idx].reshape(-1) for idx in device_tokens],
            self.num_experts)

        if layout is None:
            layout = self._default_layout()
        layout.validate()
        plan = lite_route(routing, layout, self.topology)

        unshard = self.sharded.unshard(layout)

        # Assign each (token, slot) pair to a destination device according to
        # the plan, per (source device, expert) in deterministic token order:
        # the row's destinations ascend, so tokens fill devices in order.
        dest_device = np.full(gating.expert_indices.shape, -1, dtype=np.int64)
        for src, token_idx in enumerate(device_tokens):
            if token_idx.size == 0:
                continue
            local_experts = gating.expert_indices[token_idx]
            for expert in range(self.num_experts):
                rows, cols = np.nonzero(local_experts == expert)
                if rows.size == 0:
                    continue
                order = np.argsort(rows, kind="stable")
                rows, cols = rows[order], cols[order]
                row = src * self.num_experts + expert
                lo, hi = plan.offsets[row], plan.offsets[row + 1]
                cursor = 0
                for dst, count in zip(plan.dest[lo:hi].tolist(),
                                      plan.tokens[lo:hi].tolist()):
                    if count == 0:
                        continue
                    sel = slice(cursor, cursor + count)
                    dest_device[token_idx[rows[sel]], cols[sel]] = dst
                    cursor += count

        if np.any(dest_device < 0):
            raise RuntimeError("some token assignments were not dispatched")

        # Every destination device materialises its restored experts and runs
        # the tokens it received.
        out = np.zeros_like(flat)
        device_expert_modules: Dict[int, Dict[int, SwiGLUExpert]] = {}
        device_expert_caches: Dict[Tuple[int, int], Dict[str, Any]] = {}
        device_expert_tokens: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        tokens_per_device = np.zeros(self.num_devices, dtype=np.int64)
        dispatch_bytes = 0.0
        hidden_bytes = hidden * BYTES_PER_ELEMENT

        for dst in range(self.num_devices):
            restored = unshard.device_experts[dst]
            modules: Dict[int, SwiGLUExpert] = {}
            for expert_id, flat_params in restored.items():
                module = SwiGLUExpert(self.moe_layer.hidden_size,
                                      self.moe_layer.intermediate_size)
                module.load_flat_parameters(flat_params)
                modules[expert_id] = module
            device_expert_modules[dst] = modules
            my_tokens = device_tokens[dst]
            local_token_set = set(my_tokens.tolist())
            for expert_id, module in modules.items():
                token_rows, slot_cols = np.nonzero(
                    (dest_device == dst)
                    & (gating.expert_indices == expert_id))
                if token_rows.size == 0:
                    continue
                expert_in = flat[token_rows]
                expert_out, cache = module.forward(expert_in)
                weights = gating.gate_weights[token_rows, slot_cols][:, None]
                np.add.at(out, token_rows, weights * expert_out)
                device_expert_caches[(dst, expert_id)] = cache
                device_expert_caches[(dst, expert_id)]["expert_out"] = expert_out
                device_expert_tokens[(dst, expert_id)] = (token_rows, slot_cols)
                tokens_per_device[dst] += token_rows.size
                remote = sum(1 for t in token_rows if t not in local_token_set)
                # dispatch + combine both move one hidden vector per token.
                dispatch_bytes += 2.0 * remote * hidden_bytes

        cache = {
            "gating": gating,
            "gate_cache": gate_cache,
            "flat": flat,
            "shape": (batch, seq, hidden),
            "device_expert_modules": device_expert_modules,
            "device_expert_caches": device_expert_caches,
            "device_expert_tokens": device_expert_tokens,
        }
        return DistributedMoEOutput(
            output=out.reshape(batch, seq, hidden),
            routing=routing,
            routing_plan=plan,
            layout=layout,
            tokens_per_device=tokens_per_device,
            unshard_bytes=unshard.total_bytes,
            dispatch_bytes=dispatch_bytes,
            cache=cache,
        )

    # ------------------------------------------------------------------
    def backward(self, grad_output: np.ndarray, result: DistributedMoEOutput,
                 aux_loss_weight: float = 0.0) -> np.ndarray:
        """Distributed backward pass.

        Expert gradients are computed per restored replica, reshard-reduced
        onto the parameter shards, and accumulated into the original
        :class:`MoELayer`'s expert parameters so optimizers see exactly the
        gradients data-parallel training would produce.

        Returns the gradient w.r.t. the layer input.
        """
        cache = result.cache
        batch, seq, hidden = cache["shape"]
        gating = cache["gating"]
        flat = cache["flat"]
        flat_grad_out = grad_output.reshape(-1, hidden)

        grad_flat = np.zeros_like(flat)
        grad_gate_weights = np.zeros_like(gating.gate_weights)
        device_gradients: Dict[int, Dict[int, np.ndarray]] = {
            dev: {} for dev in range(self.num_devices)}

        for (dst, expert_id), (token_rows, slot_cols) in \
                cache["device_expert_tokens"].items():
            module = cache["device_expert_modules"][dst][expert_id]
            expert_cache = cache["device_expert_caches"][(dst, expert_id)]
            expert_out = expert_cache["expert_out"]
            weights = gating.gate_weights[token_rows, slot_cols][:, None]
            upstream = flat_grad_out[token_rows]
            grad_gate_weights[token_rows, slot_cols] += np.sum(
                upstream * expert_out, axis=-1)
            grad_expert_in = module.backward(upstream * weights, expert_cache)
            np.add.at(grad_flat, token_rows, grad_expert_in)
            grads = device_gradients[dst]
            flat_grad = module.flatten_gradients()
            if expert_id in grads:
                grads[expert_id] = grads[expert_id] + flat_grad
            else:
                grads[expert_id] = flat_grad

        reshard = self.sharded.reshard(device_gradients)

        # Accumulate the reduced gradients into the reference layer's experts
        # so the training loop's optimizer path is unchanged.
        for expert_id, expert in enumerate(self.moe_layer.experts):
            full_grad = self.sharded.reduce_full_gradient(reshard, expert_id)
            named = dict(expert.named_parameters())
            offset = 0
            for name in expert.parameter_order():
                param = named[name]
                count = param.size
                param.accumulate(full_grad[offset:offset + count].reshape(param.shape))
                offset += count

        grad_flat += self.moe_layer.gate.backward(
            grad_gate_weights, aux_loss_weight, cache["gate_cache"])
        result.cache["reshard_bytes"] = reshard.total_bytes
        return grad_flat.reshape(batch, seq, hidden)

    # ------------------------------------------------------------------
    def _default_layout(self) -> ExpertLayout:
        """Every device restores ``C = ceil(E / N)`` experts in round robin."""
        capacity = -(-self.num_experts // self.num_devices)
        return round_robin_layout(self.num_devices, self.num_experts, capacity)
