"""FSEP executor: runs real MoE computation under a planned expert layout.

The executor takes an ordinary (single-device) :class:`~repro.model.moe_layer.MoELayer`
and adds only what FSEP changes, namely which device computes which (token,
expert) pair:

1. the global token batch is split into contiguous per-device shards (data
   parallelism), and the gate's decision over each shard gives the routing
   matrix ``R``;
2. lite routing turns ``R`` and the planner's layout ``A`` into the token
   routing plan ``S``, and every plan row's tokens are dispatched onto its
   destination devices in token order;
3. every device restores the experts the layout assigns it from the
   flattened parameter shards (FSEP unshard) and runs them over the tokens it
   received, through the layer's own gate-weighted combine
   (:func:`~repro.model.moe_layer.run_experts`);
4. in the backward pass the restored replicas' gradients are reshard-reduced
   onto the parameter shards and accumulated into the layer's experts.

The math is the layer's own; only the grouping of tokens into expert calls,
and so the order of the floating-point sums, changes.  That lets the tests
and the convergence study verify the paper's claim that FSEP incurs no loss
of numerical precision.  The token traffic (``tokens_per_device``,
``dispatch_bytes``) is read off the routing plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.fsep import FSEPShardedExperts
from repro.core.layout import ExpertLayout, round_robin_layout
from repro.core.lite_routing import lite_route
from repro.core.routing_plan import RoutingPlan
from repro.model.expert import SwiGLUExpert
from repro.model.moe_layer import (
    ExpertGroups,
    MoELayer,
    backward_experts,
    run_experts,
)
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
        # The (name, shape) meta of one expert, in its flatten order.
        named = dict(moe_layer.experts[0].named_parameters())
        shapes = [(name, named[name].shape)
                  for name in moe_layer.experts[0].parameter_order()]
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
        flat = x.reshape(-1, x.shape[-1])
        gating, gate_cache = self.moe_layer.gate.forward(flat)
        n, e = self.num_devices, self.num_experts
        routing = routing_from_assignments(gating.expert_indices, e, n)
        # The plan row (sender * E + expert) of every (token, slot) pair: a
        # device's shard is the next run of tokens, as many as its routing
        # row counts (top_k pairs each).
        shard_tokens = routing.sum(axis=1) // gating.expert_indices.shape[1]
        senders = np.repeat(np.arange(n), shard_tokens)
        pair_rows = (senders[:, None] * e + gating.expert_indices).reshape(-1)

        if layout is None:
            layout = self._default_layout()
        layout.validate()
        plan = lite_route(routing, layout, self.topology)
        if not np.array_equal(plan.row_sums(), routing):
            raise RuntimeError("some token assignments were not dispatched")
        unshard = self.sharded.unshard(layout)

        # Every row's pairs, in token order, fill the row's destinations in
        # order (they ascend).
        row_dests = np.repeat(plan.dest, plan.tokens)
        pair_dest = np.empty_like(pair_rows)
        pair_dest[np.argsort(pair_rows, kind="stable")] = row_dests
        pair_dest = pair_dest.reshape(gating.expert_indices.shape)

        # Every device materialises its restored experts and runs the tokens
        # it received.
        groups: ExpertGroups = {}
        for dst, restored in unshard.device_experts.items():
            for expert_id, flat_params in restored.items():
                token_idx, slot_idx = np.nonzero(
                    (pair_dest == dst) & (gating.expert_indices == expert_id))
                if token_idx.size:
                    module = SwiGLUExpert.from_flat_parameters(
                        flat_params, self.moe_layer.hidden_size,
                        self.moe_layer.intermediate_size)
                    groups[dst, expert_id] = (module, token_idx, slot_idx)
        out, expert_caches = run_experts(flat, gating, groups)

        # Dispatch and combine each move one hidden vector per token sent off
        # its sender.
        remote = int(plan.tokens[plan.rows() // e != plan.dest].sum())
        cache = {
            "gating": gating,
            "gate_cache": gate_cache,
            "groups": groups,
            "expert_caches": expert_caches,
            "shape": x.shape,
        }
        return DistributedMoEOutput(
            output=out.reshape(x.shape),
            routing=routing,
            routing_plan=plan,
            layout=layout,
            tokens_per_device=np.bincount(row_dests, minlength=n),
            unshard_bytes=unshard.total_bytes,
            dispatch_bytes=2.0 * remote * x.shape[-1] * BYTES_PER_ELEMENT,
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
        shape = cache["shape"]
        grad_flat, grad_gate_weights = backward_experts(
            grad_output.reshape(-1, shape[-1]), cache["gating"],
            cache["groups"], cache["expert_caches"])

        device_gradients: Dict[int, Dict[int, np.ndarray]] = {}
        for (dst, expert_id), (module, _, _) in cache["groups"].items():
            grads = device_gradients.setdefault(dst, {})
            grads[expert_id] = module.flatten_gradients()
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
        cache["reshard_bytes"] = reshard.total_bytes
        return grad_flat.reshape(shape)

    # ------------------------------------------------------------------
    def _default_layout(self) -> ExpertLayout:
        """Every device restores ``C = ceil(E / N)`` experts in round robin."""
        capacity = -(-self.num_experts // self.num_devices)
        return round_robin_layout(self.num_devices, self.num_experts, capacity)
