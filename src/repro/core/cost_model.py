"""Joint communication + computation cost model of the planner (Sec. 3.2).

Given an expert re-layout strategy ``A`` and a token routing strategy ``S``
(``S[i, j, k]`` = tokens on device ``i`` routed to expert ``j`` that are sent
to device ``k``, held as a compact
:class:`~repro.core.routing_plan.RoutingPlan`), the planner minimises

``T = T_comm + T_comp``

where ``T_comm = 4 * a2a(S)`` charges the four token All-to-Alls per MoE
layer (dispatch + combine, forward and backward) and
``T_comp = (3 + F_ckpt) * max_i V_comp * tokens_i / B_comp`` takes the
slowest device's expert computation, counting backward as twice the forward
cost and one extra forward when activation checkpointing is enabled.

``a2a(S)`` is :func:`token_all_to_all`, the price the iteration simulator
charges for the same plan: the slowest device's time to drain its egress and
ingress bytes, summed per link class at that class's bandwidth, plus its
worst link latency.  The layout tuner's candidates are priced from lite
routing's class sums in closed form, with no plan built, and their
``T_comm`` is still ``==`` 4x the simulator's price of the plan.  Sec. 3.2
writes ``T_comm = 4 * V_comm * sum_{i,j,k} S[i,j,k] / bw(i, k)`` instead, a
serial sum over device pairs.  Under weak scaling the sum grows with ``N``
and the drain does not, so the sum ranked candidate layouts unlike the
simulator; a model should predict the bottleneck resource, not the sum over
resources (Alappat et al., ECM).
Scoring candidates on the frame they are tuned from (mixtral-8x7b-e8k2;
steady, drifting, bursty-churn and phase-shift), the cost model's argmin
matches the simulator's in:

=======  ===================  ==========  ==================
devices  candidates x frames  serial sum  drain (this model)
=======  ===================  ==========  ==================
32       12 x 64              62 of 64    64 of 64
256      12 x 32              28 of 32    32 of 32
1024     6 x 24               21 of 24    24 of 24
=======  ===================  ==========  ==================

The serial sum's worst regret (its pick's simulated time over the best
candidate's) was 0.90%, 5.6% and 28.7%.  Table 4's MLP speedup of LAER over
FSDP+EP at 1024 GPUs went from 1.098x under the serial sum to 1.222x.

The same class also validates the constraints (3)-(4): every device restores at
most ``C`` distinct experts and every routed token reaches a device that hosts
its expert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology
from repro.core.comm_schedule import TOKEN_ALL_TO_ALLS
from repro.core.layout import ExpertLayout
from repro.core.lite_routing import LiteRouting, lite_route_tokens
from repro.core.routing_plan import RoutingBatch, RoutingPlan
from repro.workloads.model_configs import BYTES_PER_ELEMENT, MoEModelConfig


def token_all_to_all(collectives: CollectiveCostModel,
                     plans: Sequence[RoutingPlan] | LiteRouting,
                     bytes_per_token: float,
                     scale: float) -> Tuple[np.ndarray, np.ndarray]:
    """One token All-to-All per plan, priced in one pass over their entries.

    The one price of a token exchange, for the simulator and the cost model
    alike, read from one flat routing batch.  Each token moves
    ``bytes_per_token``, and ``scale`` (the calibrated ``comm_bytes_scale``)
    multiplies each device's bytes per link class in
    :meth:`~repro.cluster.collectives.CollectiveCostModel.drain_time`.
    Unbuilt :class:`~repro.core.lite_routing.LiteRouting` is priced from
    its tokens per link class, ``==`` to pricing its plans.

    Returns:
        The ``(M,)`` seconds of one dispatch (or combine) per plan, and the
        ``(M, N)`` float64 tokens each device computes under each plan
        (whole numbers, so every reduction over them is exact).
    """
    if isinstance(plans, LiteRouting):
        sent, received, loads = lite_route_tokens(*plans, collectives.topology)
        return collectives.drain_time(sent * bytes_per_token,
                                      received * bytes_per_token,
                                      scale), loads
    batch = RoutingBatch.of(plans)
    m, n = batch.num_plans, collectives.topology.num_devices
    if batch.num_devices != n:
        raise ValueError(
            f"routing plans must span the topology's {n} devices")
    # Entries per (plan, sender): the offsets at sender boundaries.
    counts = np.diff(batch.offsets[::batch.num_experts]).reshape(m, n)
    tokens = batch.tokens.astype(np.float64)
    seconds = collectives.all_to_all_batch(
        counts, batch.dest, tokens * bytes_per_token, scale=scale)
    plan_of = np.repeat(np.arange(0, m * n, n), counts.sum(axis=1))
    loads = np.bincount(plan_of + batch.dest, weights=tokens,
                        minlength=m * n).reshape(m, n)
    return seconds, loads


@dataclass(frozen=True)
class CostBreakdown:
    """Planner cost-model output for one candidate ``(A, S)`` pair.

    Attributes:
        total: ``T_comm + T_comp`` in seconds.
        comm_time: All-to-All dispatch/combine time (forward + backward).
        comp_time: Expert computation time of the most loaded device
            (forward + backward, + recompute when checkpointing).
        tokens_per_device: ``(N,)`` token-expert assignments computed on each
            device under the routing ``S``.
        max_tokens: Maximum of ``tokens_per_device``.
    """

    total: float
    comm_time: float
    comp_time: float
    tokens_per_device: np.ndarray
    max_tokens: int


@dataclass
class MoECostModel:
    """Analytic cost model used by the expert layout tuner.

    Attributes:
        topology: Cluster topology whose links price the All-to-All.
        comm_bytes_per_token: ``V_comm`` -- whole bytes moved per routed
            token per All-to-All (one hidden vector in bf16).
        compute_flops_per_token: ``V_comp`` -- expert FLOPs per token-expert
            assignment (``6 * H * H'`` for SwiGLU).
        device_flops: ``B_comp`` -- sustained FLOP/s of each device.
        activation_checkpointing: ``F_ckpt`` -- whether expert recomputation is
            enabled (adds one forward pass to the compute term).
        comm_bytes_scale: Calibrated multiplier on each device's link bytes
            (:class:`repro.calib.profile.CalibrationProfile.comm_bytes_scale`),
            applied as the simulator applies it; 1.0 when uncalibrated.
    """

    topology: ClusterTopology
    comm_bytes_per_token: float
    compute_flops_per_token: float
    device_flops: float
    activation_checkpointing: bool = False
    comm_bytes_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.comm_bytes_per_token < 0 or self.comm_bytes_per_token % 1:
            raise ValueError(
                "comm_bytes_per_token must be a non-negative whole number")
        if self.compute_flops_per_token <= 0:
            raise ValueError("compute_flops_per_token must be positive")
        if self.device_flops <= 0:
            raise ValueError("device_flops must be positive")
        if self.comm_bytes_scale <= 0:
            raise ValueError("comm_bytes_scale must be positive")
        self._collectives = CollectiveCostModel(self.topology)

    @classmethod
    def from_model_config(cls, config: MoEModelConfig, topology: ClusterTopology,
                          activation_checkpointing: bool = False,
                          comm_bytes_scale: float = 1.0) -> "MoECostModel":
        """Build the cost model for a Table 2 configuration on a topology.

        ``comm_bytes_scale`` is the calibrated per-token byte overhead;
        bandwidth/latency/FLOPs calibration lives in the topology itself.
        """
        return cls(
            topology=topology,
            comm_bytes_per_token=config.hidden_size * BYTES_PER_ELEMENT,
            compute_flops_per_token=config.expert_flops_per_token,
            device_flops=topology.device_spec.effective_flops,
            activation_checkpointing=activation_checkpointing,
            comm_bytes_scale=comm_bytes_scale,
        )

    def evaluate(self, routing_plan: RoutingPlan) -> CostBreakdown:
        """Evaluate the full objective ``T = T_comm + T_comp`` for a plan."""
        return self.evaluate_batch([routing_plan])[0]

    def evaluate_batch(self, routing_plans: Sequence[RoutingPlan] | LiteRouting
                       ) -> List[CostBreakdown]:
        """Evaluate ``M`` candidate plans with one :func:`token_all_to_all`.

        Each plan's costs come from its own row of the batch, so they equal
        what :meth:`evaluate` gives it alone; unbuilt lite routing costs
        what its plans cost.

        Returns:
            ``[CostBreakdown, ...]`` in candidate order.
        """
        a2a, loads = token_all_to_all(
            self._collectives, routing_plans,
            self.comm_bytes_per_token, self.comm_bytes_scale)
        forward_factor = 3.0 + (1.0 if self.activation_checkpointing else 0.0)
        costs = []
        for seconds, tokens in zip(a2a.tolist(), loads):
            comm = TOKEN_ALL_TO_ALLS * seconds
            peak = tokens.max()
            comp = float(forward_factor * peak
                         * self.compute_flops_per_token / self.device_flops)
            costs.append(CostBreakdown(
                total=comm + comp,
                comm_time=comm,
                comp_time=comp,
                tokens_per_device=tokens,
                max_tokens=int(peak),
            ))
        return costs

    # ------------------------------------------------------------------
    # Constraint checking (Eq. 3-4)
    # ------------------------------------------------------------------
    def check_constraints(self, layout: ExpertLayout, routing_plan: RoutingPlan,
                          routing: np.ndarray) -> None:
        """Validate the planner constraints for ``(A, S)`` against ``R``.

        Raises ``ValueError`` when any constraint is violated:

        * capacity: each device restores at most ``C`` distinct experts;
        * completeness: every expert is restored somewhere;
        * conservation (Eq. 4): each (sender, expert) row of ``S`` sums to
          ``R[i, j]``;
        * placement: every entry that carries tokens for expert ``j`` goes
          to a device ``k`` that restores it (``A[k, j] > 0``).
        """
        routing = np.asarray(routing)
        n, e = routing.shape
        if (routing_plan.num_devices, routing_plan.num_experts) != (n, e):
            raise ValueError("routing plan shape does not match routing matrix")
        layout.validate()
        if np.any(layout.experts_used_per_device() > layout.capacity):
            raise ValueError("a device restores more distinct experts than C")
        if not np.array_equal(routing_plan.row_sums(), routing):
            raise ValueError("routing plan does not conserve token counts (Eq. 4)")
        carries = routing_plan.tokens > 0
        experts = routing_plan.rows()[carries] % e
        if np.any(layout.assignment[routing_plan.dest[carries], experts] <= 0):
            raise ValueError("tokens routed to a device that does not host the expert")
