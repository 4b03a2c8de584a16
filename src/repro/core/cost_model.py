"""Joint communication + computation cost model of the planner (Sec. 3.2).

Given an expert re-layout strategy ``A`` and a token routing strategy ``S``
(``S[i, j, k]`` = tokens on device ``i`` routed to expert ``j`` that are sent
to device ``k``, held as a compact
:class:`~repro.core.routing_plan.RoutingPlan`), the planner minimises

``T = T_comm + T_comp``

where ``T_comm = 4 * V_comm * sum_{i,j,k} S[i,j,k] / bw(i, k)`` accounts for
the four All-to-All operations per MoE layer (dispatch + combine, forward and
backward) and ``T_comp = (3 + F_ckpt) * max_i V_comp * tokens_i / B_comp``
takes the slowest device's expert computation, counting backward as twice the
forward cost and one extra forward when activation checkpointing is enabled.
Both terms read only the plan's ``(N, N)`` pairwise traffic and ``(N,)``
per-device token counts.

The same class also validates the constraints (3)-(4): every device restores at
most ``C`` distinct experts and every routed token reaches a device that hosts
its expert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout
from repro.core.routing_plan import RoutingPlan, reduce_plans
from repro.workloads.model_configs import MoEModelConfig


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
        topology: Cluster topology providing ``bw(i, k)``.
        comm_bytes_per_token: ``V_comm`` -- bytes moved per routed token per
            All-to-All (one hidden vector in bf16).
        compute_flops_per_token: ``V_comp`` -- expert FLOPs per token-expert
            assignment (``6 * H * H'`` for SwiGLU).
        device_flops: ``B_comp`` -- sustained FLOP/s of each device.
        activation_checkpointing: ``F_ckpt`` -- whether expert recomputation is
            enabled (adds one forward pass to the compute term).
        num_all_to_all: Number of All-to-All operations per layer per
            iteration (4: forward dispatch/combine + backward dispatch/combine).
    """

    topology: ClusterTopology
    comm_bytes_per_token: float
    compute_flops_per_token: float
    device_flops: float
    activation_checkpointing: bool = False
    num_all_to_all: int = 4

    def __post_init__(self) -> None:
        if self.comm_bytes_per_token < 0:
            raise ValueError("comm_bytes_per_token must be non-negative")
        if self.compute_flops_per_token <= 0:
            raise ValueError("compute_flops_per_token must be positive")
        if self.device_flops <= 0:
            raise ValueError("device_flops must be positive")
        if self.num_all_to_all <= 0:
            raise ValueError("num_all_to_all must be positive")
        self._inv_bw = 1.0 / self.topology.bandwidth_matrix()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_model_config(cls, config: MoEModelConfig, topology: ClusterTopology,
                          activation_checkpointing: bool = False,
                          bytes_per_element: int = 2,
                          comm_bytes_scale: float = 1.0) -> "MoECostModel":
        """Build the cost model for a Table 2 configuration on a topology.

        ``comm_bytes_scale`` is the calibrated per-token byte overhead
        (:class:`repro.calib.profile.CalibrationProfile.comm_bytes_scale`);
        bandwidth/latency/FLOPs calibration lives in the topology itself.
        """
        if comm_bytes_scale <= 0:
            raise ValueError("comm_bytes_scale must be positive")
        return cls(
            topology=topology,
            comm_bytes_per_token=(config.hidden_size * bytes_per_element
                                  * comm_bytes_scale),
            compute_flops_per_token=config.expert_flops_per_token,
            device_flops=topology.device_spec.effective_flops,
            activation_checkpointing=activation_checkpointing,
        )

    # ------------------------------------------------------------------
    # Cost terms
    # ------------------------------------------------------------------
    def comm_time(self, routing_plan: RoutingPlan) -> float:
        """``T_comm`` for a routing plan ``S``."""
        # Tokens sent from i to k, over all experts.
        seconds = float(np.sum(routing_plan.pairwise() * self._inv_bw))
        return self.num_all_to_all * self.comm_bytes_per_token * seconds

    def comp_time(self, routing_plan: RoutingPlan) -> float:
        """``T_comp`` -- slowest device's forward+backward expert compute."""
        tokens = routing_plan.tokens_per_device()
        forward_factor = 3.0 + (1.0 if self.activation_checkpointing else 0.0)
        forward_time = tokens.max() * self.compute_flops_per_token / self.device_flops
        return float(forward_factor * forward_time)

    def _breakdown(self, pairwise: np.ndarray,
                   tokens: np.ndarray) -> CostBreakdown:
        """The objective from a plan's pairwise traffic and device loads."""
        if pairwise.shape != self._inv_bw.shape:
            raise ValueError(
                f"routing plan covers {pairwise.shape[0]} devices, the "
                f"topology {self.topology.num_devices}")
        seconds = float(np.sum(pairwise * self._inv_bw))
        comm = self.num_all_to_all * self.comm_bytes_per_token * seconds
        forward_factor = 3.0 + (1.0 if self.activation_checkpointing else 0.0)
        peak = tokens.max()
        comp = float(forward_factor * peak
                     * self.compute_flops_per_token / self.device_flops)
        return CostBreakdown(
            total=comm + comp,
            comm_time=comm,
            comp_time=comp,
            tokens_per_device=tokens,
            max_tokens=int(peak),
        )

    def evaluate(self, routing_plan: RoutingPlan) -> CostBreakdown:
        """Evaluate the full objective ``T = T_comm + T_comp`` for a plan."""
        return self._breakdown(routing_plan.pairwise(),
                               routing_plan.tokens_per_device())

    def evaluate_batch(self, routing_plans: "list[RoutingPlan]") -> list:
        """Evaluate ``M`` candidate plans at once.

        Bit-identical to calling :meth:`evaluate` on each plan: one stacked
        ``np.bincount`` reduces every plan to its pairwise traffic and
        per-device token counts (integers in float64, so exact), while the
        order-sensitive float reductions -- ``sum(pairwise * 1/bw)`` and the
        final scalar arithmetic -- run per candidate on contiguous slices,
        so they see exactly the operand order of the scalar path.

        Returns:
            ``[CostBreakdown, ...]`` in candidate order.
        """
        pairwise, tokens = reduce_plans(list(routing_plans))
        return [self._breakdown(pairwise[m], tokens[m])
                for m in range(pairwise.shape[0])]

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
