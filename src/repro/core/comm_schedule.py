"""Fine-grained communication scheduling (Fig. 5).

FSEP adds three communications per MoE layer: the parameter-restore All-to-All
in the forward pass, the same in the backward pass (prefetching the next
layer's experts), and the gradient reshard All-to-All after the backward
computation.  Fig. 5 shows three scheduling optimisations that hide them:

(b) *relaxed prefetching* -- prefetch the next layer's experts during the
    current layer's **expert** computation instead of during the (shorter)
    attention computation;
(c) *post-A2A launch* -- launch the prefetch only after the token-dispatch
    All-to-All finishes, avoiding channel contention between the two;
(e) *delayed gradient synchronisation* -- postpone the gradient reshard from
    the moment autograd produces the gradient (where it would overlap only
    with the small attention backward) to the next layer's expert backward.

This module models those choices analytically: given the per-layer component
durations it computes how much of the prefetch / gradient-sync communication
remains exposed (not hidden by computation) under a configuration of the three
flags, and assembles per-layer forward/backward times plus a breakdown.  The
iteration simulator and the ablation benchmark (Fig. 12) consume it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Token All-to-Alls per MoE layer and iteration: dispatch and combine, in
#: the forward and in the backward pass.
TOKEN_ALL_TO_ALLS = 4


@dataclass(frozen=True)
class CommScheduleConfig:
    """Which of the Fig. 5 scheduling optimisations are enabled.

    Attributes:
        relaxed_prefetch: Overlap expert prefetch with expert computation of
            the current layer (Fig. 5b) instead of only attention computation.
        schedule_after_a2a: Launch prefetch after the token All-to-All to avoid
            channel contention (Fig. 5c).
        delay_grad_sync: Delay gradient reshard to the next layer's expert
            backward (Fig. 5e).
        contention_slowdown: Fractional slowdown applied to communication that
            shares the channel with the token All-to-All when
            ``schedule_after_a2a`` is disabled (the "slowdown" annotation in
            Fig. 5a/5d).
    """

    relaxed_prefetch: bool = True
    schedule_after_a2a: bool = True
    delay_grad_sync: bool = True
    contention_slowdown: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 <= self.contention_slowdown <= 1.0:
            raise ValueError("contention_slowdown must be in [0, 1]")

    @classmethod
    def all_enabled(cls) -> "CommScheduleConfig":
        """LAER-MoE's default: every optimisation on."""
        return cls()

    @classmethod
    def none_enabled(cls) -> "CommScheduleConfig":
        """The unoptimised FSDP-style schedule (ablation baseline)."""
        return cls(relaxed_prefetch=False, schedule_after_a2a=False,
                   delay_grad_sync=False)


@dataclass(frozen=True)
class LayerTimings:
    """Component durations (seconds) of one transformer layer on one device.

    Attributes:
        attention_compute: Forward attention (+ gate) computation time.
        expert_compute: Forward expert (MoE MLP) computation time of the
            device, after load balancing.
        token_a2a: One token All-to-All (dispatch or combine; they are equal
            in volume).
        expert_prefetch: Expert-parameter restore/prefetch communication for
            one layer (the FSEP unshard All-to-All).
        attention_prefetch: Prefetch of the next layer's non-expert parameters
            (FSDP All-Gather); usually small.
        grad_sync: Gradient reshard + reduce communication for one layer's
            experts (the FSEP reshard All-to-All).
    """

    attention_compute: float
    expert_compute: float
    token_a2a: float
    expert_prefetch: float
    attention_prefetch: float = 0.0
    grad_sync: float = 0.0

    def __post_init__(self) -> None:
        for name in ("attention_compute", "expert_compute", "token_a2a",
                     "expert_prefetch", "attention_prefetch", "grad_sync"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ScheduleResult:
    """Scheduled time of one layer (forward + backward) and its breakdown."""

    forward_time: float
    backward_time: float
    exposed_prefetch: float
    exposed_grad_sync: float
    a2a_time: float
    compute_time: float

    @property
    def total(self) -> float:
        return self.forward_time + self.backward_time


def _exposed(comm: float, overlap_budget: float) -> float:
    """Communication time left exposed after overlapping with computation."""
    return max(0.0, comm - overlap_budget)


def schedule_layer(timings: LayerTimings,
                   config: CommScheduleConfig) -> ScheduleResult:
    """Compute the scheduled forward+backward time of one layer.

    The model follows the Fig. 5 timelines: the critical path of the forward
    pass is ``attention -> token A2A (dispatch) -> expert compute -> token A2A
    (combine)``, and the prefetch of the next layer's parameters runs on a
    separate stream that overlaps either with attention (default) or with
    expert compute (relaxed).  The backward pass mirrors the forward pass with
    doubled compute and adds the gradient reshard, overlapped either where
    autograd emits it (default: attention backward) or delayed onto the next
    layer's expert backward.
    """
    contention = 0.0 if config.schedule_after_a2a else config.contention_slowdown

    # ---------------- forward ----------------
    fw_critical = (timings.attention_compute + 2.0 * timings.token_a2a
                   + timings.expert_compute)
    prefetch = timings.expert_prefetch + timings.attention_prefetch
    if config.relaxed_prefetch:
        overlap_budget = timings.expert_compute
    else:
        overlap_budget = timings.attention_compute
    # Channel contention with the token All-to-All inflates the prefetch when
    # it is not explicitly ordered after the dispatch.
    effective_prefetch = prefetch * (1.0 + contention)
    exposed_prefetch_fw = _exposed(effective_prefetch, overlap_budget)
    # Contention also slows the token A2A itself by the overlapping fraction.
    a2a_penalty_fw = contention * min(prefetch, 2.0 * timings.token_a2a)
    forward_time = fw_critical + exposed_prefetch_fw + a2a_penalty_fw

    # ---------------- backward ----------------
    bw_attention = 2.0 * timings.attention_compute
    bw_expert = 2.0 * timings.expert_compute
    bw_critical = bw_attention + 2.0 * timings.token_a2a + bw_expert
    # The backward pass also prefetches (restores) the previous layer's expert
    # parameters; it overlaps the same way as in the forward pass.
    exposed_prefetch_bw = _exposed(effective_prefetch,
                                   bw_expert if config.relaxed_prefetch
                                   else bw_attention)
    if config.delay_grad_sync:
        grad_overlap_budget = bw_expert
    else:
        grad_overlap_budget = bw_attention
    effective_grad_sync = timings.grad_sync * (1.0 + contention)
    exposed_grad_sync = _exposed(effective_grad_sync, grad_overlap_budget)
    a2a_penalty_bw = contention * min(timings.grad_sync, 2.0 * timings.token_a2a)
    backward_time = (bw_critical + exposed_prefetch_bw + exposed_grad_sync
                     + a2a_penalty_bw)

    return ScheduleResult(
        forward_time=forward_time,
        backward_time=backward_time,
        exposed_prefetch=exposed_prefetch_fw + exposed_prefetch_bw,
        exposed_grad_sync=exposed_grad_sync,
        a2a_time=(TOKEN_ALL_TO_ALLS * timings.token_a2a + a2a_penalty_fw
                  + a2a_penalty_bw),
        compute_time=3.0 * (timings.attention_compute + timings.expert_compute),
    )
