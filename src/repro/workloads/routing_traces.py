"""Routing traces: the token-to-expert assignment matrices the planner consumes.

A *routing trace* records, for every training iteration and every MoE layer,
the matrix ``R[i, j]`` -- the number of tokens held by device ``i`` that the
gating network routed to expert ``j``.  The planner, the baselines and the
iteration simulator all consume these matrices, so anything that produces
realistic ``R`` exercises exactly the code path the paper's system exercises.

The paper collects traces from real Mixtral-8x7B training (Fig. 1a shows the
resulting skew and drift).  We do not have those proprietary traces, so this
module provides:

* :class:`RoutingTraceConfig` -- the shape and popularity parameters the
  synthetic sources of :mod:`repro.workloads.scenarios` draw from; the
  drifting, churning process of Fig. 1a is
  :class:`~repro.workloads.scenarios.SyntheticTraceSource`.
* :func:`draw_routing_frame` -- the one multinomial draw of a frame from
  per-layer expert popularities.
* :class:`RoutingTrace` -- a materialized trace, itself a trace source.
* :func:`routing_from_assignments` -- builds ``R`` from explicit per-token
  expert assignments, used to extract traces from the numpy training runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class RoutingTraceConfig:
    """Shape and popularity parameters of a synthetic routing workload.

    Attributes:
        num_devices: Number of devices ``N`` (each holds a data shard).
        num_experts: Number of experts ``E`` per MoE layer.
        num_layers: Number of MoE layers.
        tokens_per_device: Tokens per device per micro-batch ``S``.
        top_k: Experts selected per token ``K`` (total assignments are
            ``tokens_per_device * top_k`` per device).
        skew: Dirichlet concentration controlling imbalance; smaller values
            produce more skewed expert popularity (0.3-0.6 matches Fig. 1a).
        drift: Standard deviation of the per-iteration random walk applied to
            the popularity logits (temporal drift of hot experts).
        churn_prob: Probability per iteration that the hot-expert ranking is
            reshuffled (abrupt hotspot changes).
        device_noise: Relative multiplicative noise applied per device, so
            different data shards see slightly different routing.
        seed: PRNG seed.
    """

    num_devices: int
    num_experts: int
    num_layers: int = 1
    tokens_per_device: int = 16384
    top_k: int = 2
    skew: float = 0.5
    drift: float = 0.08
    churn_prob: float = 0.02
    device_noise: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_devices <= 0 or self.num_experts <= 0 or self.num_layers <= 0:
            raise ValueError("num_devices, num_experts and num_layers must be positive")
        if self.tokens_per_device <= 0:
            raise ValueError("tokens_per_device must be positive")
        if not 1 <= self.top_k <= self.num_experts:
            raise ValueError("top_k must be in [1, num_experts]")
        if self.skew <= 0:
            raise ValueError("skew must be positive")
        if self.drift < 0 or self.device_noise < 0:
            raise ValueError("drift and device_noise must be non-negative")
        if not 0.0 <= self.churn_prob <= 1.0:
            raise ValueError("churn_prob must be a probability")


@dataclass
class RoutingTrace:
    """A recorded routing trace.

    Attributes:
        routing: Array of shape ``(iterations, num_layers, N, E)`` holding the
            token counts ``R`` for every iteration and layer.
        top_k: Experts per token used when the trace was produced.
        tokens_per_device: Tokens per device per micro-batch.
    """

    routing: np.ndarray
    top_k: int
    tokens_per_device: int

    def __post_init__(self) -> None:
        self.routing = np.asarray(self.routing)
        if self.routing.ndim != 4:
            raise ValueError("routing must have shape (iters, layers, N, E)")
        if np.any(self.routing < 0):
            raise ValueError("routing counts must be non-negative")

    # ------------------------------------------------------------------
    @property
    def num_iterations(self) -> int:
        return int(self.routing.shape[0])

    @property
    def num_layers(self) -> int:
        return int(self.routing.shape[1])

    @property
    def num_devices(self) -> int:
        return int(self.routing.shape[2])

    @property
    def num_experts(self) -> int:
        return int(self.routing.shape[3])

    def iteration(self, it: int) -> np.ndarray:
        """Return the ``(num_layers, N, E)`` routing of iteration ``it``."""
        return self.routing[it]

    # -- TraceSource protocol ------------------------------------------
    # A materialized trace is also a streaming source, so the simulation
    # engine and the scenario machinery treat both interchangeably.
    def iter_iterations(self) -> Iterator[np.ndarray]:
        """Yield every ``(num_layers, N, E)`` routing frame in order."""
        for it in range(self.num_iterations):
            yield self.routing[it]

    def fork(self) -> "RoutingTrace":
        """Return an independent view of the trace (immutable, so ``self``)."""
        return self

    def materialize(self) -> "RoutingTrace":
        """A trace is already materialized."""
        return self

    def layer(self, it: int, layer: int) -> np.ndarray:
        """Return the ``(N, E)`` routing matrix of one layer of one iteration."""
        return self.routing[it, layer]

    # ------------------------------------------------------------------
    def expert_loads(self, it: int, layer: int) -> np.ndarray:
        """Total tokens routed to each expert in one layer of one iteration."""
        return self.routing[it, layer].sum(axis=0)

    def imbalance(self, it: int, layer: int) -> float:
        """Expert-load imbalance: max expert load divided by the mean load."""
        loads = self.expert_loads(it, layer).astype(np.float64)
        mean = loads.mean()
        if mean == 0:
            return 1.0
        return float(loads.max() / mean)

    def mean_imbalance(self) -> float:
        """Average imbalance across all iterations and layers."""
        loads = self.routing.sum(axis=2).astype(np.float64)  # (iters, layers, E)
        mean = loads.mean(axis=2)
        peak = loads.max(axis=2)
        vals = np.where(mean == 0, 1.0, peak / np.where(mean == 0, 1.0, mean))
        return float(vals.mean())

    def scaled(self, factor: int) -> "RoutingTrace":
        """Scale every token count by an integer factor.

        Traces extracted from small numpy training runs carry realistic routing
        *distributions* but tiny absolute token counts; scaling them up lets
        the cluster simulator replay them at production batch sizes while
        preserving the imbalance structure.
        """
        if factor <= 0:
            raise ValueError("factor must be a positive integer")
        return RoutingTrace(routing=self.routing * int(factor),
                            top_k=self.top_k,
                            tokens_per_device=self.tokens_per_device * int(factor))

    def remap_devices(self, num_devices: int) -> "RoutingTrace":
        """Re-partition the trace's tokens across a different device count.

        Used by the scalability study (Table 4): the same global routing
        distribution is replayed on clusters of different sizes by splitting
        each expert's global token count evenly (with remainders) across the
        new device set.
        """
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        totals = self.routing.sum(axis=2, dtype=np.int64)  # (iters, layers, E)
        base = totals // num_devices
        rem = totals % num_devices
        # Device d gets one extra token of expert j exactly when d < rem[j].
        device_index = np.arange(num_devices, dtype=np.int64)[None, None, :, None]
        out = base[:, :, None, :] + (device_index < rem[:, :, None, :])
        return RoutingTrace(routing=out, top_k=self.top_k,
                            tokens_per_device=int(out[0, 0].sum(axis=1).max()))


def draw_routing_frame(rng: np.random.Generator, probs_by_layer: np.ndarray,
                       config: RoutingTraceConfig) -> np.ndarray:
    """Draw one ``(layers, N, E)`` routing frame from per-layer popularities.

    The single multinomial-draw implementation of every synthetic source in
    :mod:`repro.workloads.scenarios`: each device perturbs the shared
    popularity with lognormal noise (different data shards disagree
    slightly) and draws a multinomial over experts.  Keeping one code path
    is what guarantees scenarios built on the same popularity schedule stay
    bit-identical across refactors.
    """
    assignments = config.tokens_per_device * config.top_k
    shape = (config.num_layers, config.num_devices, config.num_experts)
    pvals = np.broadcast_to(
        np.asarray(probs_by_layer, dtype=np.float64)[:, None, :], shape)
    if config.device_noise > 0:
        # One (layers, N, E) lognormal tensor instead of layers*N small
        # draws; row-normalise so every (layer, device) slice is a
        # probability vector again.
        noisy = pvals * rng.lognormal(0.0, config.device_noise, size=shape)
        pvals = noisy / noisy.sum(axis=-1, keepdims=True)
    # Generator.multinomial broadcasts over the leading axes of pvals,
    # replacing the per-(layer, device) Python loop with one batched draw.
    return rng.multinomial(assignments, np.ascontiguousarray(pvals))


def balanced_routing(num_devices: int, num_experts: int,
                     tokens_per_device: int, top_k: int,
                     num_layers: int = 1, num_iterations: int = 1) -> RoutingTrace:
    """Build a perfectly balanced routing trace (every expert equally loaded).

    Used as the "balanced" reference in the Fig. 1(b) motivation experiment and
    as the oracle lower bound in several tests.
    """
    assignments = tokens_per_device * top_k
    base = assignments // num_experts
    rem = assignments % num_experts
    row = np.full(num_experts, base, dtype=np.int64)
    row[:rem] += 1
    routing = np.tile(row, (num_iterations, num_layers, num_devices, 1))
    return RoutingTrace(routing=routing, top_k=top_k,
                        tokens_per_device=tokens_per_device)


def routing_from_assignments(assignments: Sequence[np.ndarray],
                             num_experts: int) -> np.ndarray:
    """Build the ``(N, E)`` routing matrix from per-device expert assignments.

    Args:
        assignments: One integer array per device, holding the expert index
            chosen for each (token, k) slot on that device.
        num_experts: Number of experts ``E``.

    Returns:
        ``(N, E)`` int64 matrix of token counts.
    """
    num_devices = len(assignments)
    out = np.zeros((num_devices, num_experts), dtype=np.int64)
    for dev, assignment in enumerate(assignments):
        flat = np.asarray(assignment).reshape(-1)
        if flat.size and (flat.min() < 0 or flat.max() >= num_experts):
            raise ValueError("expert assignment out of range")
        out[dev] = np.bincount(flat, minlength=num_experts)
    return out
