"""Scenario API: pluggable streaming trace sources and the scenario registry.

The paper's claims rest on how systems behave under *diverse, drifting*
routing workloads (Fig. 1a), so the workload layer is organised around two
first-class concepts:

* :class:`TraceSource` -- the protocol every workload implements: lazy,
  per-iteration ``(layers, N, E)`` routing matrices plus the metadata the
  engine needs (`tokens_per_device`, `top_k`, shapes).  Sources are *value
  objects*: ``iter_iterations()`` restarts deterministically on every call
  and ``fork()`` produces an independent copy, so several systems (or worker
  processes) can consume the same workload and see bit-identical matrices.
  :class:`repro.workloads.routing_traces.RoutingTrace` satisfies the protocol
  too, so fully-materialized traces and streaming sources are interchangeable
  everywhere.  The concrete sources share :class:`TraceSourceBase`, which
  reads the five shape properties from one ``_shape`` object.
* :class:`SyntheticTraceSource` -- the one drifting popularity process of
  Fig. 1(a): Dirichlet logits that take a random-walk step per iteration or
  are re-drawn on a ``churn_prob`` coin.  ``SyntheticTraceSource(config,
  n).materialize()`` is the way to get a synthetic :class:`RoutingTrace`;
  :class:`BurstyChurnTraceSource` runs the same walk with scheduled bursts
  in place of the coin.  Every synthetic frame is drawn by
  :func:`~repro.workloads.routing_traces.draw_routing_frame`.
* the **scenario registry** -- ``SCENARIOS``, a decorator-based
  :class:`repro.registry.Registry` (the class behind the system and study
  registries too) that maps scenario names to source factories.
  Experiments reference scenarios by name from
  :class:`repro.api.WorkloadSpec`; users register new scenarios without
  editing this module::

      from repro.workloads.scenarios import ScenarioContext, register_scenario

      @register_scenario("my-scenario", description="custom workload")
      def _build(ctx: ScenarioContext, knob: float = 1.0) -> TraceSource:
          return SyntheticTraceSource(ctx.trace_config(skew=knob), ctx.iterations)

Built-in scenarios: ``steady``, ``drifting`` (the historical default),
``bursty-churn``, ``diurnal``, ``phase-shift``, ``straggler``,
``multi-tenant-mix``, ``trace-replay`` (recorded per-token assignments
replayed through :func:`routing_from_assignments`) and ``compose`` (stack
registered *wrappers* -- e.g. straggler failures -- on any base scenario).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.registry import Registry
from repro.workloads.routing_traces import (
    RoutingTrace,
    RoutingTraceConfig,
    draw_routing_frame,
    routing_from_assignments,
)
from repro.workloads.trace_io import load_assignments, load_trace


# ----------------------------------------------------------------------
# The TraceSource protocol
# ----------------------------------------------------------------------
@runtime_checkable
class TraceSource(Protocol):
    """Anything that can feed routing matrices to the simulation engine.

    Implementations must behave like value objects: ``iter_iterations()``
    restarts from the beginning (with the same pseudo-random stream) on every
    call, and ``fork()`` returns an independent source producing the same
    matrices -- this is what makes multi-system comparisons independent of
    the order the systems run in.
    """

    @property
    def num_iterations(self) -> int: ...

    @property
    def num_layers(self) -> int: ...

    @property
    def num_devices(self) -> int: ...

    @property
    def num_experts(self) -> int: ...

    @property
    def tokens_per_device(self) -> int: ...

    @property
    def top_k(self) -> int: ...

    def iter_iterations(self) -> Iterator[np.ndarray]:
        """Yield the ``(num_layers, N, E)`` routing of every iteration in order."""
        ...

    def fork(self) -> "TraceSource":
        """Return an independent source yielding the same matrices."""
        ...

    def materialize(self) -> RoutingTrace:
        """Fully realise the source as a :class:`RoutingTrace`."""
        ...


class TraceSourceBase:
    """Shared behaviour of the concrete sources: shape, fork, materialize.

    The five shape properties read one ``_shape`` object -- the config, the
    loaded trace, the inner source or the first mixture component -- so a
    source declares only ``_shape``, ``num_iterations`` and its iterator
    (a mixture also sums its tenants' ``tokens_per_device``).
    """

    num_layers = property(lambda self: self._shape.num_layers)
    num_devices = property(lambda self: self._shape.num_devices)
    num_experts = property(lambda self: self._shape.num_experts)
    tokens_per_device = property(lambda self: self._shape.tokens_per_device)
    top_k = property(lambda self: self._shape.top_k)

    def fork(self) -> "TraceSource":
        return copy.deepcopy(self)

    def materialize(self) -> RoutingTrace:
        frames = list(self.iter_iterations())
        if not frames:
            raise ValueError("cannot materialize an empty trace source")
        return RoutingTrace(routing=np.stack(frames, axis=0),
                            top_k=self.top_k,
                            tokens_per_device=self.tokens_per_device)

    def iter_iterations(self) -> Iterator[np.ndarray]:  # pragma: no cover
        raise NotImplementedError


def _dirichlet_probs(rng: np.random.Generator,
                     config: RoutingTraceConfig) -> np.ndarray:
    """Draw a ``(layers, E)`` popularity matrix from the config's skew."""
    return rng.dirichlet([config.skew] * config.num_experts,
                         size=config.num_layers)


def _dirichlet_logits(rng: np.random.Generator,
                      config: RoutingTraceConfig) -> np.ndarray:
    """Log-popularity of a fresh Dirichlet draw (floored at ``1e-9``)."""
    return np.log(np.maximum(_dirichlet_probs(rng, config), 1e-9))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Per-layer popularity of ``(layers, E)`` logits."""
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    return probs / probs.sum(axis=1, keepdims=True)


# ----------------------------------------------------------------------
# Concrete sources
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConfigTraceSource(TraceSourceBase):
    """A source drawn from a :class:`RoutingTraceConfig` for ``iterations``."""

    config: RoutingTraceConfig
    iterations: int

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")

    _shape = property(lambda self: self.config)
    num_iterations = property(lambda self: self.iterations)


@dataclass(frozen=True)
class SyntheticTraceSource(ConfigTraceSource):
    """Skewed expert popularity that drifts and churns (Fig. 1a).

    Per-layer popularity logits start from a Dirichlet draw of the config's
    ``skew``.  After every frame they are re-drawn on a ``churn_prob`` coin
    (hotspot churn) or take a Gaussian random-walk step of ``drift``.  Each
    ``iter_iterations`` call restarts from the config's seed, so the stream
    is restartable and deterministic.
    """

    def _churns(self, rng: np.random.Generator, iteration: int) -> bool:
        """Whether the logits are re-drawn after frame ``iteration``.

        The coin is tossed on every step, ``churn_prob`` 0 included:
        skipping it would shift every later draw and so every seeded frame.
        """
        return rng.random() < self.config.churn_prob

    def iter_iterations(self) -> Iterator[np.ndarray]:
        config = self.config
        rng = np.random.default_rng(config.seed)
        logits = _dirichlet_logits(rng, config)
        for iteration in range(self.iterations):
            yield draw_routing_frame(rng, _softmax(logits), config)
            if self._churns(rng, iteration):
                logits = _dirichlet_logits(rng, config)
            else:
                logits = logits + rng.normal(0.0, config.drift,
                                             size=logits.shape)


class FileTraceSource(TraceSourceBase):
    """Lazily loaded ``.npz`` routing trace (written by ``save_trace``).

    The file is read on first access, not at construction, so specs that
    reference trace files stay cheap to build, and forks shipped to worker
    processes carry only the path.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._trace: Optional[RoutingTrace] = None

    def _loaded(self) -> RoutingTrace:
        if self._trace is None:
            self._trace = load_trace(self.path)
        return self._trace

    _shape = property(lambda self: self._loaded())
    num_iterations = property(lambda self: self._loaded().num_iterations)

    def iter_iterations(self) -> Iterator[np.ndarray]:
        yield from self._loaded().iter_iterations()

    def fork(self) -> "FileTraceSource":
        return FileTraceSource(self.path)

    def materialize(self) -> RoutingTrace:
        return self._loaded()

    def __getstate__(self) -> Dict[str, object]:
        # Workers re-read from disk; keep pickles path-sized.
        return {"path": self.path}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.path = state["path"]  # type: ignore[assignment]
        self._trace = None

    def __repr__(self) -> str:
        return f"FileTraceSource({str(self.path)!r})"


@dataclass(frozen=True)
class BurstyChurnTraceSource(SyntheticTraceSource):
    """Calm drift punctuated by bursts of complete hotspot churn.

    The drifting process of :class:`SyntheticTraceSource` with a schedule in
    place of the churn coin: during the last ``burst_length`` iterations of
    every ``period`` the whole popularity distribution is re-drawn each
    iteration (abrupt hotspot reshuffles, the hardest regime for
    one-step-lagged adaptive planners); the config's ``churn_prob`` is not
    read.
    """

    period: int = 12
    burst_length: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period < 2:
            raise ValueError("period must be at least 2")
        if not 1 <= self.burst_length < self.period:
            raise ValueError("burst_length must be in [1, period)")

    def in_burst(self, iteration: int) -> bool:
        return iteration % self.period >= self.period - self.burst_length

    def _churns(self, rng: np.random.Generator, iteration: int) -> bool:
        return self.in_burst(iteration + 1)


@dataclass(frozen=True)
class DiurnalTraceSource(ConfigTraceSource):
    """Popularity oscillating between a "day" and a "night" profile.

    Two skewed popularity profiles are drawn once; every iteration mixes
    them with a sinusoidal weight of the given period, modelling the daily
    topic cycle of serving-style traffic.  Hot experts therefore migrate
    smoothly but *predictably* -- the friendliest drifting regime.
    """

    period: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period < 2:
            raise ValueError("period must be at least 2")

    def iter_iterations(self) -> Iterator[np.ndarray]:
        config = self.config
        rng = np.random.default_rng(config.seed)
        day = _dirichlet_probs(rng, config)
        night = _dirichlet_probs(rng, config)
        for iteration in range(self.iterations):
            weight = 0.5 * (1.0 - np.cos(2.0 * np.pi * iteration / self.period))
            probs = (1.0 - weight) * day + weight * night
            probs = probs / probs.sum(axis=1, keepdims=True)
            yield draw_routing_frame(rng, probs, config)


@dataclass(frozen=True)
class PhaseShiftTraceSource(ConfigTraceSource):
    """Piecewise-stationary popularity: distinct regimes switching abruptly.

    The trace is divided into phases of ``phase_length`` iterations; each
    phase has its own independently drawn popularity profile (deterministic
    in the seed and the phase index).  Within a phase the distribution is
    stationary, so adaptive systems converge, then get yanked to a new
    regime -- the workload SPEC-style suites use to probe phase behaviour.
    """

    phase_length: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.phase_length < 1:
            raise ValueError("phase_length must be at least 1")

    def phase_probs(self, phase: int) -> np.ndarray:
        """The ``(layers, E)`` popularity of one phase (seed + phase keyed)."""
        phase_rng = np.random.default_rng([self.config.seed, 1 + phase])
        return _dirichlet_probs(phase_rng, self.config)

    def iter_iterations(self) -> Iterator[np.ndarray]:
        draw_rng = np.random.default_rng([self.config.seed, 0])
        probs = self.phase_probs(0)
        current_phase = 0
        for iteration in range(self.iterations):
            phase = iteration // self.phase_length
            if phase != current_phase:
                probs = self.phase_probs(phase)
                current_phase = phase
            yield draw_routing_frame(draw_rng, probs, self.config)


@dataclass(frozen=True)
class StragglerTraceSource(TraceSourceBase):
    """Recurring device failures: shards drop out and their load spreads.

    Wraps any inner source; during the first ``duration`` iterations of
    every ``period``, ``num_failed`` devices (rotating across windows) stop
    contributing tokens and their per-expert counts are redistributed evenly
    across the surviving devices -- the global expert load is preserved but
    the device-level distribution spikes, as it does when a data shard's
    host fails or straggles.
    """

    inner: TraceSource
    period: int = 6
    duration: int = 2
    num_failed: int = 1

    def __post_init__(self) -> None:
        if self.period < 2:
            raise ValueError("period must be at least 2")
        if not 1 <= self.duration < self.period:
            raise ValueError("duration must be in [1, period)")
        if not 1 <= self.num_failed < self.inner.num_devices:
            raise ValueError(
                "num_failed must leave at least one surviving device")

    _shape = property(lambda self: self.inner)
    num_iterations = property(lambda self: self.inner.num_iterations)

    def failed_devices(self, iteration: int) -> List[int]:
        """Devices down at ``iteration`` (empty outside failure windows)."""
        if iteration % self.period >= self.duration:
            return []
        window = iteration // self.period
        n = self.num_devices
        return [(window + offset) % n for offset in range(self.num_failed)]

    def iter_iterations(self) -> Iterator[np.ndarray]:
        for iteration, frame in enumerate(self.inner.fork().iter_iterations()):
            failed = self.failed_devices(iteration)
            if not failed:
                yield frame
                continue
            frame = np.array(frame, dtype=np.int64, copy=True)
            survivors = [d for d in range(self.num_devices) if d not in failed]
            lost = frame[:, failed, :].sum(axis=1)  # (layers, E)
            frame[:, failed, :] = 0
            base = lost // len(survivors)
            remainder = lost % len(survivors)
            for index, device in enumerate(survivors):
                frame[:, device, :] += base + (remainder > index)
            yield frame


@dataclass(frozen=True)
class MixtureTraceSource(TraceSourceBase):
    """Sum of several tenant workloads sharing the cluster.

    Every iteration is the element-wise sum of the component sources'
    routing matrices, modelling multiple tenants (each with its own skew,
    drift and seed) multiplexed onto one device fleet.  Components must
    agree on ``(layers, N, E)`` shape and ``top_k``; ``tokens_per_device``
    is the sum of the tenants' budgets.
    """

    components: Tuple[TraceSource, ...]

    def __post_init__(self) -> None:
        if len(self.components) < 2:
            raise ValueError("a mixture needs at least two component sources")
        head = self.components[0]
        for component in self.components[1:]:
            same_shape = (component.num_layers == head.num_layers
                          and component.num_devices == head.num_devices
                          and component.num_experts == head.num_experts)
            if not same_shape or component.top_k != head.top_k:
                raise ValueError(
                    "mixture components must share (layers, N, E) and top_k")

    _shape = property(lambda self: self.components[0])

    @property
    def num_iterations(self) -> int:
        return min(c.num_iterations for c in self.components)

    @property
    def tokens_per_device(self) -> int:
        """The tenants' summed budget, not the first component's."""
        return sum(c.tokens_per_device for c in self.components)

    def iter_iterations(self) -> Iterator[np.ndarray]:
        iterators = [c.fork().iter_iterations() for c in self.components]
        for _ in range(self.num_iterations):
            yield sum(next(it) for it in iterators)


class AssignmentReplayTraceSource(TraceSourceBase):
    """Trace-driven workload: recorded per-token assignments replayed lazily.

    The ``.npz`` file (written by
    :func:`repro.workloads.trace_io.save_assignments`) holds the raw
    ``(iterations, layers, devices, slots)`` expert choices of a recorded
    training run; each frame's routing matrix is rebuilt through
    :func:`routing_from_assignments`, so the replayed workload carries the
    *real* skew and drift of the recording rather than a synthetic model of
    it.  Like :class:`FileTraceSource` the file is read on first access and
    forks/pickles carry only the parameters, so worker processes re-read
    from disk.

    Recordings rarely match the simulated cluster exactly, so the source
    adapts in two ways: integer ``scale`` multiplies every token count
    (small numpy training runs have realistic distributions but tiny
    absolute counts), and when the recording's device count differs from
    ``num_devices`` the trace is re-partitioned with
    :meth:`RoutingTrace.remap_devices` (preserving the global expert
    distribution) -- which is what lets one recording drive a cluster-size
    sweep.  If the requested iteration count exceeds the recording, the
    frames cycle.
    """

    def __init__(self, path: Union[str, Path], num_experts: int, top_k: int,
                 iterations: int, num_devices: Optional[int] = None,
                 scale: int = 1):
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if int(scale) <= 0:
            raise ValueError("scale must be a positive integer")
        self.path = Path(path)
        self.target_experts = int(num_experts)
        self.target_top_k = int(top_k)
        self.iterations = int(iterations)
        self.target_devices = None if num_devices is None else int(num_devices)
        self.scale = int(scale)
        self._trace: Optional[RoutingTrace] = None

    def _loaded(self) -> RoutingTrace:
        if self._trace is not None:
            return self._trace
        assignments = load_assignments(self.path)
        iterations, layers, devices, slots = assignments.shape
        if iterations == 0:
            raise ValueError(f"assignment file {self.path} is empty")
        if assignments.size and int(assignments.max()) >= self.target_experts:
            raise ValueError(
                f"assignment file {self.path} routes to expert "
                f"{int(assignments.max())} but the model has only "
                f"{self.target_experts} experts")
        if slots % self.target_top_k:
            raise ValueError(
                f"assignment file {self.path} has {slots} slots per device, "
                f"not divisible by top_k={self.target_top_k}")
        frames = np.stack([
            np.stack([routing_from_assignments(list(assignments[it, layer]),
                                               self.target_experts)
                      for layer in range(layers)])
            for it in range(iterations)])
        trace = RoutingTrace(routing=frames, top_k=self.target_top_k,
                             tokens_per_device=slots // self.target_top_k)
        if self.scale != 1:
            trace = trace.scaled(self.scale)
        if (self.target_devices is not None
                and self.target_devices != trace.num_devices):
            remapped = trace.remap_devices(self.target_devices)
            # remap_devices reports the peak per-device *slot* count as
            # tokens_per_device; divide the top_k factor back out so
            # throughput (tokens/s) stays comparable with unremapped runs.
            trace = RoutingTrace(
                routing=remapped.routing, top_k=remapped.top_k,
                tokens_per_device=max(
                    1, -(-remapped.tokens_per_device // self.target_top_k)))
        self._trace = trace
        return trace

    _shape = property(lambda self: self._loaded())
    num_iterations = property(lambda self: self.iterations)

    def iter_iterations(self) -> Iterator[np.ndarray]:
        recorded = self._loaded()
        for iteration in range(self.iterations):
            yield recorded.routing[iteration % recorded.num_iterations]

    def fork(self) -> "AssignmentReplayTraceSource":
        return AssignmentReplayTraceSource(
            self.path, num_experts=self.target_experts,
            top_k=self.target_top_k, iterations=self.iterations,
            num_devices=self.target_devices, scale=self.scale)

    def __getstate__(self) -> Dict[str, object]:
        # Workers rebuild from disk; keep pickles parameter-sized.
        state = dict(self.__dict__)
        state["_trace"] = None
        return state

    def __repr__(self) -> str:
        return (f"AssignmentReplayTraceSource({str(self.path)!r}, "
                f"iterations={self.iterations}, scale={self.scale})")


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioContext:
    """Workload inputs every scenario factory receives.

    Mirrors :class:`repro.sim.systems.SystemBuildContext`: the experiment
    describes *what* cluster/model/budget it runs on, the scenario decides
    *how* the routing behaves over time.

    Attributes:
        num_devices: Number of devices ``N``.
        num_experts: Number of experts ``E`` per MoE layer.
        num_layers: Number of MoE layers carried by the trace.
        tokens_per_device: Tokens per device per micro-batch.
        top_k: Experts selected per token.
        iterations: Total iterations the source must provide (including any
            warmup the runner replays).
        seed: Base PRNG seed.
        skew: Dirichlet concentration of the expert popularity.
        drift: Per-iteration random-walk magnitude of the popularity logits.
        churn_prob: Per-iteration probability of a hot-expert reshuffle
            (used by scenarios that model random churn).
        device_noise: Relative per-device multiplicative routing noise.
    """

    num_devices: int
    num_experts: int
    num_layers: int
    tokens_per_device: int
    top_k: int
    iterations: int
    seed: int = 0
    skew: float = 0.45
    drift: float = 0.08
    churn_prob: float = 0.0
    device_noise: float = 0.05

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")

    def trace_config(self, **overrides: object) -> RoutingTraceConfig:
        """Build a :class:`RoutingTraceConfig` from the context (+ overrides)."""
        kwargs: Dict[str, object] = dict(
            num_devices=self.num_devices,
            num_experts=self.num_experts,
            num_layers=self.num_layers,
            tokens_per_device=self.tokens_per_device,
            top_k=self.top_k,
            skew=self.skew,
            drift=self.drift,
            churn_prob=self.churn_prob,
            device_noise=self.device_noise,
            seed=self.seed,
        )
        kwargs.update(overrides)
        return RoutingTraceConfig(**kwargs)  # type: ignore[arg-type]


#: The scenario registry; factories take the :class:`ScenarioContext`.
SCENARIOS = Registry("scenario", skip=1)
register_scenario = SCENARIOS.register
unregister_scenario = SCENARIOS.unregister
registered_scenario = SCENARIOS.get
available_scenarios = SCENARIOS.names
scenario_descriptions = SCENARIOS.descriptions


def default_runnable_scenarios() -> List[str]:
    """Scenarios buildable with no explicit parameters.

    Excludes entries with required, defaultless parameters (``trace-replay``
    needs a recording path); sweeps that iterate "every scenario" -- the
    ``sweep-scenarios`` study, determinism test matrices -- use this list.
    """
    return [name for name in available_scenarios()
            if not registered_scenario(name).required]


def make_scenario(name: str, ctx: ScenarioContext,
                  **overrides: object) -> TraceSource:
    """Instantiate one of the registered scenarios.

    Args:
        name: One of :func:`available_scenarios` (case-insensitive).
        ctx: Workload context (cluster size, model shape, budget, seed).
        **overrides: Per-build overrides of the entry's registered parameters
            (e.g. ``make_scenario("bursty-churn", ctx, period=20)``).
    """
    return registered_scenario(name).build(ctx, **overrides)


# ----------------------------------------------------------------------
# Built-in scenarios (registration order fixes ``available_scenarios`` order)
# ----------------------------------------------------------------------
@register_scenario(
    "steady",
    description="fixed skewed popularity; no drift, no churn")
def _build_steady(ctx: ScenarioContext) -> TraceSource:
    return SyntheticTraceSource(
        ctx.trace_config(drift=0.0, churn_prob=0.0), ctx.iterations)


@register_scenario(
    "drifting",
    description="skewed popularity with random-walk drift (historical default)")
def _build_drifting(ctx: ScenarioContext) -> TraceSource:
    return SyntheticTraceSource(ctx.trace_config(), ctx.iterations)


@register_scenario(
    "bursty-churn", period=12, burst_length=3,
    description="calm drift punctuated by bursts of complete hotspot churn")
def _build_bursty_churn(ctx: ScenarioContext, period: int = 12,
                        burst_length: int = 3) -> TraceSource:
    return BurstyChurnTraceSource(ctx.trace_config(churn_prob=0.0),
                                  ctx.iterations, period=period,
                                  burst_length=burst_length)


@register_scenario(
    "diurnal", period=16,
    description="popularity oscillates between day and night profiles")
def _build_diurnal(ctx: ScenarioContext, period: int = 16) -> TraceSource:
    return DiurnalTraceSource(ctx.trace_config(drift=0.0, churn_prob=0.0),
                              ctx.iterations, period=period)


@register_scenario(
    "phase-shift", phase_length=8,
    description="piecewise-stationary regimes switching abruptly")
def _build_phase_shift(ctx: ScenarioContext,
                       phase_length: int = 8) -> TraceSource:
    return PhaseShiftTraceSource(ctx.trace_config(drift=0.0, churn_prob=0.0),
                                 ctx.iterations, phase_length=phase_length)


@register_scenario(
    "straggler", period=6, duration=2, num_failed=1,
    description="recurring device failures redistribute shard load")
def _build_straggler(ctx: ScenarioContext, period: int = 6,
                     duration: int = 2, num_failed: int = 1) -> TraceSource:
    inner = SyntheticTraceSource(ctx.trace_config(), ctx.iterations)
    return StragglerTraceSource(inner, period=period, duration=duration,
                                num_failed=num_failed)


@register_scenario(
    "multi-tenant-mix", tenants=2,
    description="sum of tenant workloads with different skews and seeds")
def _build_multi_tenant_mix(ctx: ScenarioContext,
                            tenants: int = 2) -> TraceSource:
    if tenants < 2:
        raise ValueError("multi-tenant-mix needs at least 2 tenants")
    if ctx.tokens_per_device < tenants:
        raise ValueError("tokens_per_device must be at least the tenant count")
    base = ctx.tokens_per_device // tenants
    budgets = [base] * tenants
    budgets[0] += ctx.tokens_per_device - base * tenants
    components = []
    for tenant, budget in enumerate(budgets):
        skew = max(0.05, ctx.skew * (0.5 ** tenant))
        components.append(SyntheticTraceSource(
            ctx.trace_config(tokens_per_device=budget, skew=skew,
                             seed=ctx.seed + 7919 * tenant),
            ctx.iterations))
    return MixtureTraceSource(tuple(components))


# ----------------------------------------------------------------------
# Scenario wrappers (composition) and the trace-driven scenarios
# ----------------------------------------------------------------------
#: Scenario wrappers: factories take ``(inner, ctx)`` and transform an
#: already-built :class:`TraceSource` (e.g. inject device failures).  The
#: ``compose`` scenario stacks them onto any base scenario, so behaviours
#: combine without a combinatorial explosion of dedicated scenario entries.
SCENARIO_WRAPPERS = Registry("scenario wrapper", skip=2)
register_scenario_wrapper = SCENARIO_WRAPPERS.register
registered_scenario_wrapper = SCENARIO_WRAPPERS.get
available_scenario_wrappers = SCENARIO_WRAPPERS.names


@register_scenario_wrapper(
    "straggler", period=6, duration=2, num_failed=1,
    description="recurring device failures on top of any workload")
def _wrap_straggler(inner: TraceSource, ctx: ScenarioContext, period: int = 6,
                    duration: int = 2, num_failed: int = 1) -> TraceSource:
    return StragglerTraceSource(inner, period=period, duration=duration,
                                num_failed=num_failed)


@register_scenario_wrapper(
    "tenant-overlay", skew_factor=0.5, seed_offset=7919,
    description="adds a second-tenant workload on top of the inner one")
def _wrap_tenant_overlay(inner: TraceSource, ctx: ScenarioContext,
                         skew_factor: float = 0.5,
                         seed_offset: int = 7919) -> TraceSource:
    overlay = SyntheticTraceSource(
        ctx.trace_config(skew=max(0.05, ctx.skew * skew_factor),
                         seed=ctx.seed + seed_offset),
        ctx.iterations)
    return MixtureTraceSource((inner, overlay))


@register_scenario(
    "trace-replay", scale=1,
    description="replay recorded per-token expert assignments (.npz path)")
def _build_trace_replay(ctx: ScenarioContext, path: str,
                        scale: int = 1) -> TraceSource:
    return AssignmentReplayTraceSource(
        path, num_experts=ctx.num_experts, top_k=ctx.top_k,
        iterations=ctx.iterations, num_devices=ctx.num_devices, scale=scale)


@register_scenario(
    "compose", base="diurnal",
    description="stack scenario wrappers on a base scenario "
                "(default: straggler-on-diurnal)")
def _build_compose(ctx: ScenarioContext, base: str = "diurnal",
                   base_params: Optional[Mapping[str, object]] = None,
                   wrappers: Sequence[object] = ("straggler",)) -> TraceSource:
    """Build ``base`` and apply ``wrappers`` innermost-first.

    ``wrappers`` entries are wrapper names or ``{"name": ..., "params":
    {...}}`` mappings (JSON-safe, so composed workloads serialize inside
    ordinary :class:`repro.api.WorkloadSpec` params).
    """
    entry = registered_scenario(base)
    if entry.name == "compose":
        raise ValueError("compose cannot use itself as the base scenario")
    source = entry.build(ctx, **dict(base_params or {}))
    for wrapper in wrappers:
        if isinstance(wrapper, str):
            name, params = wrapper, {}
        elif isinstance(wrapper, Mapping):
            unknown = sorted(set(wrapper) - {"name", "params"})
            if unknown:
                raise ValueError(
                    f"wrapper entries accept only 'name' and 'params' keys, "
                    f"got {unknown}")
            if "name" not in wrapper:
                raise ValueError("wrapper entries need a 'name' key")
            name = str(wrapper["name"])
            params = dict(wrapper.get("params", {}))
        else:
            raise ValueError(
                f"wrapper entries must be names or mappings, got {wrapper!r}")
        source = registered_scenario_wrapper(name).build(source, ctx, **params)
    return source

