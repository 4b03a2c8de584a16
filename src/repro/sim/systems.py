"""Training-system configurations compared in the paper.

A :class:`SystemSpec` bundles everything the run simulator needs to model one
of the compared systems on a given model and cluster:

* the parallel paradigm (``megatron``, ``fsdp_ep`` or ``fsep``), which controls
  how expert parameters are stored and synchronised;
* the load-balancing policy deciding expert layouts and token routing;
* the communication-scheduling configuration (Fig. 5 optimisations);
* the tensor-parallel degree of the attention layers (Megatron only).

Systems are assembled through a decorator-based **registry** (``SYSTEMS``, a
:class:`repro.registry.Registry`): each entry pairs a factory function with
default parameters, so ablations are parameterised registry entries rather
than string special-cases, and downstream code (or users) can add systems
without editing this module::

    from repro.sim.systems import SystemBuildContext, register_system

    @register_system("my_system", description="my custom policy")
    def _build_my_system(ctx: SystemBuildContext) -> SystemSpec:
        return ctx.build(MyPolicy(*ctx.policy_args()))

``make_system`` / ``available_systems`` remain the stable front door used by
the CLI, the benchmarks and :mod:`repro.api`; they resolve every system --
``megatron``, ``fsdp_ep``, ``fastermoe``, ``smartmoe``, ``prophet``,
``flexmoe``, ``laer``, ``oracle`` and the LAER ablations ``laer_pq_only``,
``laer_even_only`` and ``laer_no_comm_opt`` -- through the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import (
    FasterMoEPolicy,
    FlexMoEPolicy,
    LAERPolicy,
    LoadBalancingPolicy,
    OracleBalancedPolicy,
    ProphetPolicy,
    SmartMoEPolicy,
    StaticEPPolicy,
)
from repro.calib.profile import CalibrationProfile
from repro.cluster.memory import MemoryModel
from repro.cluster.topology import ClusterTopology
from repro.core.comm_schedule import CommScheduleConfig
from repro.core.cost_model import MoECostModel
from repro.core.layout_tuner import TunerConfig
from repro.registry import Registry
from repro.sim.iteration import IterationSimulator, OverflowModel
from repro.workloads.model_configs import MoEModelConfig


@dataclass
class SystemSpec:
    """A fully-instantiated training system ready for simulation."""

    name: str
    paradigm: str
    policy: LoadBalancingPolicy
    simulator: IterationSimulator
    tp_size: int = 1
    ep_size: int = 1

    def reset(self) -> None:
        """Reset the policy's adaptive state between runs."""
        self.policy.reset()


def choose_megatron_tp(config: MoEModelConfig, topology: ClusterTopology,
                       tokens_per_device: int) -> int:
    """Pick the smallest attention TP degree that fits in device memory.

    Megatron must enlarge TP when the model states and activations of a
    configuration do not fit (the paper explains this is why it loses to
    FSDP+EP on the larger e8k2 models); the search mirrors that manual tuning.
    """
    memory = MemoryModel(config, topology, activation_checkpointing=False)
    ep_size = max(1, config.num_experts // config.expert_capacity)
    candidates = [tp for tp in (1, 2, 4, 8) if tp <= topology.devices_per_node]
    for tp in candidates:
        dp = max(1, topology.num_devices // tp)
        breakdown = memory.megatron_breakdown(
            tokens_per_device, tp_size=tp, ep_size=ep_size,
            optimizer_sharding_dp=dp)
        if memory.fits(breakdown):
            return tp
    return candidates[-1]


def _laer_tuner_config(variant: str) -> TunerConfig:
    if variant == "pq_only":
        return TunerConfig(num_candidates=1, use_priority_queue=True, use_even=False)
    if variant == "even_only":
        return TunerConfig(num_candidates=1, use_priority_queue=False, use_even=True)
    return TunerConfig(num_candidates=2, use_priority_queue=True, use_even=True)


# ----------------------------------------------------------------------
# System registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SystemBuildContext:
    """Everything a system factory needs to assemble a :class:`SystemSpec`.

    The context carries the experiment inputs (model, cluster, batch size)
    plus convenience helpers so factories stay declarative.

    Attributes:
        name: Registry name the system is being built under (becomes
            ``SystemSpec.name``).
        config: Model configuration (Table 2 entry).
        topology: Cluster topology.
        tokens_per_device: Tokens per device per micro-batch.
        activation_checkpointing: Whether expert recomputation is enabled.
        overflow: Capacity-overflow model handed to every built
            :class:`IterationSimulator` (off by default).
        calibration: Optional fitted machine corrections
            (:class:`repro.calib.profile.CalibrationProfile`).  The
            bandwidth/latency/FLOPs corrections are baked into ``topology``
            already (:func:`make_system` applies them via
            ``apply_to_topology``); the context only threads the per-token
            byte overhead into the cost model and every built simulator.
    """

    name: str
    config: MoEModelConfig
    topology: ClusterTopology
    tokens_per_device: int
    activation_checkpointing: bool = False
    overflow: OverflowModel = field(default_factory=OverflowModel)
    calibration: "CalibrationProfile | None" = None

    # -- derived quantities -------------------------------------------------
    @property
    def num_experts(self) -> int:
        return self.config.num_experts

    @property
    def capacity(self) -> int:
        return self.config.expert_capacity

    @property
    def expert_param_bytes(self) -> float:
        return float(self.config.expert_param_bytes)

    @property
    def ep_size(self) -> int:
        return max(1, self.num_experts // self.capacity)

    def policy_args(self) -> tuple:
        """Positional arguments shared by every load-balancing policy."""
        return (self.topology, self.num_experts, self.capacity,
                self.expert_param_bytes)

    @property
    def comm_bytes_scale(self) -> float:
        """Calibrated per-token byte overhead (1.0 when uncalibrated)."""
        return (self.calibration.comm_bytes_scale
                if self.calibration is not None else 1.0)

    def cost_model(self) -> MoECostModel:
        """Cost model for this (model, cluster, checkpointing) combination."""
        return MoECostModel.from_model_config(
            self.config, self.topology,
            activation_checkpointing=self.activation_checkpointing,
            comm_bytes_scale=self.comm_bytes_scale)

    # -- assembly -----------------------------------------------------------
    def build(self, policy: LoadBalancingPolicy, paradigm: str = "fsep",
              schedule: CommScheduleConfig | None = None, tp_size: int = 1,
              ep_size: int | None = None) -> SystemSpec:
        """Wire a policy and an iteration simulator into a :class:`SystemSpec`."""
        simulator = IterationSimulator(
            config=self.config,
            topology=self.topology,
            tokens_per_device=self.tokens_per_device,
            paradigm=paradigm,
            schedule=schedule if schedule is not None
            else CommScheduleConfig.all_enabled(),
            tp_size=tp_size,
            ep_size=ep_size if ep_size is not None else self.ep_size,
            activation_checkpointing=self.activation_checkpointing,
            overflow=self.overflow,
            comm_bytes_scale=self.comm_bytes_scale,
        )
        return SystemSpec(name=self.name, paradigm=paradigm, policy=policy,
                          simulator=simulator, tp_size=tp_size,
                          ep_size=simulator.ep_size)


#: The system registry; factories take the :class:`SystemBuildContext`.
SYSTEMS = Registry("system", skip=1)
register_system = SYSTEMS.register
register_system_variant = SYSTEMS.register_variant
unregister_system = SYSTEMS.unregister
registered_system = SYSTEMS.get
available_systems = SYSTEMS.names
system_descriptions = SYSTEMS.descriptions


def make_system(name: str, config: MoEModelConfig, topology: ClusterTopology,
                tokens_per_device: int,
                activation_checkpointing: bool = False,
                overflow: OverflowModel = OverflowModel(),
                calibration: "CalibrationProfile | None" = None,
                **overrides: object) -> SystemSpec:
    """Instantiate one of the registered training systems.

    Args:
        name: One of :func:`available_systems` (case-insensitive).
        config: Model configuration (Table 2 entry).
        topology: Cluster topology.
        tokens_per_device: Tokens per device per micro-batch.
        activation_checkpointing: Whether expert recomputation is enabled.
        overflow: Capacity-overflow model of every simulated layer (see
            :class:`repro.sim.iteration.OverflowModel`; off by default).
        calibration: Optional fitted machine corrections, applied here to
            the nominal ``topology`` (bandwidth, latency, FLOPs) and to the
            cost model and simulator (per-token byte overhead).
        **overrides: Per-build overrides of the entry's registered parameters
            (e.g. ``make_system("laer", ..., comm_opt=False)``).

    Returns:
        A :class:`SystemSpec` with the policy and iteration simulator wired up.
    """
    entry = registered_system(name)
    if calibration is not None:
        topology = calibration.apply_to_topology(topology)
    ctx = SystemBuildContext(name=entry.name, config=config, topology=topology,
                             tokens_per_device=tokens_per_device,
                             activation_checkpointing=activation_checkpointing,
                             overflow=overflow, calibration=calibration)
    return entry.build(ctx, **overrides)


# ----------------------------------------------------------------------
# Built-in systems (registration order fixes ``available_systems`` order)
# ----------------------------------------------------------------------
@register_system("megatron",
                 description="Megatron-LM: TP attention + static EP experts")
def _build_megatron(ctx: SystemBuildContext) -> SystemSpec:
    tp_size = choose_megatron_tp(ctx.config, ctx.topology, ctx.tokens_per_device)
    return ctx.build(StaticEPPolicy(*ctx.policy_args()), paradigm="megatron",
                     tp_size=tp_size)


@register_system("fsdp_ep",
                 description="FSDP attention + static expert parallelism")
def _build_fsdp_ep(ctx: SystemBuildContext) -> SystemSpec:
    return ctx.build(StaticEPPolicy(*ctx.policy_args()), paradigm="fsdp_ep")


@register_system("fastermoe",
                 description="FasterMoE: dynamic shadowing of hot experts")
def _build_fastermoe(ctx: SystemBuildContext) -> SystemSpec:
    return ctx.build(FasterMoEPolicy(*ctx.policy_args()), paradigm="fsdp_ep")


@register_system("smartmoe",
                 description="SmartMoE: offline+online expert placement search")
def _build_smartmoe(ctx: SystemBuildContext) -> SystemSpec:
    return ctx.build(SmartMoEPolicy(*ctx.policy_args()), paradigm="fsdp_ep")


@register_system("prophet",
                 description="Prophet: interval-based expert rebalancing")
def _build_prophet(ctx: SystemBuildContext) -> SystemSpec:
    return ctx.build(ProphetPolicy(*ctx.policy_args()), paradigm="fsdp_ep")


@register_system("flexmoe",
                 description="FlexMoE-style replication on the FSEP substrate")
def _build_flexmoe(ctx: SystemBuildContext) -> SystemSpec:
    return ctx.build(FlexMoEPolicy(*ctx.policy_args()))


@register_system("laer", variant="full", comm_opt=True,
                 description="LAER-MoE: FSEP + load-adaptive expert re-layout")
def _build_laer(ctx: SystemBuildContext, variant: str = "full",
                comm_opt: bool = True) -> SystemSpec:
    schedule = (CommScheduleConfig.all_enabled() if comm_opt
                else CommScheduleConfig.none_enabled())
    policy = LAERPolicy(*ctx.policy_args(), ctx.cost_model(),
                        tuner_config=_laer_tuner_config(variant))
    return ctx.build(policy, schedule=schedule)


@register_system("oracle",
                 description="Perfectly balanced oracle (upper bound)")
def _build_oracle(ctx: SystemBuildContext) -> SystemSpec:
    policy = OracleBalancedPolicy(*ctx.policy_args(), ctx.cost_model())
    return ctx.build(policy)


register_system_variant(
    "laer_pq_only", "laer", variant="pq_only",
    description="LAER ablation: priority-queue replica scheme only")
register_system_variant(
    "laer_even_only", "laer", variant="even_only",
    description="LAER ablation: even replica scheme only")
register_system_variant(
    "laer_no_comm_opt", "laer", comm_opt=False,
    description="LAER ablation: Fig. 5 comm scheduling disabled")
register_system_variant(
    "static_ep", "fsdp_ep",
    description="alias of fsdp_ep (static expert parallelism)")
