"""Declarative, JSON-serializable experiment specifications.

An :class:`ExperimentSpec` captures everything needed to reproduce one
comparison experiment -- the cluster, the workload (model + synthetic routing
trace), the systems to simulate and the speedup reference -- as frozen
dataclasses that round-trip losslessly through ``to_dict`` / ``from_dict``
(and therefore through JSON files on disk).

The specs are purely declarative: they name a model configuration from
:mod:`repro.workloads.model_configs` and systems from the
:mod:`repro.sim.systems` registry, and hold the numeric knobs of the
synthetic routing scenarios.  :class:`repro.api.runner.ExperimentRunner`
materialises them into topologies, traces and simulated systems.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.calib.profile import CalibrationProfile
from repro.cluster.topology import (
    DEFAULT_INTER_NODE_BANDWIDTH,
    DEFAULT_INTER_NODE_LATENCY,
    DEFAULT_INTRA_NODE_BANDWIDTH,
    DEFAULT_INTRA_NODE_LATENCY,
    ClusterTopology,
)
from repro.sim.iteration import OverflowModel
from repro.sim.systems import registered_system
from repro.workloads.model_configs import (
    MoEModelConfig,
    get_model_config,
    list_model_configs,
)
from repro.workloads.routing_traces import RoutingTrace
from repro.workloads.scenarios import (
    ScenarioContext,
    TraceSource,
    make_scenario,
    registered_scenario,
)


def _check_fields(cls: type, data: Mapping[str, Any]) -> None:
    """Reject unknown keys so typos in spec files fail loudly."""
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s) {unknown}; known: {sorted(known)}")


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of the simulated cluster.

    Attributes:
        num_nodes: Number of nodes.
        devices_per_node: Accelerators per node.
        intra_node_bandwidth: Unidirectional intra-node bandwidth in bytes/s
            (defaults to the paper's NVLink figure).
        inter_node_bandwidth: Unidirectional inter-node bandwidth in bytes/s
            (defaults to the paper's InfiniBand figure).
        intra_node_latency: Per-message intra-node latency in seconds.
        inter_node_latency: Per-message inter-node latency in seconds.
    """

    num_nodes: int = 4
    devices_per_node: int = 8
    intra_node_bandwidth: float = DEFAULT_INTRA_NODE_BANDWIDTH
    inter_node_bandwidth: float = DEFAULT_INTER_NODE_BANDWIDTH
    intra_node_latency: float = DEFAULT_INTRA_NODE_LATENCY
    inter_node_latency: float = DEFAULT_INTER_NODE_LATENCY

    def __post_init__(self) -> None:
        if self.num_nodes <= 0 or self.devices_per_node <= 0:
            raise ValueError("num_nodes and devices_per_node must be positive")
        if self.intra_node_bandwidth <= 0 or self.inter_node_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.intra_node_latency < 0 or self.inter_node_latency < 0:
            raise ValueError("latencies must be non-negative")

    @property
    def num_devices(self) -> int:
        return self.num_nodes * self.devices_per_node

    def to_topology(self) -> ClusterTopology:
        """Materialise the spec into a :class:`ClusterTopology`."""
        return ClusterTopology(
            num_nodes=self.num_nodes,
            devices_per_node=self.devices_per_node,
            intra_node_bandwidth=self.intra_node_bandwidth,
            inter_node_bandwidth=self.inter_node_bandwidth,
            intra_node_latency=self.intra_node_latency,
            inter_node_latency=self.inter_node_latency,
        )

    @classmethod
    def from_topology(cls, topology: ClusterTopology) -> "ClusterSpec":
        """Describe an existing :class:`ClusterTopology` as a spec."""
        return cls(
            num_nodes=topology.num_nodes,
            devices_per_node=topology.devices_per_node,
            intra_node_bandwidth=topology.intra_node_bandwidth,
            inter_node_bandwidth=topology.inter_node_bandwidth,
            intra_node_latency=topology.intra_node_latency,
            inter_node_latency=topology.inter_node_latency,
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterSpec":
        _check_fields(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of the workload: model + routing scenario.

    Attributes:
        model: Table 2 model-configuration name
            (:func:`repro.workloads.model_configs.list_model_configs`).
        tokens_per_device: Tokens per device per micro-batch.
        layers: Number of MoE layers carried by the routing trace.
        iterations: Measured training iterations.
        warmup: Extra leading iterations simulated (so adaptive policies build
            history) but excluded from the reported statistics.
        skew: Dirichlet concentration of the expert-popularity distribution.
        drift: Per-iteration random-walk magnitude of the popularity logits.
        churn_prob: Probability per iteration of a hot-expert reshuffle.
        device_noise: Relative per-device multiplicative routing noise.
        seed: PRNG seed of the routing scenario.
        scenario: Name of a registered routing scenario
            (:func:`repro.workloads.scenarios.available_scenarios`); the
            default ``drifting`` reproduces the historical synthetic trace.
        params: Scenario-specific keyword parameters (e.g. ``{"period": 20}``
            for ``bursty-churn``); values must be JSON-safe.  Unknown names
            are rejected at spec-construction time.
    """

    model: str = "mixtral-8x7b-e8k2"
    tokens_per_device: int = 16384
    layers: int = 2
    iterations: int = 10
    warmup: int = 2
    skew: float = 0.45
    drift: float = 0.08
    churn_prob: float = 0.0
    device_noise: float = 0.05
    seed: int = 0
    scenario: str = "drifting"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model not in list_model_configs():
            raise ValueError(
                f"unknown model {self.model!r}; known: {list_model_configs()}")
        if self.tokens_per_device <= 0:
            raise ValueError("tokens_per_device must be positive")
        if self.layers <= 0:
            raise ValueError("layers must be positive")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.skew <= 0:
            raise ValueError("skew must be positive")
        if self.drift < 0 or self.device_noise < 0:
            raise ValueError("drift and device_noise must be non-negative")
        if not 0.0 <= self.churn_prob <= 1.0:
            raise ValueError("churn_prob must be a probability")
        object.__setattr__(self, "params", dict(self.params))
        for key in self.params:
            if not isinstance(key, str):
                raise ValueError("scenario parameter names must be strings")
        # Raises ValueError for unknown scenarios / parameters so spec typos
        # fail at load time, not mid-run.
        entry = registered_scenario(self.scenario)
        object.__setattr__(self, "scenario", entry.name)
        entry.check_params(self.params)

    def model_config(self) -> MoEModelConfig:
        """Look up the model configuration named by the spec."""
        return get_model_config(self.model)

    def scenario_context(self, num_devices: int) -> ScenarioContext:
        """Scenario build context for a cluster of ``num_devices``."""
        config = self.model_config()
        return ScenarioContext(
            num_devices=num_devices,
            num_experts=config.num_experts,
            num_layers=self.layers,
            tokens_per_device=self.tokens_per_device,
            top_k=config.top_k,
            iterations=self.iterations + self.warmup,
            seed=self.seed,
            skew=self.skew,
            drift=self.drift,
            churn_prob=self.churn_prob,
            device_noise=self.device_noise,
        )

    def make_source(self, num_devices: int) -> TraceSource:
        """Build the scenario's streaming trace source (warmup included)."""
        return make_scenario(self.scenario, self.scenario_context(num_devices),
                             **self.params)

    def make_trace(self, num_devices: int) -> RoutingTrace:
        """Materialise the routing trace (warmup + measured iterations)."""
        return self.make_source(num_devices).materialize()

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        _check_fields(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class SystemSpec:
    """Declarative reference to one registered training system.

    Unlike :class:`repro.sim.systems.SystemSpec` (a fully-instantiated
    system), this spec only *names* a registry entry plus per-experiment
    parameter overrides, so it serializes cleanly.

    Attributes:
        name: Registry name (:func:`repro.sim.systems.available_systems`).
        label: Key used for this system in results and reports; defaults to
            ``name``.  Distinct labels let one experiment simulate the same
            system several times with different options.
        options: Keyword overrides of the registry entry's parameters (e.g.
            ``{"comm_opt": False}`` for ``laer``); values must be JSON-safe.
    """

    name: str
    label: Optional[str] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("system name must be non-empty")
        object.__setattr__(self, "name", self.name.lower())
        object.__setattr__(self, "options", dict(self.options))
        for key in self.options:
            if not isinstance(key, str):
                raise ValueError("system option names must be strings")
        # Raises ValueError for unknown names / options so spec typos fail at
        # load time, not mid-run.
        registered_system(self.name).check_params(self.options)

    @property
    def key(self) -> str:
        """The result/report key of this system."""
        return self.label or self.name

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "label": self.label,
                "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, Any]]) -> "SystemSpec":
        if isinstance(data, str):
            return cls(name=data)
        _check_fields(cls, data)
        return cls(**data)


def _default_systems() -> Tuple[SystemSpec, ...]:
    return tuple(SystemSpec(name)
                 for name in ("megatron", "fsdp_ep", "flexmoe", "laer"))


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, reproducible experiment: cluster + workload + systems.

    Attributes:
        name: Human-readable experiment name (used in reports and filenames).
        cluster: Simulated cluster description.
        workload: Model and routing-trace description.
        systems: Systems to simulate; entries may be given as bare registry
            names or mappings when loading from dicts/JSON.
        reference: System key speedups are reported against.  If the key is
            absent from ``systems`` the runner substitutes the first system
            (and records the substitution in the result).
        activation_checkpointing: Whether expert recomputation is enabled.
        overflow_penalty, token_capacity, drop_policy: The capacity-overflow
            knobs, kept flat because they are the JSON schema.  Construction
            derives and validates ``overflow``, one
            :class:`repro.sim.iteration.OverflowModel`, from them; the
            defaults leave the model off and stay out of ``to_dict()``.
        calibration: Optional fitted machine corrections
            (:class:`repro.calib.profile.CalibrationProfile`).  When set,
            the runner applies the profile to the materialised topology and
            threads the per-token byte overhead into every built system, so
            the experiment runs on the *measured* machine instead of the
            nominal one.  Serialized only when set, so uncalibrated specs
            keep their existing content-hashed run ids.
    """

    name: str = "experiment"
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    systems: Tuple[SystemSpec, ...] = field(default_factory=_default_systems)
    reference: str = "megatron"
    activation_checkpointing: bool = False
    overflow_penalty: float = 0.0
    token_capacity: Optional[int] = None
    drop_policy: str = "penalty"
    calibration: Optional[CalibrationProfile] = None

    def __post_init__(self) -> None:
        if self.calibration is not None and not isinstance(
                self.calibration, CalibrationProfile):
            object.__setattr__(self, "calibration",
                               CalibrationProfile.from_dict(self.calibration))
        object.__setattr__(self, "overflow", OverflowModel(
            self.overflow_penalty, self.token_capacity, self.drop_policy))
        systems = tuple(SystemSpec.from_dict(s) if not isinstance(s, SystemSpec)
                        else s for s in self.systems)
        if not systems:
            raise ValueError("an experiment needs at least one system")
        keys = [s.key for s in systems]
        duplicates = sorted({k for k in keys if keys.count(k) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate system label(s) {duplicates}; give each entry a "
                f"unique label")
        object.__setattr__(self, "systems", systems)

    # ------------------------------------------------------------------
    @property
    def system_keys(self) -> Tuple[str, ...]:
        return tuple(s.key for s in self.systems)

    def with_systems(self, names: Sequence[Union[str, SystemSpec]],
                     reference: Optional[str] = None) -> "ExperimentSpec":
        """Derive a spec simulating a different set of systems."""
        systems = tuple(SystemSpec.from_dict(n) if not isinstance(n, SystemSpec)
                        else n for n in names)
        return replace(self, systems=systems,
                       reference=reference or self.reference)

    def with_calibration(
            self, calibration: Optional[CalibrationProfile]) -> "ExperimentSpec":
        """Derive a spec running on a calibrated (or uncalibrated) machine."""
        return replace(self, calibration=calibration)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "cluster": self.cluster.to_dict(),
            "workload": self.workload.to_dict(),
            "systems": [s.to_dict() for s in self.systems],
            "reference": self.reference,
            "activation_checkpointing": self.activation_checkpointing,
        }
        data.update(self.overflow.to_dict())
        if self.calibration is not None:
            data["calibration"] = self.calibration.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        _check_fields(cls, data)
        kwargs: Dict[str, Any] = dict(data)
        if "cluster" in kwargs:
            kwargs["cluster"] = ClusterSpec.from_dict(kwargs["cluster"])
        if "workload" in kwargs:
            kwargs["workload"] = WorkloadSpec.from_dict(kwargs["workload"])
        if "systems" in kwargs:
            kwargs["systems"] = tuple(SystemSpec.from_dict(s)
                                      for s in kwargs["systems"])
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec to a JSON file and return the path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a spec from a JSON file."""
        return cls.from_json(Path(path).read_text())
