"""Microbenchmark schedules and observation sets for calibration.

Real deployments measure pairwise transfers, All-to-All exchanges and dense
compute kernels on the target cluster; this module reproduces that loop
*inside* the simulator by running the same seeded microbenchmark schedule
against a **hidden machine** -- a :class:`CalibrationProfile` drawn from a
seed (:func:`draw_machine`) and applied to the nominal topology -- so the
fit in :mod:`repro.calib.fit` can be validated end to end: it must recover
the hidden machine from observations alone.

Calibration holds no price of its own.  Transfers and kernels are timed by
the topology's alpha-beta ``p2p_time`` and the device's ``effective_flops``,
and a uniform All-to-All by :func:`uniform_all_to_all_seconds`, which is
``TOKEN_ALL_TO_ALLS`` times the simulator's All-to-All kernel
(:meth:`~repro.cluster.collectives.CollectiveCostModel.uniform_all_to_all`),
with ``comm_bytes_scale`` passed as the kernel's ``scale`` exactly as the
simulator applies it to token bytes.

External measurements plug into the same path through the CSV formats:

* ``comm.csv`` -- ``link_src,link_dst,bytes,seconds`` rows (one pairwise
  transfer each);
* ``compute.csv`` -- ``device,flops,seconds`` rows (one dense kernel each);
* ``all_to_all.csv`` -- ``tokens_per_device,seconds`` rows (one uniform
  All-to-All each).

``ObservationSet.save``/``load`` round-trip a directory holding those files
plus a ``meta.json`` recording the model and cluster shape the observations
were taken on, and the All-to-All price (:data:`ALL_TO_ALL_PRICE`) a
synthesized set was made with: ``load`` refuses a ``synthetic:`` directory
made with another price.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.calib.profile import CalibrationProfile
from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology, LinkType
from repro.core.comm_schedule import TOKEN_ALL_TO_ALLS
from repro.workloads.model_configs import (
    BYTES_PER_ELEMENT,
    MoEModelConfig,
    get_model_config,
)

_MIB = 1024.0 ** 2

#: The All-to-All price synthetic observations are made with.  A directory
#: synthesized under another price holds times that fit a wrong
#: ``comm_bytes_scale`` at R² 1, so change this whenever
#: :func:`uniform_all_to_all_seconds` prices differently.
ALL_TO_ALL_PRICE = "TOKEN_ALL_TO_ALLS*CollectiveCostModel.uniform_all_to_all"


def draw_machine(seed: int) -> CalibrationProfile:
    """Draw a plausible degraded machine from a seeded distribution.

    Bandwidth efficiencies and MFU land below nominal (links and GEMMs
    rarely beat their spec sheet) while latencies and per-token bytes land
    above (switch hops, protocol framing).  A perfect fit on noise-free
    observations of the machine recovers it.
    """
    rng = np.random.default_rng(seed)
    return CalibrationProfile(
        intra_node_bandwidth_scale=float(rng.uniform(0.55, 0.95)),
        inter_node_bandwidth_scale=float(rng.uniform(0.5, 0.9)),
        intra_node_latency_s=float(rng.uniform(2e-6, 8e-6)),
        inter_node_latency_s=float(rng.uniform(10e-6, 40e-6)),
        flops_scale=float(rng.uniform(0.7, 1.0)),
        comm_bytes_scale=float(rng.uniform(1.0, 1.3)),
        source=f"hidden:seed={seed}",
    )


# ----------------------------------------------------------------------
# Observations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommObservation:
    """One measured pairwise transfer: ``seconds`` to move ``num_bytes``."""

    link_src: int
    link_dst: int
    num_bytes: float
    seconds: float


@dataclass(frozen=True)
class ComputeObservation:
    """One measured dense kernel: ``seconds`` to execute ``flops``."""

    device: int
    flops: float
    seconds: float


@dataclass(frozen=True)
class AllToAllObservation:
    """One measured uniform All-to-All at ``tokens_per_device`` tokens."""

    tokens_per_device: int
    seconds: float


@dataclass
class ObservationSet:
    """Everything one calibration run measured, plus its provenance.

    Attributes:
        comm: Pairwise-transfer observations.
        compute: Dense-kernel observations.
        all_to_all: Uniform All-to-All observations (used to fit the
            per-token byte overhead once bandwidths are calibrated).
        model: Table 2 model-configuration name the All-to-All schedule
            used (fixes ``hidden_size``).
        num_nodes: Cluster shape the observations were taken on.
        devices_per_node: Cluster shape the observations were taken on.
        source: Free-form provenance (seed, directory, hostname...).
    """

    comm: List[CommObservation] = field(default_factory=list)
    compute: List[ComputeObservation] = field(default_factory=list)
    all_to_all: List[AllToAllObservation] = field(default_factory=list)
    model: str = "mixtral-8x7b-e8k2"
    num_nodes: int = 4
    devices_per_node: int = 8
    source: str = ""

    # ------------------------------------------------------------------
    def base_topology(self) -> ClusterTopology:
        """The *nominal* topology of the measured cluster shape."""
        return ClusterTopology(num_nodes=self.num_nodes,
                               devices_per_node=self.devices_per_node)

    def model_config(self) -> MoEModelConfig:
        return get_model_config(self.model)

    def counts(self) -> Dict[str, int]:
        return {"comm": len(self.comm), "compute": len(self.compute),
                "all_to_all": len(self.all_to_all)}

    # ------------------------------------------------------------------
    # Directory round-trip (CSV + meta.json)
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> Path:
        """Write ``comm.csv``/``compute.csv``/``all_to_all.csv`` + meta."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with (directory / "comm.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["link_src", "link_dst", "bytes", "seconds"])
            for obs in self.comm:
                writer.writerow([obs.link_src, obs.link_dst,
                                 repr(obs.num_bytes), repr(obs.seconds)])
        with (directory / "compute.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["device", "flops", "seconds"])
            for obs in self.compute:
                writer.writerow([obs.device, repr(obs.flops),
                                 repr(obs.seconds)])
        with (directory / "all_to_all.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["tokens_per_device", "seconds"])
            for obs in self.all_to_all:
                writer.writerow([obs.tokens_per_device, repr(obs.seconds)])
        meta = {"model": self.model, "num_nodes": self.num_nodes,
                "devices_per_node": self.devices_per_node,
                "source": self.source, "all_to_all_price": ALL_TO_ALL_PRICE}
        (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        return directory

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "ObservationSet":
        """Load an observation directory written by :meth:`save`.

        External observations work too: only the CSV files that exist are
        read, and a missing ``meta.json`` falls back to the defaults (pass
        the real cluster shape by editing ``meta.json``).

        Raises:
            ValueError: When the directory was synthesized (its source
                starts with ``synthetic:``) under an All-to-All price other
                than :data:`ALL_TO_ALL_PRICE`.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"no observation directory {directory}")
        meta: Dict[str, object] = {}
        meta_path = directory / "meta.json"
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
        if (str(meta.get("source", "")).startswith("synthetic:")
                and meta.get("all_to_all_price") != ALL_TO_ALL_PRICE):
            raise ValueError(
                f"{directory} was synthesized under an older All-to-All "
                f"price; run `repro calib measure` again to re-synthesize it")
        obs = cls(model=str(meta.get("model", cls.model)),
                  num_nodes=int(meta.get("num_nodes", cls.num_nodes)),
                  devices_per_node=int(meta.get("devices_per_node",
                                                cls.devices_per_node)),
                  source=str(meta.get("source", str(directory))))
        comm_path = directory / "comm.csv"
        if comm_path.exists():
            for row in _read_csv(comm_path,
                                 ("link_src", "link_dst", "bytes", "seconds")):
                obs.comm.append(CommObservation(
                    link_src=int(row["link_src"]),
                    link_dst=int(row["link_dst"]),
                    num_bytes=float(row["bytes"]),
                    seconds=float(row["seconds"])))
        compute_path = directory / "compute.csv"
        if compute_path.exists():
            for row in _read_csv(compute_path, ("device", "flops", "seconds")):
                obs.compute.append(ComputeObservation(
                    device=int(row["device"]),
                    flops=float(row["flops"]),
                    seconds=float(row["seconds"])))
        a2a_path = directory / "all_to_all.csv"
        if a2a_path.exists():
            for row in _read_csv(a2a_path, ("tokens_per_device", "seconds")):
                obs.all_to_all.append(AllToAllObservation(
                    tokens_per_device=int(row["tokens_per_device"]),
                    seconds=float(row["seconds"])))
        if not (obs.comm or obs.compute or obs.all_to_all):
            raise ValueError(f"no observations found under {directory}")
        return obs


def _read_csv(path: Path, columns: Tuple[str, ...]) -> List[Dict[str, str]]:
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(columns) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(
                f"{path.name} is missing column(s) {sorted(missing)}; "
                f"expected header {','.join(columns)}")
        return [dict(row) for row in reader]


# ----------------------------------------------------------------------
# The microbenchmark schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeasureConfig:
    """Shape of the seeded microbenchmark schedule.

    Attributes:
        transfer_sizes: Message sizes (bytes) of the pairwise transfers;
            at least two distinct sizes are needed to separate the latency
            intercept from the bandwidth slope.
        compute_flops: Kernel sizes (FLOPs) of the per-device compute runs;
            at least two distinct sizes, like every size list here: a term
            measured at one size has nothing for R² to explain.
        all_to_all_tokens: Per-device token counts of the uniform
            All-to-All exchanges; at least two distinct counts.
        pairs_per_link_type: Pairwise transfers sampled per link type and
            size.
        noise: Relative (multiplicative, Gaussian) measurement noise; 0
            produces exact observations the fit must recover exactly.
        model: Table 2 model name fixing the All-to-All hidden size.
    """

    transfer_sizes: Tuple[float, ...] = (1 * _MIB, 8 * _MIB,
                                         64 * _MIB, 256 * _MIB)
    compute_flops: Tuple[float, ...] = (1e12, 4e12, 16e12)
    all_to_all_tokens: Tuple[int, ...] = (4096, 16384)
    pairs_per_link_type: int = 4
    noise: float = 0.0
    model: str = "mixtral-8x7b-e8k2"

    def __post_init__(self) -> None:
        for name in ("transfer_sizes", "compute_flops", "all_to_all_tokens"):
            sizes = getattr(self, name)
            if len(set(sizes)) < 2:
                raise ValueError(f"{name} needs at least two distinct sizes")
            if any(size <= 0 for size in sizes):
                raise ValueError(f"{name} must be positive")
        if self.pairs_per_link_type < 1:
            raise ValueError("pairs_per_link_type must be at least 1")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")

    @classmethod
    def tiny(cls, model: str = "mixtral-8x7b-e8k2") -> "MeasureConfig":
        """A minimal schedule for smoke tests and CI."""
        return cls(transfer_sizes=(1 * _MIB, 16 * _MIB),
                   compute_flops=(1e12, 8e12),
                   all_to_all_tokens=(2048, 8192),
                   pairs_per_link_type=2,
                   model=model)


def _sample_pairs(topology: ClusterTopology, kind: LinkType, count: int,
                  rng: np.random.Generator) -> List[Tuple[int, int]]:
    """Sample ``count`` distinct-ish (src, dst) pairs of the given link type."""
    pairs: List[Tuple[int, int]] = []
    n = topology.num_devices
    if kind is LinkType.INTRA_NODE and topology.devices_per_node < 2:
        return pairs
    if kind is LinkType.INTER_NODE and topology.num_nodes < 2:
        return pairs
    attempts = 0
    while len(pairs) < count and attempts < 64 * count:
        attempts += 1
        src = int(rng.integers(n))
        dst = int(rng.integers(n))
        if src == dst or topology.link_type(src, dst) is not kind:
            continue
        pairs.append((src, dst))
    return pairs


def _noisy(seconds: float, noise: float, rng: np.random.Generator) -> float:
    if noise <= 0:
        return seconds
    factor = max(1e-3, 1.0 + noise * float(rng.standard_normal()))
    return seconds * factor


def uniform_all_to_all_seconds(topology: ClusterTopology,
                               config: MoEModelConfig,
                               tokens_per_device: int,
                               scale: float = 1.0) -> float:
    """Time of one iteration's token All-to-Alls under uniform routing.

    Every device scatters ``tokens_per_device`` hidden vectors evenly over
    all devices, and an iteration runs ``TOKEN_ALL_TO_ALLS`` such exchanges
    per layer, each priced by the simulator's kernel with ``scale`` (the
    ``comm_bytes_scale``) multiplying the token bytes.  Used both to
    *generate* synthetic observations (on the hidden topology at the hidden
    scale) and to *predict* them during fitting (on the calibrated
    topology).
    """
    bytes_per_pair = (tokens_per_device / topology.num_devices
                      * config.hidden_size * BYTES_PER_ELEMENT)
    return TOKEN_ALL_TO_ALLS * CollectiveCostModel(topology).uniform_all_to_all(
        bytes_per_pair, scale=scale)


def run_microbenchmarks(base_topology: ClusterTopology,
                        machine: CalibrationProfile,
                        config: Optional[MeasureConfig] = None,
                        seed: int = 0) -> ObservationSet:
    """Run the seeded microbenchmark schedule against a hidden machine.

    Args:
        base_topology: The *nominal* cluster description (what the operator
            believes the machine is).
        machine: The hidden machine the measurements actually see, as the
            profile that maps ``base_topology`` onto it.
        config: Schedule shape (sizes, counts, noise).
        seed: PRNG seed for pair sampling and measurement noise.

    Returns:
        An :class:`ObservationSet` whose seconds come from the hidden
        machine -- the fit's job is to recover ``machine`` from it.
    """
    config = config or MeasureConfig()
    rng = np.random.default_rng(seed)
    true_topology = machine.apply_to_topology(base_topology)
    model_config = get_model_config(config.model)
    obs = ObservationSet(model=config.model,
                         num_nodes=base_topology.num_nodes,
                         devices_per_node=base_topology.devices_per_node,
                         source=f"synthetic:seed={seed}")

    # Pairwise transfers: alpha-beta observations per link type.
    for kind in (LinkType.INTRA_NODE, LinkType.INTER_NODE):
        pairs = _sample_pairs(base_topology, kind,
                              config.pairs_per_link_type, rng)
        for src, dst in pairs:
            for size in config.transfer_sizes:
                seconds = true_topology.p2p_time(src, dst, size)
                obs.comm.append(CommObservation(
                    link_src=src, link_dst=dst, num_bytes=float(size),
                    seconds=_noisy(seconds, config.noise, rng)))

    # Dense kernels: per-device sustained-FLOPs observations.
    for device in base_topology.devices():
        for flops in config.compute_flops:
            seconds = flops / true_topology.device_spec.effective_flops
            obs.compute.append(ComputeObservation(
                device=int(device), flops=float(flops),
                seconds=_noisy(seconds, config.noise, rng)))

    # Uniform All-to-All exchanges: per-token byte overhead observations.
    for tokens in config.all_to_all_tokens:
        seconds = uniform_all_to_all_seconds(
            true_topology, model_config, tokens,
            scale=machine.comm_bytes_scale)
        obs.all_to_all.append(AllToAllObservation(
            tokens_per_device=int(tokens),
            seconds=_noisy(seconds, config.noise, rng)))
    return obs
