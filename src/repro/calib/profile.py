"""The frozen calibration profile applied to topologies and cost models.

A :class:`CalibrationProfile` is the *output* of :mod:`repro.calib.fit`: a
small set of multiplicative corrections (and fitted latency intercepts) that
map the nominal machine description -- the paper's NVLink/InfiniBand figures
and the device spec's ``effective_flops`` -- onto a measured machine.  It is
deliberately tiny and JSON-round-tripping so specs can embed it, stores can
hash it, and CI can diff it.

Identity semantics matter: ``to_dict`` emits only the fields that differ
from the identity profile, and :class:`repro.api.ExperimentSpec` serializes
the ``calibration`` field only when one is set.  Run ids and spec
fingerprints are content hashes of the spec dict, so an uncalibrated spec
keeps exactly the run id it had before this module existed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.cluster.topology import ClusterTopology


@dataclass(frozen=True)
class CalibrationProfile:
    """Multiplicative corrections fitted to measured observations.

    Attributes:
        intra_node_bandwidth_scale: Multiplier on the nominal intra-node
            bandwidth (1.0 = nominal).
        inter_node_bandwidth_scale: Multiplier on the nominal inter-node
            bandwidth.
        intra_node_latency_s: Fitted absolute intra-node message latency in
            seconds; ``None`` keeps the topology's nominal latency.
        inter_node_latency_s: Fitted absolute inter-node message latency.
        flops_scale: Multiplier on the device spec's sustained FLOP/s
            (``effective_flops``); captures the measured compute efficiency.
        comm_bytes_scale: Multiplier on ``comm_bytes_per_token`` (protocol
            and framing overhead beyond the raw hidden-vector bytes).
        source: Free-form provenance string (e.g. ``"synthetic:seed=7"`` or
            the observations directory a fit consumed).
    """

    intra_node_bandwidth_scale: float = 1.0
    inter_node_bandwidth_scale: float = 1.0
    intra_node_latency_s: Optional[float] = None
    inter_node_latency_s: Optional[float] = None
    flops_scale: float = 1.0
    comm_bytes_scale: float = 1.0
    source: str = ""

    def __post_init__(self) -> None:
        for name in ("intra_node_bandwidth_scale", "inter_node_bandwidth_scale",
                     "flops_scale", "comm_bytes_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("intra_node_latency_s", "inter_node_latency_s"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")

    # ------------------------------------------------------------------
    @classmethod
    def identity(cls) -> "CalibrationProfile":
        """The profile that leaves every model parameter unchanged."""
        return cls()

    @property
    def profile_id(self) -> str:
        """Content hash of the corrections (stable across field ordering).

        ``source`` is provenance, not identity: the same fitted numbers
        from two measurement campaigns are the same profile.
        """
        data = {key: value for key, value in self.to_dict().items()
                if key != "source"}
        payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply_to_topology(self, topology: ClusterTopology) -> ClusterTopology:
        """Return a new topology with the fitted machine parameters.

        Bandwidths are scaled, fitted latencies replace the nominal ones and
        the device spec's compute throughput is scaled by ``flops_scale``
        (so the iteration simulator's compute and All-to-All terms are
        calibrated automatically).  The input topology is not mutated.
        """
        device_spec = topology.device_spec
        if self.flops_scale != 1.0:
            device_spec = device_spec.scaled(
                self.flops_scale, name=f"{device_spec.name}-calibrated")
        return ClusterTopology(
            num_nodes=topology.num_nodes,
            devices_per_node=topology.devices_per_node,
            intra_node_bandwidth=(topology.intra_node_bandwidth
                                  * self.intra_node_bandwidth_scale),
            inter_node_bandwidth=(topology.inter_node_bandwidth
                                  * self.inter_node_bandwidth_scale),
            intra_node_latency=(self.intra_node_latency_s
                                if self.intra_node_latency_s is not None
                                else topology.intra_node_latency),
            inter_node_latency=(self.inter_node_latency_s
                                if self.inter_node_latency_s is not None
                                else topology.inter_node_latency),
            device_spec=device_spec,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Serialize, emitting only fields that differ from the identity.

        Keeping the dict minimal makes ``profile_id`` (and any spec
        fingerprint embedding it) stable when new correction fields are
        added later with identity defaults.
        """
        identity = _IDENTITY_DICT
        data: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if value != identity[spec_field.name]:
                data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CalibrationProfile":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown CalibrationProfile field(s) {unknown}; "
                f"known: {sorted(known)}")
        return cls(**dict(data))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationProfile":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CalibrationProfile":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable one-line summary (used by the CLI)."""
        parts = [f"intra_bw x{self.intra_node_bandwidth_scale:.4g}",
                 f"inter_bw x{self.inter_node_bandwidth_scale:.4g}",
                 f"flops x{self.flops_scale:.4g}",
                 f"comm_bytes x{self.comm_bytes_scale:.4g}"]
        if self.intra_node_latency_s is not None:
            parts.append(f"intra_lat {self.intra_node_latency_s:.3g}s")
        if self.inter_node_latency_s is not None:
            parts.append(f"inter_lat {self.inter_node_latency_s:.3g}s")
        return f"profile {self.profile_id}: " + ", ".join(parts)


_IDENTITY_DICT = {
    "intra_node_bandwidth_scale": 1.0,
    "inter_node_bandwidth_scale": 1.0,
    "intra_node_latency_s": None,
    "inter_node_latency_s": None,
    "flops_scale": 1.0,
    "comm_bytes_scale": 1.0,
    "source": "",
}
