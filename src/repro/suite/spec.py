"""Versioned scenario-suite specifications.

A :class:`SuiteSpec` is a frozen, JSON-serializable description of a
*benchmark suite*: a named, versioned list of member scenarios with pinned
parameters and seeds, sharing one model/cluster-budget envelope.  Like
:class:`repro.api.ExperimentSpec`, suites round-trip losslessly through
``to_dict``/``from_dict`` and are identified by a content hash
(:attr:`SuiteSpec.suite_id`), so a suite version names exactly one set of
workloads forever.

Members graduate into a suite through :meth:`SuiteSpec.with_member` (used by
the adversarial searcher), which appends the member and bumps the version --
published versions are never mutated in place.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.api.specs import WorkloadSpec, _check_fields
from repro.workloads.model_configs import list_model_configs
from repro.workloads.scenarios import registered_scenario


def _slug(name: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")
    return slug or "suite"


@dataclass(frozen=True)
class SuiteMember:
    """One suite member: a scenario with pinned parameters and seed.

    Attributes:
        name: Member name, unique within the suite (used in reports).
        scenario: Registered scenario name
            (:func:`repro.workloads.scenarios.available_scenarios`).
        params: Scenario-specific keyword parameters (JSON-safe; unknown
            names are rejected at construction time).
        seed: PRNG seed pinned for this member.
        skew: Dirichlet concentration override; ``None`` keeps the
            :class:`~repro.api.WorkloadSpec` default.
        drift: Popularity-drift override; ``None`` keeps the default.
        description: One-line summary for reports.
    """

    name: str
    scenario: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    skew: Optional[float] = None
    drift: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("member name must be non-empty")
        object.__setattr__(self, "params", dict(self.params))
        entry = registered_scenario(self.scenario)
        object.__setattr__(self, "scenario", entry.name)
        entry.check_params(self.params)
        if self.skew is not None and self.skew <= 0:
            raise ValueError("skew must be positive")
        if self.drift is not None and self.drift < 0:
            raise ValueError("drift must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "scenario": self.scenario,
                                "params": dict(self.params), "seed": self.seed}
        if self.skew is not None:
            data["skew"] = self.skew
        if self.drift is not None:
            data["drift"] = self.drift
        if self.description:
            data["description"] = self.description
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SuiteMember":
        _check_fields(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class SuiteSpec:
    """A versioned, content-hashed scenario suite.

    Attributes:
        name: Suite name (used in suite ids, store tags and reports).
        version: Monotonic version; bumped whenever a member graduates.
        description: One-line summary.
        model: Table 2 model-configuration name shared by all members.
        tokens_per_device: Tokens per device per micro-batch.
        layers: MoE layers carried by each member's trace.
        iterations: Measured iterations per member.
        warmup: Leading iterations excluded from statistics.
        members: The member scenarios, in admission order.
    """

    name: str = "default"
    version: int = 1
    description: str = ""
    model: str = "mixtral-8x7b-e8k2"
    tokens_per_device: int = 4096
    layers: int = 2
    iterations: int = 8
    warmup: int = 2
    members: Tuple[SuiteMember, ...] = ()

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ValueError("version must be at least 1")
        if self.model not in list_model_configs():
            raise ValueError(
                f"unknown model {self.model!r}; known: {list_model_configs()}")
        if self.tokens_per_device <= 0 or self.layers <= 0 or self.iterations <= 0:
            raise ValueError(
                "tokens_per_device, layers and iterations must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        members = tuple(m if isinstance(m, SuiteMember)
                        else SuiteMember.from_dict(m) for m in self.members)
        if not members:
            raise ValueError("a suite needs at least one member")
        names = [m.name for m in members]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(f"duplicate member name(s) {duplicates}")
        object.__setattr__(self, "members", members)

    # ------------------------------------------------------------------
    @property
    def suite_id(self) -> str:
        """Content-hashed identity: ``<slug>-v<version>-<digest12>``."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
        return f"{_slug(self.name)}-v{self.version}-{digest}"

    def member(self, name: str) -> SuiteMember:
        for m in self.members:
            if m.name == name:
                return m
        raise KeyError(f"no member {name!r} in suite {self.name!r}")

    def member_workload(self, member: SuiteMember) -> WorkloadSpec:
        """The member's workload under the suite's shared envelope."""
        kwargs: Dict[str, Any] = dict(
            model=self.model,
            tokens_per_device=self.tokens_per_device,
            layers=self.layers,
            iterations=self.iterations,
            warmup=self.warmup,
            seed=member.seed,
            scenario=member.scenario,
            params=dict(member.params),
        )
        if member.skew is not None:
            kwargs["skew"] = member.skew
        if member.drift is not None:
            kwargs["drift"] = member.drift
        return WorkloadSpec(**kwargs)

    def with_member(self, member: SuiteMember) -> "SuiteSpec":
        """Graduate ``member`` into a new suite version."""
        return replace(self, members=self.members + (member,),
                       version=self.version + 1)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "version": self.version,
            "description": self.description,
            "model": self.model,
            "tokens_per_device": self.tokens_per_device,
            "layers": self.layers,
            "iterations": self.iterations,
            "warmup": self.warmup,
            "members": [m.to_dict() for m in self.members],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SuiteSpec":
        _check_fields(cls, data)
        kwargs: Dict[str, Any] = dict(data)
        if "members" in kwargs:
            kwargs["members"] = tuple(SuiteMember.from_dict(m)
                                      for m in kwargs["members"])
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SuiteSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SuiteSpec":
        return cls.from_json(Path(path).read_text())


def default_suite() -> SuiteSpec:
    """The checked-in ``default-v1`` suite: one member per workload regime.

    Members were chosen to spread across the characterization metric space
    (see ``repro suite characterize``): stationary balanced and skewed
    popularity, smooth drift, abrupt churn, periodic oscillation, regime
    switches, device failures and tenant mixes.
    """
    return SuiteSpec(
        name="default",
        version=1,
        description="curated default suite spanning the workload regimes",
        members=(
            SuiteMember(
                name="steady-balanced", scenario="steady", seed=11, skew=2.5,
                description="near-uniform stationary popularity"),
            SuiteMember(
                name="steady-skewed", scenario="steady", seed=12, skew=0.2,
                description="heavily skewed stationary popularity"),
            SuiteMember(
                name="drifting", scenario="drifting", seed=13,
                description="random-walk popularity drift"),
            SuiteMember(
                name="bursty-churn", scenario="bursty-churn", seed=14,
                params={"period": 8, "burst_length": 2},
                description="calm phases punctuated by hotspot churn"),
            SuiteMember(
                name="diurnal", scenario="diurnal", seed=15,
                params={"period": 8},
                description="day/night popularity oscillation"),
            SuiteMember(
                name="phase-shift", scenario="phase-shift", seed=16,
                params={"phase_length": 4},
                description="piecewise-stationary regime switches"),
            SuiteMember(
                name="straggler", scenario="straggler", seed=17,
                params={"period": 4, "duration": 1, "num_failed": 1},
                description="recurring device failures"),
            SuiteMember(
                name="tenant-mix", scenario="multi-tenant-mix", seed=18,
                params={"tenants": 2},
                description="two tenants with different skews"),
        ),
    )
