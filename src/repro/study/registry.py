"""Decorator-based registry of named study definitions.

``STUDIES`` is a :class:`repro.registry.Registry`, the same class as the
system registry (:mod:`repro.sim.systems`) and the scenario registry
(:mod:`repro.workloads.scenarios`): studies are referenced by name from the
CLI (``repro study run sweep-cluster-sizes``), parameter typos are
rejected at build time, and users register their own studies without
editing this module::

    from repro.study import StudyAxes, StudySpec, register_study

    @register_study("my-sweep", description="scenario sweep at 16 GPUs")
    def _build(iterations: int = 8) -> StudySpec:
        ...

The built-in ``sweep-cluster-sizes`` study reproduces the Table 4 axis:
the same workload replayed on growing clusters (weak scaling -- per-device
batch constant), comparing the paper's system against static FSDP+EP.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.specs import ClusterSpec, ExperimentSpec, WorkloadSpec
from repro.registry import Registry
from repro.study.spec import StudyAxes, StudySpec

#: The study registry; factories take only keyword parameters.
STUDIES = Registry("study", skip=0)
register_study = STUDIES.register
unregister_study = STUDIES.unregister
registered_study = STUDIES.get
available_studies = STUDIES.names
study_descriptions = STUDIES.descriptions


def make_study(name: str, **overrides: object) -> StudySpec:
    """Build one of the registered studies (with parameter overrides)."""
    return registered_study(name).build(**overrides)


# ----------------------------------------------------------------------
# Built-in studies
# ----------------------------------------------------------------------
@register_study(
    "sweep-cluster-sizes",
    description="Table 4 axis: weak-scaling systems grid over cluster sizes")
def _build_sweep_cluster_sizes(
        sizes: Sequence[int] = (1, 2, 4, 8),
        devices_per_node: int = 8,
        model: str = "mixtral-8x7b-e8k2",
        systems: Sequence[str] = ("fsdp_ep", "laer"),
        reference: str = "fsdp_ep",
        scenario: str = "drifting",
        tokens_per_device: int = 8192,
        layers: int = 2,
        iterations: int = 6,
        warmup: int = 2,
        skew: float = 0.45,
        seed: int = 51) -> StudySpec:
    """The cluster-size scaling grid of the paper's Table 4 (Appendix D).

    Weak scaling: ``tokens_per_device`` stays constant while ``sizes`` (node
    counts) grow, and every cell replays the statistically identical routing
    distribution (same scenario, same seed), so the systems axis isolates
    how the compared designs react to scale alone.
    """
    base = ExperimentSpec(
        name="tab4",
        cluster=ClusterSpec(num_nodes=int(sizes[0]),
                            devices_per_node=devices_per_node),
        workload=WorkloadSpec(
            model=model,
            tokens_per_device=tokens_per_device,
            layers=layers,
            iterations=iterations,
            warmup=warmup,
            skew=skew,
            seed=seed,
            scenario=scenario,
        ),
        systems=tuple(systems),
        reference=reference,
    )
    return StudySpec(
        name="sweep-cluster-sizes",
        base=base,
        axes=StudyAxes(cluster_sizes=tuple(int(size) for size in sizes)),
        description="systems x cluster-size weak-scaling grid (Table 4)",
    )


@register_study(
    "sweep-scenarios",
    description="systems grid over every registered routing scenario")
def _build_sweep_scenarios(
        scenarios: Sequence[str] = (),
        num_nodes: int = 2,
        devices_per_node: int = 8,
        model: str = "mixtral-8x7b-e8k2",
        systems: Sequence[str] = ("fsdp_ep", "laer"),
        reference: str = "fsdp_ep",
        tokens_per_device: int = 8192,
        layers: int = 2,
        iterations: int = 8,
        warmup: int = 2,
        seed: int = 17) -> StudySpec:
    """Robustness sweep: the same comparison under every routing regime.

    With no explicit ``scenarios`` the study covers every *directly
    runnable* registry entry (scenarios whose parameters all have defaults,
    which excludes e.g. ``trace-replay`` -- it needs a recording path).
    """
    from repro.workloads.scenarios import default_runnable_scenarios

    if not scenarios:
        scenarios = default_runnable_scenarios()
    base = ExperimentSpec(
        name="scenarios",
        cluster=ClusterSpec(num_nodes=num_nodes,
                            devices_per_node=devices_per_node),
        workload=WorkloadSpec(
            model=model,
            tokens_per_device=tokens_per_device,
            layers=layers,
            iterations=iterations,
            warmup=warmup,
            seed=seed,
        ),
        systems=tuple(systems),
        reference=reference,
    )
    return StudySpec(
        name="sweep-scenarios",
        base=base,
        axes=StudyAxes(scenarios=tuple(scenarios)),
        description="systems x routing-scenario grid",
    )
