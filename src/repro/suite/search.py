"""Adversarial scenario search: hunt worst cases for a target system.

The searcher perturbs scenario parameters (seeded, budgeted random-restart
hill climbing -- pure stdlib + numpy) to maximize a target system's **regret
vs the oracle baseline**::

    regret = oracle_throughput / target_throughput - 1

Every evaluated candidate becomes an :class:`~repro.api.ExperimentSpec` whose
result is persisted to a :class:`~repro.store.ResultStore` under
deterministic, search-scoped tags.  Because run ids are content hashes of
the spec, a resumed (or re-run) search finds its previous evaluations in the
store and re-simulates nothing -- searches are restartable, auditable and
bit-reproducible for a fixed seed.

Winners graduate into the suite via :func:`graduate`
(:meth:`SuiteSpec.with_member` bumps the version).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api.runner import ExperimentRunner
from repro.api.specs import ClusterSpec, ExperimentSpec, WorkloadSpec
from repro.store import ResultStore, run_id_for
from repro.suite.spec import SuiteMember, SuiteSpec, _slug

#: Scenario parameters the hill climber never perturbs (structural knobs).
_FROZEN_PARAMS = frozenset({"path", "base", "base_params", "wrappers"})

#: Hard bounds on the continuous workload knobs.
_SKEW_BOUNDS = (0.02, 5.0)
_DRIFT_BOUNDS = (0.0, 0.6)


@dataclass(frozen=True)
class Candidate:
    """One point in the search space: scenario + params + workload knobs."""

    scenario: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    skew: float = 0.45
    drift: float = 0.08

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    def key(self) -> str:
        """Canonical JSON identity (used for de-duplication)."""
        return json.dumps({
            "scenario": self.scenario, "params": self.params,
            "seed": self.seed, "skew": self.skew, "drift": self.drift,
        }, sort_keys=True, separators=(",", ":"))

    def as_member(self, name: str, description: str = "") -> SuiteMember:
        return SuiteMember(name=name, scenario=self.scenario,
                           params=dict(self.params), seed=self.seed,
                           skew=self.skew, drift=self.drift,
                           description=description)


@dataclass(frozen=True)
class Evaluation:
    """One evaluated candidate: its run id, regret and cache provenance."""

    candidate: Candidate
    run_id: str
    regret: float
    cached: bool


@dataclass
class SearchResult:
    """Outcome of an adversarial search."""

    suite_id: str
    target: str
    seed: int
    budget: int
    evaluations: List[Evaluation] = field(default_factory=list)
    member_regrets: Dict[str, float] = field(default_factory=dict)
    winner: Optional[Evaluation] = None

    @property
    def simulated(self) -> int:
        return sum(1 for e in self.evaluations if not e.cached)

    @property
    def cached(self) -> int:
        return sum(1 for e in self.evaluations if e.cached)

    @property
    def max_member_regret(self) -> float:
        return max(self.member_regrets.values(), default=float("-inf"))

    def summary(self) -> str:
        lines = [
            f"suite {self.suite_id}: adversarial search vs {self.target!r} "
            f"(seed {self.seed}, budget {self.budget})",
            f"evaluated {len(self.evaluations)} candidates: "
            f"simulated {self.simulated}, cached {self.cached}",
        ]
        for name, regret in sorted(self.member_regrets.items(),
                                   key=lambda item: -item[1]):
            lines.append(f"  member {name}: regret {regret:.4f}")
        if self.winner is not None:
            c = self.winner.candidate
            lines.append(
                f"winner: scenario {c.scenario!r} params {c.params} "
                f"seed {c.seed} skew {c.skew:.4f} drift {c.drift:.4f}")
            lines.append(f"winner regret {self.winner.regret:.4f} "
                         f"(best member {self.max_member_regret:.4f}), "
                         f"run {self.winner.run_id}")
        return "\n".join(lines)


def search_tags(suite: SuiteSpec, target: str) -> Tuple[str, ...]:
    """Deterministic store tags scoping one (suite version, target) search."""
    return (f"suite-search:{_slug(suite.name)}-v{suite.version}",
            f"target:{target}")


def candidate_spec(candidate: Candidate, suite: SuiteSpec, target: str,
                   cluster: ClusterSpec) -> ExperimentSpec:
    """The experiment evaluating ``candidate``: target vs oracle."""
    workload = WorkloadSpec(
        model=suite.model,
        tokens_per_device=suite.tokens_per_device,
        layers=suite.layers,
        iterations=suite.iterations,
        warmup=suite.warmup,
        skew=candidate.skew,
        drift=candidate.drift,
        seed=candidate.seed,
        scenario=candidate.scenario,
        params=dict(candidate.params),
    )
    return ExperimentSpec(
        name=f"suite-search/{_slug(suite.name)}-v{suite.version}/{target}",
        cluster=cluster,
        workload=workload,
        systems=(target, "oracle"),
        reference="oracle",
    )


def _regret(result: Any, target: str) -> float:
    oracle = result.systems["oracle"].throughput
    observed = result.systems[target].throughput
    if observed <= 0:
        return float("inf")
    return oracle / observed - 1.0


def member_candidate(member: SuiteMember, suite: SuiteSpec) -> Candidate:
    """A member's point in the search space (suite defaults filled in)."""
    workload = suite.member_workload(member)
    return Candidate(scenario=member.scenario, params=dict(member.params),
                     seed=member.seed, skew=workload.skew,
                     drift=workload.drift)


def _perturb(candidate: Candidate, rng: np.random.Generator,
             suite: SuiteSpec) -> Candidate:
    """One random move: change a single knob of the candidate."""
    knobs: List[str] = ["skew", "drift", "seed"]
    tunable = [k for k in candidate.params
               if k not in _FROZEN_PARAMS
               and isinstance(candidate.params[k], (int, float))
               and not isinstance(candidate.params[k], bool)]
    knobs.extend(tunable)
    knob = knobs[int(rng.integers(len(knobs)))]
    if knob == "skew":
        value = candidate.skew * math.exp(float(rng.normal(0.0, 0.5)))
        return replace(candidate, skew=min(max(value, _SKEW_BOUNDS[0]),
                                           _SKEW_BOUNDS[1]))
    if knob == "drift":
        value = candidate.drift + float(rng.normal(0.0, 0.05))
        return replace(candidate, drift=min(max(value, _DRIFT_BOUNDS[0]),
                                            _DRIFT_BOUNDS[1]))
    if knob == "seed":
        return replace(candidate, seed=int(rng.integers(1_000_000)))
    params = dict(candidate.params)
    value = params[knob]
    if isinstance(value, int):
        step = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
        params[knob] = max(1, value + step)
    else:
        params[knob] = float(value) * math.exp(float(rng.normal(0.0, 0.3)))
    return replace(candidate, params=params)


def adversarial_search(
        suite: SuiteSpec, target: str, store: ResultStore, *,
        budget: int, seed: int = 0,
        cluster: Optional[ClusterSpec] = None,
        patience: int = 4,
        progress: Optional[Callable[[str], None]] = None) -> SearchResult:
    """Budgeted random-restart hill climbing over the suite's scenarios.

    Phase 1 evaluates every suite member (establishing the regret baseline
    the acceptance bar compares against); phase 2 hill-climbs from the worst
    member, restarting from a random member after ``patience`` non-improving
    steps.  ``budget`` counts *evaluations* (cached or simulated), so a
    resumed search walks the identical deterministic trajectory while
    re-simulating nothing that is already stored.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    cluster = cluster or ClusterSpec(num_nodes=1, devices_per_node=8)
    rng = np.random.default_rng(seed)
    tags = search_tags(suite, target)
    runner = ExperimentRunner()
    say = progress or (lambda message: None)

    result = SearchResult(suite_id=suite.suite_id, target=target, seed=seed,
                          budget=budget)
    seen: Dict[str, Evaluation] = {}

    def evaluate(candidate: Candidate) -> Evaluation:
        spec = candidate_spec(candidate, suite, target, cluster)
        run_id = run_id_for(spec, tags)
        if run_id in store:
            evaluation = Evaluation(candidate=candidate, run_id=run_id,
                                    regret=_regret(store.get_result(run_id),
                                                   target),
                                    cached=True)
        else:
            outcome = runner.run(spec)
            store.put(outcome, tags=tags)
            evaluation = Evaluation(candidate=candidate, run_id=run_id,
                                    regret=_regret(outcome, target),
                                    cached=False)
        result.evaluations.append(evaluation)
        seen[candidate.key()] = evaluation
        say(f"[{len(result.evaluations)}/{budget}] "
            f"{'cached' if evaluation.cached else 'simulated'} "
            f"{candidate.scenario} regret {evaluation.regret:.4f}")
        return evaluation

    # Phase 1: the members themselves (also the restart pool).
    members = [member_candidate(member, suite) for member in suite.members]
    best: Optional[Evaluation] = None
    for member, candidate in zip(suite.members, members):
        if len(result.evaluations) >= budget:
            break
        evaluation = evaluate(candidate)
        result.member_regrets[member.name] = evaluation.regret
        if best is None or evaluation.regret > best.regret:
            best = evaluation

    # Phase 2: hill climb with random restarts.
    current = best
    stale = 0
    proposals = 0
    proposal_cap = 50 * budget  # safety valve on invalid/duplicate moves
    while (len(result.evaluations) < budget and current is not None
           and proposals < proposal_cap):
        proposals += 1
        candidate = _perturb(current.candidate, rng, suite)
        if candidate.key() in seen:
            continue
        try:
            # Validity check: scenario construction rejects out-of-range
            # parameter combinations (burst_length >= period etc.).
            candidate_spec(candidate, suite, target, cluster).workload \
                .make_source(cluster.num_devices)
        except (ValueError, TypeError):
            continue
        evaluation = evaluate(candidate)
        if evaluation.regret > current.regret:
            current = evaluation
            stale = 0
        else:
            stale += 1
        if best is None or evaluation.regret > best.regret:
            best = evaluation
        if stale > patience and members:
            restart = members[int(rng.integers(len(members)))]
            current = seen.get(restart.key(), current)
            stale = 0

    result.winner = best
    return result


def graduate(suite: SuiteSpec, search: SearchResult,
             name: Optional[str] = None) -> SuiteSpec:
    """Admit the search winner into a new suite version."""
    if search.winner is None:
        raise ValueError("search produced no winner to graduate")
    member_name = name or f"adversarial-{search.target}-v{suite.version + 1}"
    member = search.winner.candidate.as_member(
        member_name,
        description=(f"adversarial worst case vs {search.target} "
                     f"(regret {search.winner.regret:.4f})"))
    return suite.with_member(member)
