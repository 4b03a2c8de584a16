"""End-to-end time breakdowns (Fig. 1b and Fig. 10a)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.sim.engine import RunResult

#: Component order used when printing breakdowns.  ``overflow`` exists only
#: while the capacity-overflow model is on, so its column is printed only
#: when some system has the bucket.
BREAKDOWN_COMPONENTS = (
    "all_to_all",
    "expert_compute",
    "attention_and_other",
    "exposed_comm",
    "relayout",
    "overflow",
    "other",
)


@dataclass
class BreakdownTable:
    """Per-system time breakdown, in seconds and as fractions.

    Attributes:
        rows: ``{system: {component: seconds}}``.
        totals: ``{system: iteration_seconds}``.
    """

    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    totals: Dict[str, float] = field(default_factory=dict)

    def add(self, system: str, breakdown: Mapping[str, float], total: float) -> None:
        """Add one system's breakdown."""
        if total < 0:
            raise ValueError("total must be non-negative")
        self.rows[system] = dict(breakdown)
        self.totals[system] = total

    def fraction(self, system: str, component: str) -> float:
        """Fraction of a system's iteration time spent in one component."""
        total = self.totals.get(system, 0.0)
        if total <= 0:
            return 0.0
        return self.rows.get(system, {}).get(component, 0.0) / total

    def all_to_all_fraction(self, system: str) -> float:
        """Fraction of time spent in All-to-All (including exposed comm)."""
        return (self.fraction(system, "all_to_all")
                + self.fraction(system, "exposed_comm")
                + self.fraction(system, "relayout"))

    def as_rows(self) -> List[Dict[str, object]]:
        """Rows suitable for tabular printing."""
        overflow = any("overflow" in row for row in self.rows.values())
        components = [component for component in BREAKDOWN_COMPONENTS
                      if overflow or component != "overflow"]
        out: List[Dict[str, object]] = []
        for system in self.rows:
            row: Dict[str, object] = {"system": system,
                                      "iteration_s": round(self.totals[system], 3)}
            for component in components:
                row[f"{component}_pct"] = round(
                    100.0 * self.fraction(system, component), 1)
            out.append(row)
        return out

    def speedup_of_component(self, system: str, reference: str,
                             component: str) -> float:
        """How much faster ``system`` is than ``reference`` on one component."""
        mine = self.rows.get(system, {}).get(component, 0.0)
        theirs = self.rows.get(reference, {}).get(component, 0.0)
        if mine <= 0:
            return float("inf")
        return theirs / mine


def breakdown_table_from_runs(runs: Mapping[str, RunResult]) -> BreakdownTable:
    """Build a :class:`BreakdownTable` from simulator run results."""
    table = BreakdownTable()
    for name, run in runs.items():
        table.add(name, run.mean_breakdown(), run.mean_iteration_time)
    return table
