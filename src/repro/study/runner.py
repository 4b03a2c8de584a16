"""Execute study grids cell by cell, with resume, into a result store.

:class:`StudyRunner` is the sweep-level sibling of
:class:`repro.api.ExperimentRunner`: it expands a :class:`StudySpec` into
its grid, skips every cell whose run is already in the
:class:`~repro.store.ResultStore` (resume -- re-running a finished study is
a no-op), and executes the remaining cells in this process, one after
another.  To drain a grid with several processes, use the fleet
(:func:`repro.fleet.launch_fleet`, ``repro fleet run --workers N``); both
store the same results under the same run ids.

Every executed cell is written to the store tagged ``"study:<name>"`` (plus
the study's and the caller's tags), which is what ``repro study report``
queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.runner import ExperimentRunner
from repro.store import ResultStore, run_id_for
from repro.study.spec import StudyCell, StudySpec


def study_tag(study: StudySpec) -> str:
    """The tag marking every stored run of a study (``"study:<name>"``)."""
    return f"study:{study.name}"


def study_run_tags(study: StudySpec, tags: Sequence[str] = ()) -> Tuple[str, ...]:
    """The full tag set attached to (and looked up for) a study's runs."""
    return tuple(sorted({study_tag(study), *study.tags,
                         *(str(t) for t in tags)}))


def split_resumable_cells(
        study: StudySpec, store: ResultStore, tags: Sequence[str],
        resume: bool = True,
        cells: Optional[Sequence[StudyCell]] = None,
) -> Tuple[List[StudyCell], List["CellOutcome"]]:
    """Expand a study and split its grid into pending and resumed cells.

    Shared by :class:`StudyRunner` and the fleet coordinator
    (:func:`repro.fleet.launch_fleet`) so both front ends agree on what
    "already done" means: a cell resumes iff a run of its exact spec and
    tag set is in the store.  Returns ``(pending_cells, skipped_outcomes)``
    in grid order.  Callers that already expanded the grid pass it via
    ``cells`` (expansion re-validates every derived spec -- not free on
    big grids).
    """
    pending: List[StudyCell] = []
    skipped: List[CellOutcome] = []
    for cell in (study.expand() if cells is None else cells):
        run_id = run_id_for(cell.spec, tags)
        if resume and run_id in store:
            skipped.append(CellOutcome(cell_id=cell.cell_id, run_id=run_id,
                                       status="skipped"))
        else:
            pending.append(cell)
    return pending, skipped


class StudyStoreError(RuntimeError):
    """Persisting a finished cell to the result store failed.

    Distinct from simulation errors so a full disk or unwritable store is
    reported as such, naming the cell whose result could not be written.
    The original exception is the ``__cause__``.
    """

    def __init__(self, cell_id: str, original: BaseException):
        super().__init__(
            f"cannot store study cell {cell_id!r}: "
            f"{type(original).__name__}: {original}")
        self.cell_id = cell_id


class StudyCellError(RuntimeError):
    """A grid cell's simulation failed.

    Raised with the failing cell's id so a deterministic error -- a bad
    trace path, an incompatible cluster size -- names the cell it came
    from.  The original exception is the ``__cause__``.
    """

    def __init__(self, cell_id: str, original: BaseException):
        super().__init__(
            f"study cell {cell_id!r} failed: "
            f"{type(original).__name__}: {original}")
        self.cell_id = cell_id


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one grid cell during a study run."""

    cell_id: str
    run_id: str
    status: str  # "executed" | "skipped"

    def to_dict(self) -> Dict[str, Any]:
        return {"cell_id": self.cell_id, "run_id": self.run_id,
                "status": self.status}


@dataclass
class StudyReport:
    """Outcome of one :meth:`StudyRunner.run` invocation."""

    study: str
    store_root: str
    tags: Tuple[str, ...]
    cells: List[CellOutcome] = field(default_factory=list)

    @property
    def executed(self) -> List[CellOutcome]:
        return [cell for cell in self.cells if cell.status == "executed"]

    @property
    def skipped(self) -> List[CellOutcome]:
        return [cell for cell in self.cells if cell.status == "skipped"]

    @property
    def run_ids(self) -> List[str]:
        return [cell.run_id for cell in self.cells]

    def summary(self) -> str:
        """One-line, machine-greppable outcome (used by the CI smoke step)."""
        return (f"study {self.study!r}: {len(self.cells)} cells, "
                f"executed {len(self.executed)}, skipped {len(self.skipped)} "
                f"(store: {self.store_root})")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "study": self.study,
            "store_root": self.store_root,
            "tags": list(self.tags),
            "cells": [cell.to_dict() for cell in self.cells],
        }


class StudyRunner:
    """Expand a study, resume from the store, execute the remaining cells.

    Cells run in this process, one after another.

    Args:
        store: Result store every cell run is written to (and resume reads).
    """

    def __init__(self, store: ResultStore) -> None:
        self.store = store

    # ------------------------------------------------------------------
    def run_tags(self, study: StudySpec,
                 tags: Sequence[str] = ()) -> Tuple[str, ...]:
        """The full tag set attached to (and looked up for) a study's runs."""
        return study_run_tags(study, tags)

    def run(self, study: StudySpec, tags: Sequence[str] = (),
            resume: bool = True) -> StudyReport:
        """Execute one study into the store.

        Args:
            study: The study to run.
            tags: Extra tags for this invocation (tags are part of run
                identity, so runs under new tags do not resume from runs
                stored under old ones).
            resume: Skip cells whose run id already exists in the store.

        Returns:
            A :class:`StudyReport` listing every cell as executed or
            skipped.
        """
        all_tags = self.run_tags(study, tags)
        cells = study.expand()
        pending, skipped = split_resumable_cells(study, self.store, all_tags,
                                                 resume=resume, cells=cells)
        outcomes: Dict[str, CellOutcome] = {
            outcome.cell_id: outcome for outcome in skipped}

        # Every cell is persisted the moment its simulation finishes, so a
        # mid-study failure (one bad cell, a killed process) loses only the
        # unfinished cells -- the next run resumes past everything stored.
        runner = ExperimentRunner()
        for cell in pending:
            result = runner.run(cell.spec)
            try:
                stored = self.store.put(result, tags=all_tags)
            except Exception as exc:
                raise StudyStoreError(cell.cell_id, exc) from exc
            outcomes[cell.cell_id] = CellOutcome(
                cell_id=cell.cell_id, run_id=stored.run_id, status="executed")

        if pending:
            # Fold this run's journal appends into index.json: one cheap
            # O(cells) pass per study keeps the journal bounded and leaves
            # a fresh compacted index for downstream (read-only) tooling.
            self.store.compact_index()

        return StudyReport(
            study=study.name,
            store_root=str(self.store.root),
            tags=all_tags,
            cells=[outcomes[cell.cell_id] for cell in cells],
        )


def run_study(study: StudySpec, store: ResultStore,
              tags: Sequence[str] = (), resume: bool = True) -> StudyReport:
    """Convenience wrapper: run ``study`` into ``store`` with a fresh runner."""
    return StudyRunner(store).run(study, tags=tags, resume=resume)
