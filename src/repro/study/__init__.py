"""Study subsystem: declarative sweeps executed into a persistent store.

The paper's headline tables are *grids* of experiments; this package makes
such grids first-class::

    from repro.store import ResultStore
    from repro.study import make_study, run_study

    study = make_study("sweep-cluster-sizes", sizes=[1, 2, 4])
    report = run_study(study, ResultStore("./study-store"))
    print(report.summary())   # re-running skips every completed cell

* :class:`StudySpec` / :class:`StudyAxes` -- frozen, JSON-round-trippable
  sweep descriptions expanding systems x scenarios x scenario-params x
  cluster-sizes into :class:`ExperimentSpec` grids;
* the **study registry** -- named, parameterized study definitions
  (``sweep-cluster-sizes`` reproduces the Table 4 axis);
* :class:`StudyRunner` -- resumable, in-process execution of the grid into
  a :class:`repro.store.ResultStore`, one cell after another (drain a grid
  with several processes through :mod:`repro.fleet`, ``repro fleet run
  --workers N``).

The ``repro study`` CLI (``run`` / ``diff`` / ``report`` / ``gate``) is
built on exactly these entry points.
"""

from repro.study.spec import StudyAxes, StudyCell, StudySpec
from repro.study.registry import (
    available_studies,
    make_study,
    register_study,
    registered_study,
    study_descriptions,
    unregister_study,
)
from repro.study.runner import (
    CellOutcome,
    StudyCellError,
    StudyReport,
    StudyRunner,
    StudyStoreError,
    run_study,
    split_resumable_cells,
    study_run_tags,
    study_tag,
)

__all__ = [
    "StudyAxes",
    "StudyCell",
    "StudySpec",
    "available_studies",
    "make_study",
    "register_study",
    "registered_study",
    "study_descriptions",
    "unregister_study",
    "CellOutcome",
    "StudyCellError",
    "StudyReport",
    "StudyStoreError",
    "StudyRunner",
    "run_study",
    "split_resumable_cells",
    "study_run_tags",
    "study_tag",
]
