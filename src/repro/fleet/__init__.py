"""Fleet subsystem: multi-process sweep execution over a shared store.

The fleet is the only code path that uses more than one process.  Where
:class:`repro.study.StudyRunner` executes a sweep inside one process, cell
after cell, the fleet turns the same sweep into a small *service*: a
file-based :class:`WorkQueue` of study cells (claimed via ``O_EXCL`` lease
files with heartbeat mtimes; crashed workers' cells expire and are
reclaimed), N :class:`FleetWorker` processes draining it, and one shared
:class:`repro.store.ResultStore` whose append-only index journal makes the
concurrent writes safe::

    from repro.fleet import launch_fleet
    from repro.store import ResultStore
    from repro.study import make_study

    study = make_study("sweep-cluster-sizes", sizes=[1, 2, 4, 8])
    report = launch_fleet(study, ResultStore("./study-store"), workers=2)
    print(report.summary())   # per-worker claim counts included

Both paths store the same results under the same run ids; with a fixed
``REPRO_STORE_FIXED_CREATED_AT`` timestamp the two stores are byte-identical.
A comparison of several systems that should run in separate processes is a
study with a ``systems`` axis.  The ``repro fleet`` CLI (``run`` /
``status`` / ``workers`` / ``watch``) is built on exactly these entry
points.
"""

from repro.fleet.queue import (
    FAILURE_KINDS,
    LeaseInfo,
    LeaseLost,
    QueueStatus,
    QueuedCell,
    WorkQueue,
    cell_key,
)
from repro.fleet.worker import (
    QUEUE_DIR_NAME,
    FleetFailure,
    FleetReport,
    FleetWorker,
    WorkerReport,
    default_queue_root,
    launch_fleet,
)

__all__ = [
    "FAILURE_KINDS",
    "LeaseInfo",
    "LeaseLost",
    "QueueStatus",
    "QueuedCell",
    "WorkQueue",
    "cell_key",
    "FleetFailure",
    "FleetReport",
    "FleetWorker",
    "QUEUE_DIR_NAME",
    "WorkerReport",
    "default_queue_root",
    "launch_fleet",
]
