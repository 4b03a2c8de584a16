"""Fleet execution: worker processes draining a shared queue into one store.

:class:`FleetWorker` is the per-process loop: claim a cell from the
:class:`~repro.fleet.queue.WorkQueue`, simulate it with an
:class:`~repro.api.ExperimentRunner`, persist the result to the shared
:class:`~repro.store.ResultStore` (an O(1) journal append -- see the store's
lock-safe index protocol), record the outcome, repeat until every cell has an
outcome.  While a cell runs, a daemon thread heart-beats the lease so slow
cells are not mistaken for dead workers; a worker that crashes simply stops
heart-beating and its cells are reclaimed by the survivors.

:func:`launch_fleet` is the coordinator: it expands a
:class:`~repro.study.StudySpec`, resumes past cells already in the store,
populates the queue, spawns ``workers`` OS processes, reports progress while
they drain the queue, compacts the store index, and folds per-worker failures
back into the study subsystem's error taxonomy
(:class:`~repro.study.StudyCellError` / :class:`~repro.study.StudyStoreError`).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.runner import ExperimentRunner
from repro.chaos.injection import inject, maybe_install_from_env
from repro.fleet.queue import QueueStatus, QueuedCell, WorkQueue, cell_key
from repro.telemetry import trace as telemetry_trace
from repro.telemetry.metrics import counter as _metrics_counter
from repro.telemetry.trace import span as _span
from repro.store import ResultStore
from repro.study.runner import (
    CellOutcome,
    StudyCellError,
    StudyStoreError,
    split_resumable_cells,
    study_run_tags,
)
from repro.study.spec import StudySpec

#: Queue subdirectory a study's fleet state lives in, under the store root.
QUEUE_DIR_NAME = "queue"

_M_RESPAWNS = _metrics_counter(
    "repro_fleet_respawns_total",
    "abnormally-exited workers respawned by the fleet supervisor")
_M_CELLS_DONE = _metrics_counter(
    "repro_fleet_cells_completed_total",
    "cells executed to completion by workers in this process")


def default_queue_root(store: ResultStore, study_name: str) -> Path:
    """Where a study's fleet queue lives by default: ``<store>/queue/<key>``."""
    return store.root / QUEUE_DIR_NAME / cell_key(study_name)


@dataclass
class WorkerReport:
    """What one worker process did with the queue."""

    worker: str
    executed: List[str] = field(default_factory=list)  # cell ids
    failed: List[str] = field(default_factory=list)    # cell ids

    def to_dict(self) -> Dict[str, Any]:
        return {"worker": self.worker, "executed": list(self.executed),
                "failed": list(self.failed)}


class FleetWorker:
    """One queue-draining worker (runs in-process; the fleet spawns N of them).

    Args:
        queue: Work queue shared by the fleet (or its root path).
        store: Result store shared by the fleet (or its root path).
        worker_id: Stable name recorded on leases and outcome records.
        poll_interval: Sleep between claim attempts while other workers
            hold the remaining leases.
        heartbeat_interval: Lease refresh period while executing a cell
            (default: a quarter of the queue's lease timeout).
    """

    def __init__(self, queue: Union[WorkQueue, str, Path],
                 store: Union[ResultStore, str, Path],
                 worker_id: Optional[str] = None,
                 poll_interval: float = 0.2,
                 heartbeat_interval: Optional[float] = None):
        self.queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue)
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.poll_interval = float(poll_interval)
        self.heartbeat_interval = (
            float(heartbeat_interval) if heartbeat_interval is not None
            else self.queue.lease_timeout / 4.0)

    # ------------------------------------------------------------------
    def run(self) -> WorkerReport:
        """Drain the queue: loop until every cell has an outcome.

        A store write failure aborts the loop (a full disk fails every
        later cell identically; the failure record carries
        ``kind="store"`` so the coordinator raises it as a
        :class:`~repro.study.StudyStoreError`); cell simulation failures
        are recorded and the worker moves on.
        """
        report = WorkerReport(worker=self.worker_id)
        while True:
            cell = self.queue.claim(self.worker_id)
            if cell is None:
                if not self.queue.outstanding():
                    return report  # every cell has an outcome
                time.sleep(self.poll_interval)  # others hold live leases
                continue
            if not self._execute(cell, report):
                return report

    # ------------------------------------------------------------------
    def _execute(self, cell: QueuedCell, report: WorkerReport) -> bool:
        """Run one claimed cell; returns False when the worker must stop."""
        stop = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop, args=(cell.key, stop), daemon=True)
        beater.start()
        started = time.time()
        try:
            with _span("worker.cell", cell=cell.cell_id,
                       worker=self.worker_id):
                inject("worker.pre-run", cell=cell.key,
                       worker=self.worker_id)
                try:
                    result = ExperimentRunner().run(cell.spec)
                except Exception as error:  # deterministic cell failure
                    self.queue.fail(cell.key, self.worker_id,
                                    f"{type(error).__name__}: {error}",
                                    kind="cell")
                    report.failed.append(cell.cell_id)
                    return True
                inject("worker.post-run", cell=cell.key,
                       worker=self.worker_id)
                try:
                    stored = self.store.put(result, tags=cell.tags)
                except Exception as error:  # store failure: abort the worker
                    self.queue.fail(cell.key, self.worker_id,
                                    f"{type(error).__name__}: {error}",
                                    kind="store")
                    report.failed.append(cell.cell_id)
                    return False
                self.queue.complete(cell.key, self.worker_id, stored.run_id,
                                    seconds=time.time() - started)
                report.executed.append(cell.cell_id)
                _M_CELLS_DONE.inc()
                return True
        finally:
            stop.set()
            beater.join()

    def _heartbeat_loop(self, key: str, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                self.queue.heartbeat(key, self.worker_id)
            except Exception:
                return  # lease lost (we were presumed dead): stop touching it


def _worker_entry(queue_root: str, store_root: str, worker_id: str,
                  lease_timeout: float, poll_interval: float,
                  incarnation: int = 0) -> None:
    """Process entry point (module-level so every start method can spawn it).

    ``incarnation`` counts supervisor respawns of this worker id; it scopes
    chaos faults (see :func:`repro.chaos.maybe_install_from_env`) so a
    respawned worker does not re-arm the fault that killed its predecessor,
    and names the telemetry event file so a respawn never clobbers its
    predecessor's trace.
    """
    maybe_install_from_env(scope=worker_id, incarnation=incarnation)
    tracer = telemetry_trace.maybe_install_from_env(
        scope=worker_id, incarnation=incarnation)
    worker = FleetWorker(WorkQueue(queue_root, lease_timeout=lease_timeout),
                         ResultStore(store_root), worker_id=worker_id,
                         poll_interval=poll_interval)
    try:
        with _span("worker.run", worker=worker_id, incarnation=incarnation):
            worker.run()
    finally:
        if tracer is not None:
            telemetry_trace.uninstall()


@dataclass
class FleetFailure:
    """One failed cell, attributed to its worker and failure kind."""

    cell_id: str
    key: str
    worker: str
    kind: str   # "cell" | "store" | "worker"
    error: str

    def to_dict(self) -> Dict[str, Any]:
        return {"cell_id": self.cell_id, "key": self.key,
                "worker": self.worker, "kind": self.kind, "error": self.error}


@dataclass
class FleetReport:
    """Outcome of one :func:`launch_fleet` invocation."""

    study: str
    store_root: str
    queue_root: str
    workers: Tuple[str, ...]
    tags: Tuple[str, ...]
    cells: List[CellOutcome] = field(default_factory=list)
    failures: List[FleetFailure] = field(default_factory=list)
    #: worker id -> cell ids that worker completed.
    cells_by_worker: Dict[str, List[str]] = field(default_factory=dict)
    #: worker id -> how many times the supervisor respawned it.
    respawns: Dict[str, int] = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def executed(self) -> List[CellOutcome]:
        return [cell for cell in self.cells if cell.status == "executed"]

    @property
    def skipped(self) -> List[CellOutcome]:
        return [cell for cell in self.cells if cell.status == "skipped"]

    def worker_summary(self) -> str:
        """Greppable per-worker claim counts (``worker-1=3 worker-2=5``)."""
        counts = {worker: len(cells)
                  for worker, cells in sorted(self.cells_by_worker.items())}
        for failure in self.failures:
            counts.setdefault(failure.worker, 0)
        return " ".join(f"{worker}={count}"
                        for worker, count in sorted(counts.items()))

    def summary(self) -> str:
        """One-line, machine-greppable outcome (used by the CI smoke step)."""
        respawned = ""
        if self.respawns:
            counts = " ".join(f"{worker}={count}" for worker, count
                              in sorted(self.respawns.items()))
            respawned = f"; respawns: {counts}"
        return (f"fleet {self.study!r}: {len(self.cells)} cells, "
                f"executed {len(self.executed)}, "
                f"skipped {len(self.skipped)}, "
                f"failed {len(self.failures)} "
                f"({len(self.workers)} workers: {self.worker_summary()}; "
                f"store: {self.store_root}{respawned}; "
                f"{self.wall_time_s:.1f}s)")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "study": self.study,
            "store_root": self.store_root,
            "queue_root": self.queue_root,
            "workers": list(self.workers),
            "tags": list(self.tags),
            "cells": [cell.to_dict() for cell in self.cells],
            "failures": [failure.to_dict() for failure in self.failures],
            "cells_by_worker": {worker: list(cells) for worker, cells
                                in self.cells_by_worker.items()},
            "respawns": dict(self.respawns),
            "wall_time_s": self.wall_time_s,
        }


def _queued_cells(study: StudySpec, store: ResultStore, tags: Sequence[str],
                  resume: bool, cells: Sequence) -> Tuple[
                      List[QueuedCell], List[CellOutcome]]:
    pending, skipped = split_resumable_cells(study, store, tags,
                                             resume=resume, cells=cells)
    queued = [QueuedCell(key=cell_key(cell.cell_id), cell_id=cell.cell_id,
                         spec=cell.spec, tags=tuple(tags))
              for cell in pending]
    return queued, skipped


def launch_fleet(study: StudySpec, store: ResultStore, workers: int = 2,
                 tags: Sequence[str] = (), resume: bool = True,
                 lease_timeout: float = 60.0,
                 queue_root: Optional[Union[str, Path]] = None,
                 poll_interval: float = 0.2,
                 progress_interval: float = 2.0,
                 on_progress: Optional[Callable[[QueueStatus], None]] = None,
                 check: bool = True,
                 respawn_limit: int = 0) -> FleetReport:
    """Execute a study with ``workers`` cooperating OS processes.

    The coordinator prunes stale queue state, populates the work queue
    (resuming past cells whose runs the store already holds, exactly like
    :class:`StudyRunner`), spawns the workers, supervises them until the
    queue drains (waking as soon as one exits), then compacts the store
    index and aggregates the outcome.  Concurrency happens at the *worker*
    level: run one coordinator per queue at a time (two coordinators
    reconciling the same queue directory simultaneously may prune each
    other's records).

    Args:
        study: The study to execute.
        store: Shared result store every worker writes to.
        workers: Number of worker processes (>= 1).
        tags: Extra tags for this invocation (part of run identity).
        resume: Skip cells whose run id already exists in the store.
        lease_timeout: Seconds without a heartbeat before a worker's cell
            is reclaimed by the survivors.
        queue_root: Queue directory (default: ``<store>/queue/<study-key>``;
            kept around after the run for ``repro fleet status/workers``).
        poll_interval: Worker sleep between claim attempts; the
            coordinator's longest wait between supervision passes is the
            smaller of it and 0.2 s.
        progress_interval: Seconds between ``on_progress`` snapshots.
        on_progress: Optional callback receiving :class:`QueueStatus`
            snapshots while the fleet runs.
        check: Raise on failed cells (:class:`StudyStoreError` if any
            failure was a store write, else :class:`StudyCellError`, with
            the report attached as ``exc.report``); pass ``False`` to get
            the report back regardless.
        respawn_limit: Supervision budget *per worker id*: a worker process
            that exits abnormally (nonzero status or a signal) while cells
            are still outstanding is respawned up to this many times, each
            respawn recorded in ``FleetReport.respawns``.  0 (the default)
            keeps the historical fail-fast behavior.

    Returns:
        A :class:`FleetReport`: per-cell outcomes in grid order, failures,
        per-worker attribution and wall time.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    started = time.time()
    all_tags = study_run_tags(study, tags)
    root = Path(queue_root) if queue_root is not None else \
        default_queue_root(store, study.name)
    if not resume:
        _reset_queue(root)
    queue = WorkQueue(root, lease_timeout=lease_timeout)
    cells = study.expand()
    queued, skipped = _queued_cells(study, store, all_tags, resume, cells)
    # The queue directory is keyed by study name and survives invocations,
    # so first drop cells a *previous* invocation queued that this one did
    # not (a narrower --param grid, or cells that have since been resumed
    # from the store): workers drain every cell file present, and a stale
    # one would be simulated with the old spec and tags.
    queue.prune(keep={cell.key for cell in queued})
    # Cells that failed (or were left mid-flight) in a previous invocation
    # but never made it into the store are re-armed by populate().
    queue.populate(queued)

    worker_ids = tuple(f"worker-{index + 1}" for index in range(workers))
    respawns: Dict[str, int] = {}
    if queued:
        processes: Dict[str, multiprocessing.Process] = {}
        incarnations: Dict[str, int] = {w: 0 for w in worker_ids}

        def spawn(worker_id: str) -> None:
            process = multiprocessing.Process(
                target=_worker_entry,
                args=(str(root), str(store.root), worker_id,
                      float(lease_timeout), float(poll_interval),
                      incarnations[worker_id]),
                name=f"repro-fleet-{worker_id}")
            process.start()
            processes[worker_id] = process

        # Children inherit the environment: point the trace context at the
        # coordinator's fleet.run span so worker spans hang under it in the
        # merged timeline.  The exported variables are restored afterwards
        # so one traced fleet cannot bleed context into a later untraced
        # one in the same process (no-op when no tracer is armed).
        saved_trace_env = None
        if telemetry_trace.active() is not None:
            saved_trace_env = {
                name: os.environ.get(name)
                for name in (telemetry_trace.TRACE_DIR_ENV,
                             telemetry_trace.TRACE_ID_ENV,
                             telemetry_trace.TRACE_PARENT_ENV)}
        with _span("fleet.run", study=study.name, workers=workers,
                   cells=len(queued)):
            telemetry_trace.export_env()
            for worker_id in worker_ids:
                spawn(worker_id)
            try:
                last_progress = 0.0
                while True:
                    # Supervision pass: a worker that exited abnormally
                    # while cells remain outstanding is respawned (next
                    # incarnation) until its budget runs out -- its
                    # in-flight cell is safe either way (the lease expires
                    # and a survivor or the respawn itself takes it over).
                    # Each worker's liveness is read once per pass, so a
                    # worker that dies mid-pass is supervised on the next
                    # one instead of ending the loop unsupervised.
                    live = []
                    for worker_id, process in list(processes.items()):
                        if process.is_alive():
                            live.append(process)
                            continue
                        if process.exitcode == 0:
                            continue
                        if (respawns.get(worker_id, 0) < respawn_limit
                                and queue.outstanding()):
                            process.join()
                            respawns[worker_id] = \
                                respawns.get(worker_id, 0) + 1
                            incarnations[worker_id] += 1
                            _M_RESPAWNS.inc()
                            spawn(worker_id)
                            live.append(processes[worker_id])
                    if not live:
                        break
                    if on_progress is not None and \
                            time.time() - last_progress >= progress_interval:
                        try:
                            on_progress(queue.status())
                        except Exception as error:
                            # A broken progress consumer (closed pipe,
                            # caller bug) must not abort a running fleet;
                            # drop the callback and keep draining.
                            warnings.warn(
                                f"fleet progress callback failed "
                                f"({type(error).__name__}: {error}); "
                                f"progress reporting disabled",
                                RuntimeWarning)
                            on_progress = None
                        last_progress = time.time()
                    # Wake as soon as a worker exits.  Only live workers'
                    # sentinels: a dead one's stays ready until it is
                    # joined, and would spin this loop.
                    multiprocessing.connection.wait(
                        [process.sentinel for process in live],
                        timeout=min(poll_interval, 0.2))
            finally:
                # Never leave spawned workers orphaned: whatever unwinds
                # the wait loop, the children are joined before control
                # escapes (they exit on their own once every cell has an
                # outcome).
                for process in processes.values():
                    process.join()
                if saved_trace_env is not None:
                    for name, value in saved_trace_env.items():
                        if value is None:
                            os.environ.pop(name, None)
                        else:
                            os.environ[name] = value

    report = _collect_report(study, store, queue, worker_ids, all_tags,
                             queued, skipped, cells)
    report.respawns = respawns
    report.wall_time_s = time.time() - started
    if report.executed:
        store.compact_index()
    if check and report.failures:
        _raise_aggregated(report)
    return report


def _reset_queue(root: Path) -> None:
    """Drop a previous invocation's queue state (the ``--no-resume`` path)."""
    if not root.is_dir():
        return
    for sub in (WorkQueue.CELLS_DIR, WorkQueue.LEASES_DIR,
                WorkQueue.DONE_DIR, WorkQueue.FAILED_DIR):
        directory = root / sub
        if not directory.is_dir():
            continue
        for path in directory.iterdir():
            if path.is_file():
                path.unlink()


def _collect_report(study: StudySpec, store: ResultStore, queue: WorkQueue,
                    worker_ids: Tuple[str, ...], all_tags: Tuple[str, ...],
                    queued: List[QueuedCell], skipped: List[CellOutcome],
                    grid: Sequence) -> FleetReport:
    done = queue.done_records()
    failed = queue.failed_records()
    outcomes: Dict[str, CellOutcome] = {
        outcome.cell_id: outcome for outcome in skipped}
    failures: List[FleetFailure] = []
    cells_by_worker: Dict[str, List[str]] = {}
    for cell in queued:
        record = done.get(cell.key)
        if record is not None:
            worker = str(record.get("worker", "?"))
            outcomes[cell.cell_id] = CellOutcome(
                cell_id=cell.cell_id, run_id=str(record.get("run_id", "")),
                status="executed")
            cells_by_worker.setdefault(worker, []).append(cell.cell_id)
            continue
        record = failed.get(cell.key)
        if record is not None:
            failures.append(FleetFailure(
                cell_id=cell.cell_id, key=cell.key,
                worker=str(record.get("worker", "?")),
                kind=str(record.get("kind", "cell")),
                error=str(record.get("error", ""))))
        else:
            # No outcome at all: every worker exited without draining the
            # queue, i.e. the worker processes themselves died.
            failures.append(FleetFailure(
                cell_id=cell.cell_id, key=cell.key, worker="",
                kind="worker",
                error="no outcome recorded (worker processes exited)"))

    # Grid order: expand() order for everything that has an outcome.
    ordered: List[CellOutcome] = []
    for cell in grid:
        outcome = outcomes.get(cell.cell_id)
        if outcome is not None:
            ordered.append(outcome)
    return FleetReport(
        study=study.name,
        store_root=str(store.root),
        queue_root=str(queue.root),
        workers=worker_ids,
        tags=all_tags,
        cells=ordered,
        failures=failures,
        cells_by_worker=cells_by_worker,
    )


def _raise_aggregated(report: FleetReport) -> None:
    """Fold fleet failures into the study subsystem's error taxonomy."""
    store_failures = [f for f in report.failures if f.kind == "store"]
    worker_failures = [f for f in report.failures if f.kind == "worker"]
    if store_failures:
        first = store_failures[0]
        error: Exception = StudyStoreError(
            first.cell_id, RuntimeError(
                f"[{first.worker}] {first.error} "
                f"({len(store_failures)} store failure(s) total)"))
    elif worker_failures:
        error = RuntimeError(
            f"fleet workers died leaving {len(worker_failures)} cell(s) "
            f"without an outcome (first: {worker_failures[0].cell_id!r})")
    else:
        first = report.failures[0]
        error = StudyCellError(
            first.cell_id, RuntimeError(
                f"[{first.worker}] {first.error} "
                f"({len(report.failures)} failed cell(s) total)"))
    error.report = report  # type: ignore[attr-defined]
    raise error
