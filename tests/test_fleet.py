"""Tests for the fleet subsystem (work queue, workers, coordinator).

Includes the multi-process stress test the store's lock-safe index protocol
exists for: two worker processes drain a >= 8-cell study into one shared
store, and afterwards every cell must be persisted exactly once with the
index layer fully consistent (``rebuild_index`` is a byte-level no-op).
"""

import json
import os
import threading
import time

import pytest

from repro.api import ClusterSpec, ExperimentSpec, WorkloadSpec
from repro.fleet import (
    FleetWorker,
    LeaseLost,
    QueuedCell,
    WorkQueue,
    cell_key,
    launch_fleet,
)
from repro.store import ResultStore, run_id_for
from repro.study import (
    StudyAxes,
    StudyCellError,
    StudySpec,
    StudyStoreError,
    study_run_tags,
)


def base_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="base",
        cluster=ClusterSpec(num_nodes=1, devices_per_node=4),
        workload=WorkloadSpec(tokens_per_device=1024, layers=1,
                              iterations=2, warmup=1, seed=3),
        systems=("fsdp_ep", "laer"),
        reference="fsdp_ep",
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def tiny_study(name="tiny-fleet", **axes) -> StudySpec:
    axes = axes or {"cluster_sizes": (1, 2)}
    return StudySpec(name=name, base=base_spec(), axes=StudyAxes(**axes))


def eight_cell_study() -> StudySpec:
    """systems x cluster-sizes grid with 8 one-system cells (fast to run)."""
    return StudySpec(
        name="stress",
        base=base_spec(),
        axes=StudyAxes(
            systems=(("fsdp_ep",), ("laer",), ("fastermoe",), ("smartmoe",)),
            cluster_sizes=(1, 2),
        ))


def queued(study: StudySpec, tags=()) -> list:
    return [QueuedCell(key=cell_key(cell.cell_id), cell_id=cell.cell_id,
                       spec=cell.spec, tags=tuple(tags))
            for cell in study.expand()]


class TestCellKey:
    def test_filesystem_safe_and_collision_resistant(self):
        key = cell_key("laer/bursty-churn/period=20/n2x8")
        assert "/" not in key and "=" not in key and " " not in key
        assert cell_key("a/b") != cell_key("a-b")  # slugs collide, hashes not
        assert cell_key("x") == cell_key("x")


class TestWorkQueue:
    def test_populate_is_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path)
        cells = queued(tiny_study())
        assert queue.populate(cells) == 2
        assert queue.populate(cells) == 0
        assert [cell.cell_id for cell in queue.cells()] == \
            sorted(cell.cell_id for cell in cells)

    def test_claim_is_exclusive(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.populate(queued(tiny_study()))
        first = queue.claim("w1")
        second = queue.claim("w2")
        assert first is not None and second is not None
        assert first.key != second.key
        assert queue.claim("w3") is None  # both cells leased
        assert queue.outstanding()       # ...but not finished

    def test_complete_releases_and_finishes(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.populate(queued(tiny_study()))
        cell = queue.claim("w1")
        queue.complete(cell.key, "w1", run_id="r1", seconds=0.5)
        assert cell.key not in queue.outstanding()
        record = queue.done_records()[cell.key]
        assert record["worker"] == "w1" and record["run_id"] == "r1"
        # A finished cell is never claimable again.
        other = queue.claim("w2")
        assert other is None or other.key != cell.key

    def test_cell_never_carries_both_outcomes(self, tmp_path):
        """After a reclaim race one execution may fail while the other
        completed; the cell must end with exactly one outcome record."""
        queue = WorkQueue(tmp_path)
        queue.populate(queued(tiny_study()))
        cell = queue.claim("w1")
        # Failure then success (retry by a reclaimer): done supersedes.
        queue.fail(cell.key, "w1", "transient")
        queue.complete(cell.key, "w2", run_id="r1")
        assert cell.key in queue.done_records()
        assert cell.key not in queue.failed_records()
        # Success then failure (stale worker failing late): fail is moot.
        queue.fail(cell.key, "w1", "late transient")
        assert cell.key in queue.done_records()
        assert cell.key not in queue.failed_records()
        status = queue.status()
        assert status.done == 1 and status.failed == 0

    def test_fail_records_kind(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.populate(queued(tiny_study()))
        cell = queue.claim("w1")
        queue.fail(cell.key, "w1", "ValueError: boom", kind="cell")
        assert queue.failed_records()[cell.key]["kind"] == "cell"
        with pytest.raises(ValueError, match="unknown failure kind"):
            queue.fail(cell.key, "w1", "x", kind="bogus")

    def test_populate_rearms_failed_cells(self, tmp_path):
        queue = WorkQueue(tmp_path)
        cells = queued(tiny_study())
        queue.populate(cells)
        cell = queue.claim("w1")
        queue.fail(cell.key, "w1", "boom")
        assert queue.populate(cells) == 0  # cell files still exist
        assert not queue.failed_records()  # but the failure was re-armed
        assert cell.key in queue.outstanding()

    def test_populate_drops_stale_done_records(self, tmp_path):
        """Re-queueing a cell (its run left the store, or run identity
        changed) must drop the old done record, or claim() would skip the
        cell and the stale record would masquerade as a fresh outcome."""
        queue = WorkQueue(tmp_path)
        cells = queued(tiny_study())
        queue.populate(cells)
        cell = queue.claim("w1")
        queue.complete(cell.key, "w1", run_id="old-run")
        queue.populate(cells)  # coordinator says: all pending again
        assert not queue.done_records()
        assert cell.key in queue.outstanding()

    def test_heartbeat_requires_ownership(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.populate(queued(tiny_study()))
        cell = queue.claim("w1")
        before = queue.lease_info(cell.key).heartbeat_at
        time.sleep(0.02)
        queue.heartbeat(cell.key, "w1")
        assert queue.lease_info(cell.key).heartbeat_at >= before
        with pytest.raises(LeaseLost):
            queue.heartbeat(cell.key, "w2")
        # A reclaim between the ownership check and the mtime touch must
        # surface as LeaseLost too, never a raw FileNotFoundError.
        real_utime = os.utime

        def reclaim_then_utime(path, *args, **kwargs):
            queue.lease_path(cell.key).unlink()
            return real_utime(path, *args, **kwargs)

        import unittest.mock
        with unittest.mock.patch.object(os, "utime", reclaim_then_utime):
            with pytest.raises(LeaseLost, match="mid-heartbeat"):
                queue.heartbeat(cell.key, "w1")
        with pytest.raises(LeaseLost):
            queue.heartbeat(cell.key, "w1")

    def test_same_name_other_process_does_not_own_the_lease(self, tmp_path):
        """Two fleets share worker names (worker-1..N): ownership must be
        (name, pid), or a stale worker would heartbeat/release the lease a
        same-named worker of another fleet reclaimed from it."""
        queue = WorkQueue(tmp_path)
        queue.populate(queued(tiny_study()))
        cell = queue.claim("worker-1")
        # Rewrite the lease as if another process's worker-1 now holds it.
        lease = queue.lease_path(cell.key)
        data = json.loads(lease.read_text())
        data["pid"] = data["pid"] + 1
        lease.write_text(json.dumps(data) + "\n")
        with pytest.raises(LeaseLost):
            queue.heartbeat(cell.key, "worker-1")
        queue.release(cell.key, "worker-1")
        assert lease.exists()  # the usurper's live lease was not unlinked

    def test_expired_lease_is_reclaimed(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_timeout=0.5)
        queue.populate(queued(tiny_study()))
        dead = queue.claim("dead-worker")
        # Nobody heart-beats: age the lease past the timeout.
        stale = time.time() - 10.0
        os.utime(queue.lease_path(dead.key), (stale, stale))
        reclaimed = {queue.claim("w2").key, queue.claim("w2").key}
        assert dead.key in reclaimed  # the abandoned cell was taken over
        assert queue.lease_info(dead.key).worker == "w2"

    def test_old_unreadable_lease_is_reclaimed(self, tmp_path):
        """A 0-byte lease (owner crashed between O_EXCL create and payload
        write) must still expire by mtime, or its cell is wedged forever."""
        queue = WorkQueue(tmp_path, lease_timeout=0.5)
        cells = queued(tiny_study())
        queue.populate(cells)
        lease = queue.lease_path(cells[0].key)
        lease.parent.mkdir(parents=True, exist_ok=True)
        lease.write_text("")  # crashed mid-create
        stale = time.time() - 10.0
        os.utime(lease, (stale, stale))
        claimed = {queue.claim("w2").key, queue.claim("w2").key}
        assert claimed == {cell.key for cell in cells}

    def test_fresh_unreadable_lease_is_left_alone(self, tmp_path):
        """A fresh unreadable lease may be a concurrent claimer mid-write:
        it must not be stolen before the timeout."""
        queue = WorkQueue(tmp_path, lease_timeout=60.0)
        cells = queued(tiny_study())
        queue.populate(cells)
        lease = queue.lease_path(cells[0].key)
        lease.parent.mkdir(parents=True, exist_ok=True)
        lease.write_text("")  # just created, payload not yet written
        claimed = queue.claim("w2")
        assert claimed is not None and claimed.key != cells[0].key

    def test_live_lease_is_not_reclaimed(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_timeout=60.0)
        queue.populate(queued(tiny_study()))
        held = queue.claim("w1")
        taken = queue.claim("w2")  # gets the other cell
        assert taken.key != held.key
        assert queue.claim("w3") is None
        assert queue.lease_info(held.key).worker == "w1"

    def test_concurrent_claims_are_unique(self, tmp_path):
        """Many threads racing claim(): every cell claimed exactly once."""
        study = eight_cell_study()
        queue = WorkQueue(tmp_path)
        queue.populate(queued(study))
        claimed, lock = [], threading.Lock()

        def worker(name):
            while True:
                cell = queue.claim(name)
                if cell is None:
                    return
                with lock:
                    claimed.append(cell.key)

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(claimed) == sorted(
            cell_key(cell.cell_id) for cell in study.expand())
        assert len(set(claimed)) == len(claimed)

    def test_unreadable_cell_file_gets_a_failed_outcome(self, tmp_path):
        """A corrupt cell file must be failed, not skipped: a silent skip
        leaves it outstanding forever and poll-livelocks every worker."""
        study = tiny_study()
        queue = WorkQueue(tmp_path / "queue")
        cells = queued(study)
        queue.populate(cells)
        queue.cell_path(cells[0].key).write_text("{torn")
        store = ResultStore(tmp_path / "store")
        report = FleetWorker(queue, store, worker_id="solo",
                             poll_interval=0.05).run()  # must terminate
        assert len(report.executed) == 1
        record = queue.failed_records()[cells[0].key]
        assert record["kind"] == "cell" and "unreadable" in record["error"]
        assert not queue.outstanding()

    def test_status_counts(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.populate(queued(tiny_study()))
        cell = queue.claim("w1")
        status = queue.status()
        assert (status.total, status.pending, status.leased) == (2, 1, 1)
        assert not status.finished
        queue.complete(cell.key, "w1", "r1")
        other = queue.claim("w1")
        queue.fail(other.key, "w1", "boom")
        status = queue.status()
        assert (status.done, status.failed, status.pending) == (1, 1, 0)
        assert status.finished
        assert status.done_by_worker == {"w1": 1}
        assert status.failed_by_worker == {"w1": 1}


class TestFleetWorker:
    def test_single_worker_drains_the_queue(self, tmp_path):
        study = tiny_study()
        tags = study_run_tags(study)
        queue = WorkQueue(tmp_path / "queue")
        queue.populate(queued(study, tags))
        store = ResultStore(tmp_path / "store")
        report = FleetWorker(queue, store, worker_id="solo").run()
        assert sorted(report.executed) == sorted(
            cell.cell_id for cell in study.expand())
        assert not report.failed
        assert len(store.run_ids()) == 2
        # Stored under the study's full tag set: resume-compatible with
        # StudyRunner lookups.
        for cell in study.expand():
            assert run_id_for(cell.spec, tags) in store

    def test_reclaimed_cell_runs_exactly_once(self, tmp_path):
        """A crashed claimer's cell is re-run once, never duplicated."""
        study = tiny_study()
        queue = WorkQueue(tmp_path / "queue", lease_timeout=0.3)
        queue.populate(queued(study))
        # Simulate a worker that claimed a cell and died silently.
        dead = queue.claim("dead-worker")
        stale = time.time() - 10.0
        os.utime(queue.lease_path(dead.key), (stale, stale))

        store = ResultStore(tmp_path / "store")
        workers = [FleetWorker(queue, store, worker_id=f"w{i}",
                               poll_interval=0.05) for i in range(2)]
        reports = [None, None]
        threads = [threading.Thread(
            target=lambda i=i: reports.__setitem__(i, workers[i].run()))
            for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        executed = [cell for report in reports for cell in report.executed]
        # Every cell exactly once -- the reclaimed one included.
        assert sorted(executed) == sorted(
            cell.cell_id for cell in study.expand())
        assert dead.cell_id in executed
        assert len(store.run_ids()) == 2

    def test_cell_failure_is_recorded_not_fatal(self, tmp_path):
        study = tiny_study()
        cells = queued(study)
        # Poison one cell with an impossible spec change via a bad scenario
        # parameter value that only fails at run time.
        bad = cells[0]
        bad_spec = ExperimentSpec.from_dict({
            **bad.spec.to_dict(),
            "workload": {**bad.spec.workload.to_dict(),
                         "scenario": "trace-replay",
                         "params": {"path": str(tmp_path / "missing.npz")}},
        })
        cells[0] = QueuedCell(key=bad.key, cell_id=bad.cell_id,
                              spec=bad_spec, tags=bad.tags)
        queue = WorkQueue(tmp_path / "queue")
        queue.populate(cells)
        store = ResultStore(tmp_path / "store")
        report = FleetWorker(queue, store, worker_id="solo").run()
        assert report.failed == [bad.cell_id]
        assert len(report.executed) == 1
        record = queue.failed_records()[bad.key]
        assert record["kind"] == "cell"
        assert len(store.run_ids()) == 1


class TestLaunchFleet:
    def test_two_process_stress_shared_store(self, tmp_path):
        """The tentpole guarantee: 2 workers, 8 cells, one store; zero lost
        runs, every cell persisted exactly once, index layer consistent."""
        study = eight_cell_study()
        store = ResultStore(tmp_path / "store")
        report = launch_fleet(study, store, workers=2, lease_timeout=120.0,
                              poll_interval=0.05)
        cells = study.expand()
        assert len(cells) == 8
        # Zero lost runs: every cell executed and persisted exactly once.
        assert [cell.cell_id for cell in report.executed] == \
            [cell.cell_id for cell in cells]
        assert not report.failures
        assert len(store.run_ids()) == 8
        assert len(store.entries()) == 8
        tags = study_run_tags(study)
        for cell in cells:
            assert run_id_for(cell.spec, tags) in store
        # Worker attribution covers exactly the executed cells.
        attributed = [cell_id for cells_ in report.cells_by_worker.values()
                      for cell_id in cells_]
        assert sorted(attributed) == sorted(c.cell_id for c in cells)
        # The coordinator compacted the journal into index.json...
        assert store.journal_path.read_text() == ""
        before = store.index_path.read_bytes()
        # ...and a cold rebuild from the run files is a byte-level no-op.
        assert store.rebuild_index() == 8
        assert store.index_path.read_bytes() == before

    def test_fleet_resume_is_a_no_op(self, tmp_path):
        study = tiny_study()
        store = ResultStore(tmp_path / "store")
        first = launch_fleet(study, store, workers=2, poll_interval=0.05)
        assert len(first.executed) == 2
        second = launch_fleet(study, store, workers=2, poll_interval=0.05)
        assert not second.executed
        assert [cell.cell_id for cell in second.skipped] == \
            [cell.cell_id for cell in study.expand()]
        assert len(store.run_ids()) == 2

    def test_fleet_resumes_past_study_runner_results(self, tmp_path):
        """Fleet and StudyRunner agree on run identity (shared tags)."""
        from repro.study import StudyRunner

        study = tiny_study()
        store = ResultStore(tmp_path / "store")
        StudyRunner(store).run(study)
        report = launch_fleet(study, store, workers=2, poll_interval=0.05)
        assert not report.executed and len(report.skipped) == 2

    def test_fleet_and_study_runner_write_identical_stores(self, tmp_path,
                                                           monkeypatch):
        """The one-path invariant: in-process and fleet execution of a study
        leave byte-identical stores (run files and compacted index)."""
        from repro.chaos import store_digest
        from repro.store import FIXED_CREATED_AT_ENV
        from repro.study import StudyRunner

        monkeypatch.setenv(FIXED_CREATED_AT_ENV, "1000000000.0")
        study = tiny_study()
        in_process = ResultStore(tmp_path / "in-process")
        StudyRunner(in_process).run(study)
        fleet = ResultStore(tmp_path / "fleet")
        launch_fleet(study, fleet, workers=2, poll_interval=0.05)
        assert len(in_process.run_ids()) == 2
        assert store_digest(in_process) == store_digest(fleet)

    def test_new_tags_re_execute_despite_old_done_records(self, tmp_path):
        """Tags are part of run identity: a second invocation under a new
        tag set must genuinely re-run every cell -- the previous
        invocation's queue done-records (keyed by cell id, not by run id)
        must not masquerade as this invocation's outcomes."""
        study = tiny_study()
        store = ResultStore(tmp_path / "store")
        launch_fleet(study, store, workers=1, poll_interval=0.05)
        report = launch_fleet(study, store, workers=1, poll_interval=0.05,
                              tags=("baseline",))
        assert len(report.executed) == 2 and not report.skipped
        # The baseline-tagged runs really exist in the store.
        assert len(store.query(tag="baseline")) == 2
        assert len(store.run_ids()) == 4

    def test_narrower_grid_prunes_stale_cells(self, tmp_path):
        """An interrupted invocation's leftover cells must not be executed
        by a later invocation with a narrower grid (the queue directory is
        keyed by study name and survives invocations)."""
        wide = tiny_study()  # cluster_sizes (1, 2)
        narrow = StudySpec(name=wide.name, base=wide.base,
                           axes=StudyAxes(cluster_sizes=(1,)))
        store = ResultStore(tmp_path / "store")
        # Simulate an interrupted wide run: cells queued, nothing executed.
        from repro.fleet.worker import _queued_cells, default_queue_root

        queue = WorkQueue(default_queue_root(store, wide.name))
        queued, _ = _queued_cells(wide, store, study_run_tags(wide), True,
                                  wide.expand())
        queue.populate(queued)
        assert len(queue.outstanding()) == 2
        # The narrow invocation runs only its own single cell...
        report = launch_fleet(narrow, store, workers=1, poll_interval=0.05)
        assert [cell.cell_id for cell in report.executed] == \
            [cell.cell_id for cell in narrow.expand()]
        assert len(store.run_ids()) == 1
        # ...and the stale wide-grid cell is gone from the queue entirely.
        assert not queue.outstanding()
        assert [cell.cell_id for cell in queue.cells()] == \
            [cell.cell_id for cell in narrow.expand()]

    def test_deleted_run_is_re_executed(self, tmp_path):
        """A run deleted from the store re-queues its cell even though the
        queue still holds the old invocation's done record."""
        study = tiny_study()
        store = ResultStore(tmp_path / "store")
        first = launch_fleet(study, store, workers=1, poll_interval=0.05)
        store.delete(first.executed[0].run_id)
        second = launch_fleet(study, store, workers=1, poll_interval=0.05)
        assert [cell.cell_id for cell in second.executed] == \
            [first.executed[0].cell_id]
        assert len(second.skipped) == 1
        assert len(store.run_ids()) == 2

    def test_failed_cell_raises_cell_error_with_report(self, tmp_path):
        study = StudySpec(
            name="bad", base=base_spec(
                workload=WorkloadSpec(
                    tokens_per_device=1024, layers=1, iterations=2, warmup=1,
                    seed=3, scenario="trace-replay",
                    params={"path": str(tmp_path / "missing.npz")})),
            axes=StudyAxes(cluster_sizes=(1, 2)))
        store = ResultStore(tmp_path / "store")
        with pytest.raises(StudyCellError) as excinfo:
            launch_fleet(study, store, workers=1, poll_interval=0.05)
        report = excinfo.value.report
        assert len(report.failures) == 2
        assert all(f.kind == "cell" for f in report.failures)
        # check=False returns the same report without raising.
        report = launch_fleet(study, store, workers=1, poll_interval=0.05,
                              check=False)
        assert len(report.failures) == 2

    def test_store_failure_raises_store_error(self, tmp_path):
        study = tiny_study()
        store = ResultStore(tmp_path / "store")
        # A file squatting on the runs/ path: every put fails with OSError
        # (works regardless of uid, unlike permission bits).
        store.root.mkdir(parents=True)
        (store.root / "runs").write_text("not a directory")
        with pytest.raises(StudyStoreError):
            launch_fleet(study, store, workers=1, poll_interval=0.05)

    def test_workers_validated(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            launch_fleet(tiny_study(), ResultStore(tmp_path), workers=0)

    def test_report_serializes(self, tmp_path):
        study = tiny_study()
        store = ResultStore(tmp_path / "store")
        report = launch_fleet(study, store, workers=1, poll_interval=0.05)
        payload = json.dumps(report.to_dict())
        assert "tiny-fleet" in payload
        assert "worker-1=2" in report.worker_summary()


class TestSupervisedRespawn:
    def test_crashed_worker_is_respawned_and_recorded(self, tmp_path,
                                                      monkeypatch):
        from repro.chaos import CHAOS_PLAN_ENV, FaultPlan, FaultSpec

        plan = FaultPlan(name="kill-w1", faults=(
            FaultSpec(point="worker.pre-run", kind="crash", at=1,
                      scope="worker-1"),))
        monkeypatch.setenv(CHAOS_PLAN_ENV,
                           plan.save(str(tmp_path / "plan.json")))
        store = ResultStore(tmp_path / "store")
        report = launch_fleet(tiny_study(), store, workers=2,
                              lease_timeout=1.0, poll_interval=0.05,
                              queue_root=tmp_path / "queue",
                              respawn_limit=2)
        assert report.respawns.get("worker-1", 0) >= 1
        assert report.failures == []
        assert len(report.executed) == 2
        assert "respawns:" in report.summary()
        assert report.to_dict()["respawns"] == report.respawns

    def test_no_respawns_keeps_summary_format(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = launch_fleet(tiny_study(), store, workers=1,
                              poll_interval=0.05)
        assert report.respawns == {}
        assert "respawns:" not in report.summary()

    def test_worker_dying_mid_pass_is_still_supervised(self, tmp_path,
                                                       monkeypatch):
        """A worker read alive by the supervision pass and dead right after
        must be respawned on the next pass, not end the loop unsupervised.
        Stand-in workers make the timing deterministic: each is alive at
        its first liveness read and SIGKILLed from the second on."""
        import multiprocessing
        import signal

        class DiesAfterFirstRead:
            def __init__(self, target=None, args=(), name=None):
                self.reads = 0
                self.sentinel, self._write = os.pipe()  # never ready

            def start(self):
                pass

            def is_alive(self):
                self.reads += 1
                return self.reads == 1

            @property
            def exitcode(self):
                return None if self.reads < 2 else -signal.SIGKILL

            def join(self):
                for fd in (self.sentinel, self._write):
                    try:
                        os.close(fd)
                    except OSError:
                        pass

        monkeypatch.setattr(multiprocessing, "Process", DiesAfterFirstRead)
        report = launch_fleet(tiny_study(), ResultStore(tmp_path / "store"),
                              workers=2, poll_interval=0.01,
                              queue_root=tmp_path / "queue", check=False,
                              respawn_limit=1)
        assert report.respawns == {"worker-1": 1, "worker-2": 1}
        assert len(report.failures) == 2   # the stand-ins run no cell
