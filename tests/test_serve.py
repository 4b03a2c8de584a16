"""Tests for the serving tier: coalescing, cache semantics, HTTP daemon."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

from repro.api import (
    ClusterSpec,
    ExperimentRunner,
    ExperimentSpec,
    WorkloadSpec,
)
from repro.serve import (
    FleetQueueExecutor,
    InFlightTable,
    PoolExecutor,
    ReproServer,
    ServeApp,
    ServeClient,
    ServeError,
    ServeUnavailable,
    parse_submission,
)
from repro.fleet import FleetWorker, WorkQueue
from repro.store import ResultStore, run_id_for, spec_fingerprint
from repro.study import StudyAxes, StudySpec
from repro.study.runner import split_resumable_cells, study_run_tags


def serve_spec(name="serve-test", **overrides) -> ExperimentSpec:
    defaults = dict(
        name=name,
        cluster=ClusterSpec(num_nodes=1, devices_per_node=4),
        workload=WorkloadSpec(tokens_per_device=1024, layers=1,
                              iterations=2, warmup=1, seed=7),
        systems=("laer",),
        reference="laer",
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def tiny_study(name="serve-study") -> StudySpec:
    return StudySpec(name=name, base=serve_spec(),
                     axes=StudyAxes(cluster_sizes=(4, 8)))


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


# ----------------------------------------------------------------------
# In-flight table
# ----------------------------------------------------------------------
class TestInFlightTable:
    def test_first_caller_leads_rest_join(self):
        table = InFlightTable()
        leading, entry = table.join_or_lead("fp", "run-1")
        assert leading and entry.followers == 0
        again, joined = table.join_or_lead("fp", "run-other")
        assert not again
        assert joined is entry
        assert joined.run_id == "run-1"  # the leader's id wins
        assert (table.led, table.coalesced) == (1, 1)
        assert len(table) == 1

    def test_resolve_wakes_followers_with_result(self):
        table = InFlightTable()
        _, entry = table.join_or_lead("fp", "run-1")
        table.join_or_lead("fp", "run-1")
        table.resolve("fp", result="run-1")
        assert entry.future.result(timeout=1) == "run-1"
        assert len(table) == 0

    def test_resolve_pops_before_resolving(self):
        """A request arriving after resolution must start a fresh entry."""
        table = InFlightTable()
        table.join_or_lead("fp", "run-1")
        table.resolve("fp", result="run-1")
        leading, entry = table.join_or_lead("fp", "run-2")
        assert leading  # not coalesced onto the dead entry
        assert not entry.future.done()

    def test_error_resolution_propagates(self):
        table = InFlightTable()
        _, entry = table.join_or_lead("fp", "run-1")
        table.resolve("fp", error=RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            entry.future.result(timeout=1)

    def test_resolve_unknown_fingerprint_is_noop(self):
        assert InFlightTable().resolve("nope", result="x") is None

    def test_entries_snapshot_oldest_first(self):
        table = InFlightTable()
        _, first = table.join_or_lead("a", "run-a")
        first.created_at -= 10
        table.join_or_lead("b", "run-b")
        assert [e.fingerprint for e in table.entries()] == ["a", "b"]
        assert table.get("a") is first
        assert table.get("zz") is None


# ----------------------------------------------------------------------
# Payload parsing
# ----------------------------------------------------------------------
class TestParseSubmission:
    def test_enveloped_spec(self):
        spec, study = parse_submission({"spec": serve_spec().to_dict()})
        assert study is None
        assert spec == serve_spec()

    def test_bare_spec_dict(self):
        spec, study = parse_submission(serve_spec().to_dict())
        assert study is None and spec == serve_spec()

    def test_enveloped_and_bare_study(self):
        for payload in (
                {"study": tiny_study().to_dict()}, tiny_study().to_dict()):
            spec, study = parse_submission(payload)
            assert spec is None
            assert study.name == "serve-study"

    def test_rejects_unrecognized_body(self):
        with pytest.raises(ServeError) as info:
            parse_submission({"nonsense": 1})
        assert info.value.status == 400

    def test_rejects_invalid_spec(self):
        with pytest.raises(ServeError) as info:
            parse_submission({"spec": {"workload": {"no_such_field": 1}}})
        assert info.value.status == 400

    def test_rejects_non_object(self):
        with pytest.raises(ServeError):
            parse_submission(["not", "a", "dict"])
        with pytest.raises(ServeError):
            parse_submission({"spec": "not-a-dict"})


# ----------------------------------------------------------------------
# ServeApp core semantics (no sockets)
# ----------------------------------------------------------------------
class GatedExecutor:
    """Pool-like executor whose executions block on an event -- lets tests
    hold N requests provably concurrent before any execution finishes."""

    kind = "gated"

    def __init__(self, store: ResultStore):
        self.store = store
        self.release = threading.Event()
        self.executed = 0
        self.submitted = 0
        self._lock = threading.Lock()

    def submit(self, spec, tags=()):
        with self._lock:
            self.submitted += 1
        future = Future()

        def run():
            assert self.release.wait(20), "test never released the gate"
            try:
                result = ExperimentRunner().run(spec)
                stored = self.store.put(result, tags=tuple(tags))
            except Exception as error:
                future.set_exception(error)
                return
            with self._lock:
                self.executed += 1
            future.set_result(stored)

        threading.Thread(target=run, daemon=True).start()
        return future

    def in_flight(self):
        return 0

    def shutdown(self, wait=True):
        self.release.set()


class TestServeApp:
    def test_miss_then_hit(self, store):
        app = ServeApp(store)
        try:
            status, body = app.submit_spec(serve_spec())
            assert status == 200
            assert (body["status"], body["cache"]) == ("done", "miss")
            status, body2 = app.submit_spec(serve_spec())
            assert (status, body2["cache"]) == (200, "hit")
            assert body2["run_id"] == body["run_id"]
            assert body2["entry"]["run_id"] == body["run_id"]
            assert app.executor.executed == 1
            assert len(store) == 1
        finally:
            app.drain()

    def test_tag_only_difference_is_cache_hit(self, store):
        """A spec differing only in tags (client or explicit) must not
        re-run: tags are storage metadata, not part of the cache key."""
        app = ServeApp(store)
        try:
            _, body = app.submit_spec(serve_spec(), tags=("alpha",),
                                      client="alice")
            assert body["cache"] == "miss"
            _, body2 = app.submit_spec(serve_spec(), tags=("beta",),
                                       client="bob")
            assert body2["cache"] == "hit"
            assert body2["run_id"] == body["run_id"]
            assert app.executor.executed == 1
            assert len(store) == 1
            # The stored run carries the *first* requester's tags.
            stored = store.get(body["run_id"])
            assert stored.tags == ("alpha", "client:alice")
        finally:
            app.drain()

    def test_concurrent_identical_submissions_execute_once(self, store):
        """The acceptance-criteria test: N provably-concurrent identical
        submissions cause exactly one execution and one stored run."""
        gate = GatedExecutor(store)
        app = ServeApp(store, executor=gate)
        spec = serve_spec(name="coalesce-me")
        n = 8
        replies = [None] * n

        def submit(i):
            replies[i] = app.submit_spec(spec, client=f"client-{i}")

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        # Wait until every request has passed join_or_lead (exactly one
        # leader scheduled an execution; everyone else joined it), *then*
        # let the execution finish.
        deadline = time.time() + 10
        while app.status()["requests"]["requests"] < n:
            assert time.time() < deadline
            time.sleep(0.005)
        assert gate.submitted == 1
        gate.release.set()
        for thread in threads:
            thread.join(timeout=20)
        statuses = [reply[0] for reply in replies]
        caches = sorted(body["cache"] for _, body in replies)
        assert statuses == [200] * n
        assert caches == ["coalesced"] * (n - 1) + ["miss"]
        assert gate.executed == 1
        assert len(store) == 1  # the store gained exactly one run
        run_ids = {body["run_id"] for _, body in replies}
        assert len(run_ids) == 1

    def test_execution_error_propagates_and_clears_entry(self, store):
        class FailingExecutor:
            kind = "failing"
            executed = 0

            def submit(self, spec, tags=()):
                future = Future()
                future.set_exception(RuntimeError("device on fire"))
                return future

            def in_flight(self):
                return 0

            def shutdown(self, wait=True):
                pass

        app = ServeApp(store, executor=FailingExecutor())
        status, body = app.submit_spec(serve_spec())
        assert status == 500
        assert body["status"] == "failed"
        assert "device on fire" in body["error"]
        assert len(app.inflight) == 0  # entry cleared: retries can lead
        assert app.status()["requests"]["errors"] == 1
        assert app.status()["recent_errors"]

    def test_no_wait_schedules_and_store_catches_up(self, store):
        app = ServeApp(store)
        try:
            status, body = app.submit_spec(serve_spec(), wait=False)
            assert status == 202
            assert body["status"] == "scheduled"
            expected = body["run_id"]
            deadline = time.time() + 20
            while expected not in store:
                assert time.time() < deadline
                time.sleep(0.01)
        finally:
            app.drain()
        assert store.get(expected).run_id == expected

    def test_study_submission_and_resume_compatibility(self, store):
        app = ServeApp(store)
        try:
            study = tiny_study()
            status, body = app.submit_study(study)
            assert status == 200
            assert body["status"] == "done"
            assert body["cache"] == {"hit": 0, "coalesced": 0, "miss": 2}
            assert len(store) == 2
            # Identical study again: answered entirely from the cache.
            status, body2 = app.submit_study(study)
            assert status == 200
            assert body2["cache"]["miss"] == 0
            assert app.executor.executed == 2
            # The runs are stored under the StudyRunner's tag scheme, so
            # an offline study run over the same store resumes them all.
            pending, resumed = split_resumable_cells(
                study, store, tags=study_run_tags(study))
            assert pending == []
            assert len(resumed) == 2
        finally:
            app.drain()

    def test_drain_compacts_journal(self, store):
        app = ServeApp(store)
        app.submit_spec(serve_spec())
        assert store.journal_path.stat().st_size > 0
        app.drain()
        assert store.journal_path.stat().st_size == 0
        assert json.loads(store.index_path.read_text())["runs"]

    def test_seeded_fingerprint_map_hits_prior_runs(self, store):
        """Runs stored before the daemon existed (by a study, a fleet, a
        previous daemon) are cache hits even under unknown tags."""
        result = ExperimentRunner().run(serve_spec())
        store.put(result, tags=("study:old", "baseline"))
        app = ServeApp(store)
        status, body = app.submit_spec(serve_spec(), client="new-client")
        assert (status, body["cache"]) == (200, "hit")
        assert app.executor.executed == 0


class TestFleetExecutor:
    def test_miss_is_drained_by_attached_worker(self, store, tmp_path):
        queue = WorkQueue(tmp_path / "queue", lease_timeout=30.0)
        executor = FleetQueueExecutor(store, queue, poll_interval=0.05)
        app = ServeApp(store, executor=executor)
        status, body = app.submit_spec(serve_spec(), wait=False)
        assert status == 202
        assert queue.outstanding()  # the miss became a queued cell
        worker = FleetWorker(queue, store, worker_id="attached-1",
                             poll_interval=0.05)
        report = worker.run()
        assert report.executed  # the external worker simulated it
        deadline = time.time() + 10
        while body["run_id"] not in store:
            assert time.time() < deadline
            time.sleep(0.02)
        status, hot = app.submit_spec(serve_spec())
        assert (status, hot["cache"]) == (200, "hit")
        # The watcher thread notices the done record on its next poll.
        while executor.executed < 1:
            assert time.time() < deadline
            time.sleep(0.02)
        app.drain()

    def test_worker_failure_propagates(self, store, tmp_path):
        queue = WorkQueue(tmp_path / "queue", lease_timeout=30.0)
        executor = FleetQueueExecutor(store, queue, poll_interval=0.05)
        app = ServeApp(store, executor=executor)
        # An invalid scenario parameter makes the cell fail in the worker.
        bad = serve_spec(workload=WorkloadSpec(
            tokens_per_device=1024, layers=1, iterations=2, warmup=1,
            seed=7, params={"period": 1}, scenario="bursty-churn"))
        waiter = {}

        def submit():
            waiter["reply"] = app.submit_spec(bad, timeout=20)

        thread = threading.Thread(target=submit)
        thread.start()
        deadline = time.time() + 10
        while not queue.outstanding():  # wait for the miss to be enqueued
            assert time.time() < deadline
            time.sleep(0.02)
        worker = FleetWorker(queue, store, worker_id="attached-1",
                             poll_interval=0.05)
        worker.run()
        thread.join(timeout=20)
        status, body = waiter["reply"]
        assert status == 500
        assert body["status"] == "failed"
        app.drain()


# ----------------------------------------------------------------------
# HTTP daemon end to end
# ----------------------------------------------------------------------
class TestHTTPServer:
    def test_end_to_end_miss_hit_status_result(self, tmp_path):
        with ReproServer(tmp_path / "store", port=0) as server:
            client = ServeClient(server.address, client="pytest")
            cold = client.submit(serve_spec())
            assert cold.done and cold.cache == "miss"
            hot = client.submit(serve_spec())
            assert hot.done and hot.cache == "hit"
            assert hot.run_id == cold.run_id
            assert hot.entry["run_id"] == cold.run_id

            envelope = client.result(cold.run_id)
            assert envelope["run_id"] == cold.run_id
            assert "result" in envelope
            with pytest.raises(KeyError):
                client.result("no-such-run")

            status = client.status()
            assert status["requests"]["hits"] == 1
            assert status["requests"]["misses"] == 1
            assert status["executor"]["executed"] == 1
            client.close()

    def test_http_level_errors(self, tmp_path):
        with ReproServer(tmp_path / "store", port=0) as server:
            client = ServeClient(server.address)
            code, body = client._request("POST", "/run", {"nonsense": True})
            assert code == 400 and "error" in body
            code, body = client._request("GET", "/definitely-not-a-path")
            assert code == 404
            code, body = client._request("POST", "/run",
                                         {"spec": serve_spec().to_dict(),
                                          "tags": "not-a-list"})
            assert code == 400
            client.close()

    def test_concurrent_http_submissions_store_one_run(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with ReproServer(store, port=0) as server:
            n = 6
            barrier = threading.Barrier(n)
            replies = [None] * n

            def submit(i):
                client = ServeClient(server.address, client=f"c{i}")
                barrier.wait(timeout=10)
                replies[i] = client.submit(serve_spec(name="http-coalesce"))
                client.close()

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert all(reply is not None and reply.done for reply in replies)
            assert len({reply.run_id for reply in replies}) == 1
            # Exactly one execution, no matter how the N requests raced
            # (late arrivals may read as store hits rather than coalesced).
            status = ServeClient(server.address).status()
            assert status["executor"]["executed"] == 1
        assert len(store) == 1

    def test_unix_socket_serving(self, tmp_path):
        sock = tmp_path / "serve.sock"
        with ReproServer(tmp_path / "store", unix_socket=sock) as server:
            assert server.url == f"unix:{sock}"
            client = ServeClient(f"unix:{sock}")
            assert client.wait_ready(timeout=10)["service"] == "repro-serve"
            reply = client.submit(serve_spec())
            assert reply.done and reply.cache == "miss"
            assert client.submit(serve_spec()).cache == "hit"
            client.close()
        assert not sock.exists()  # unlinked on close

    def test_graceful_close_drains_scheduled_work(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        server = ReproServer(store, port=0).start()
        client = ServeClient(server.address)
        reply = client.submit(serve_spec(), wait=False)
        assert reply.status in ("scheduled", "done")
        client.close()
        server.close()  # must block until the scheduled run landed
        assert reply.run_id in store
        assert store.journal_path.stat().st_size == 0

    def test_post_shutdown_stops_the_daemon(self, tmp_path):
        server = ReproServer(tmp_path / "store", port=0).start()
        client = ServeClient(server.address)
        client.wait_ready(timeout=10)
        assert client.shutdown().get("status") == "shutting-down"
        deadline = time.time() + 15
        while True:
            try:
                ServeClient(server.address, timeout=1).status()
            except Exception:
                break
            assert time.time() < deadline
            time.sleep(0.05)
        server.close()  # idempotent


# ----------------------------------------------------------------------
# Crash safety: SIGKILL mid-request leaves no torn store state
# ----------------------------------------------------------------------
class TestCrashSafety:
    def test_kill9_mid_request_leaves_store_consistent(self, tmp_path):
        store_root = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--store", str(store_root), "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line
            address = line.split("http://")[1].split()[0]
            client = ServeClient(address, timeout=30)
            # Warm run: completes, so the store holds one good envelope.
            quick = client.submit(serve_spec(name="pre-crash"))
            assert quick.done
            # Slow run: big enough that SIGKILL lands mid-execution.
            slow = serve_spec(name="crash-victim", workload=WorkloadSpec(
                tokens_per_device=8192, layers=2, iterations=60,
                warmup=1, seed=7))
            scheduled = client.submit(slow, wait=False)
            assert scheduled.status in ("scheduled", "done")
            time.sleep(0.3)  # let the execution get going
        finally:
            proc.kill()  # SIGKILL: no drain, no atexit, nothing
            proc.wait(timeout=15)

        # No torn state: every run file parses, the index view is
        # readable, and a rebuild from the run files agrees with it.
        store = ResultStore(store_root)
        for run_id in store.run_ids():
            envelope = store.get(run_id)  # raises on a torn file
            assert envelope.run_id == run_id
        readable = {entry.run_id for entry in store.entries()}
        assert quick.run_id in readable
        rebuilt = store.rebuild_index()
        assert rebuilt == len(store)

        # A fresh daemon on the same store finishes the interrupted work.
        app = ServeApp(store)
        try:
            status, body = app.submit_spec(slow, timeout=120)
            assert (status, body["status"]) == (200, "done")
            _, again = app.submit_spec(serve_spec(name="pre-crash"))
            assert again["cache"] == "hit"
        finally:
            app.drain()


# ----------------------------------------------------------------------
# Degradation: stuck queues, fallback, health, client retry
# ----------------------------------------------------------------------
class TestQueueStuckAndFallback:
    def test_stuck_queue_fails_the_future_with_queue_stuck(self, store,
                                                           tmp_path):
        from repro.serve import FleetQueueExecutor, QueueStuck

        executor = FleetQueueExecutor(
            store, WorkQueue(tmp_path / "queue", lease_timeout=0.3),
            poll_interval=0.05, stuck_timeout=0.3)
        try:
            future = executor.submit(serve_spec(name="stuck"))
            with pytest.raises(QueueStuck):
                future.result(timeout=10)
        finally:
            executor.shutdown()

    def test_fallback_executor_degrades_and_recovers_results(self, store,
                                                             tmp_path):
        from repro.chaos import CircuitBreaker
        from repro.serve import (
            FallbackExecutor,
            FleetQueueExecutor,
            PoolExecutor,
        )

        primary = FleetQueueExecutor(
            store, WorkQueue(tmp_path / "queue", lease_timeout=0.3),
            poll_interval=0.05, stuck_timeout=0.3)
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=3600.0)
        executor = FallbackExecutor(primary, PoolExecutor(store), breaker)
        try:
            first = executor.submit(serve_spec(name="deg-0")).result(
                timeout=30)
            assert first.run_id in store.run_ids()
            assert breaker.state == "open"
            # Breaker open: the second submission skips the queue entirely.
            executor.submit(serve_spec(name="deg-1")).result(timeout=30)
            assert executor.fell_back == 2
            health = executor.health()
            assert health["degraded"] is True
            assert health["fallback"]["ok"] is True
        finally:
            executor.shutdown()
        assert len(store) == 2

    def test_health_endpoint_over_http(self, tmp_path):
        with ReproServer(tmp_path / "store", port=0) as server:
            client = ServeClient(server.address)
            try:
                status, body = client.health()
            finally:
                client.close()
        assert status == 200
        assert body["status"] == "ok"
        assert body["store"]["ok"] is True
        assert body["executor"]["kind"] == "pool"

    def test_client_retry_rides_out_injected_drops(self, tmp_path):
        from repro.chaos import (
            FaultInjector,
            FaultPlan,
            FaultSpec,
            RetryPolicy,
            install,
            uninstall,
        )

        with ReproServer(tmp_path / "store", port=0) as server:
            client = ServeClient(
                server.address, client="retry-test",
                retry=RetryPolicy(retries=4, base_delay_s=0.01,
                                  max_delay_s=0.05, seed=0))
            client.wait_ready()
            install(FaultInjector(FaultPlan(name="drops", faults=(
                FaultSpec(point="serve.client-request", kind="drop",
                          at=1, times=2),))))
            try:
                reply = client.submit(serve_spec(name="dropped"))
            finally:
                uninstall()
                client.close()
            assert reply.done

    def test_client_without_retry_still_fails_fast(self):
        client = ServeClient("127.0.0.1:1")
        with pytest.raises(ServeUnavailable):
            client.status()
