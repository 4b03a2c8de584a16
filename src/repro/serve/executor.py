"""Resident executors for cache misses: in-process pool or fleet hand-off.

The serve daemon never simulates inside a request handler thread directly;
misses are scheduled onto a resident executor so the daemon controls how
much simulation runs concurrently and can drain cleanly on shutdown.  Two
implementations share one small contract (``submit(spec, tags) -> Future``
resolving to the :class:`~repro.store.StoredRun` envelope, plus
``shutdown(wait)``):

* :class:`PoolExecutor` -- the default: a bounded in-process thread pool
  running an :class:`~repro.api.ExperimentRunner` per miss and
  persisting straight to the daemon's store.  (Threads, so the store
  instance -- with its index read cache -- is shared.  A miss holds the
  GIL for over half of its run, because its NumPy calls are small, so
  request threads wait on it: hit latency tracks how long misses run.)
* :class:`FleetQueueExecutor` -- hand-off to an attached fleet queue: the
  miss is enqueued as a :class:`~repro.fleet.QueuedCell` and executed by
  whatever ``repro fleet``-style workers drain that queue (other
  processes, other hosts on a shared filesystem); a single watcher thread
  polls the queue's outcome records and resolves the futures.  The daemon
  machine then serves cache traffic only.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.api.runner import ExperimentRunner
from repro.api.specs import ExperimentSpec
from repro.chaos.injection import inject
from repro.chaos.retry import CircuitBreaker, RetryError, RetryPolicy
from repro.fleet.queue import QueuedCell, WorkQueue, cell_key
from repro.store import ResultStore, StoredRun, run_id_for
from repro.telemetry.metrics import counter as _metrics_counter

_M_EXECUTED = _metrics_counter(
    "repro_serve_executed_total",
    "cache misses actually simulated by a resident executor")
_M_FELL_BACK = _metrics_counter(
    "repro_serve_fallback_total",
    "submissions answered by the degraded-mode fallback executor")


class QueueStuck(RuntimeError):
    """A fleet-handed cell sat outcome-less with no live worker lease past
    the executor's ``stuck_timeout`` -- the signal the serving tier's
    circuit breaker trips on (see :class:`FallbackExecutor`)."""


class PoolExecutor:
    """Bounded in-process executor: simulate, persist, return the envelope.

    Args:
        store: Store every finished run is persisted to.
        max_workers: Concurrent simulations (default 1: misses queue up
            behind each other, which keeps a small host responsive for the
            cache-hit traffic that dominates a warm server).
    """

    kind = "pool"

    def __init__(self, store: ResultStore, max_workers: int = 1):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.store = store
        self.max_workers = int(max_workers)
        self._pool = ThreadPoolExecutor(max_workers=self.max_workers,
                                        thread_name_prefix="repro-serve")
        self.executed = 0  # simulations actually run (not cache traffic)
        self._counter_lock = threading.Lock()

    def submit(self, spec: ExperimentSpec,
               tags: Sequence[str] = ()) -> "Future[StoredRun]":
        return self._pool.submit(self._run, spec, tuple(tags))

    def _run(self, spec: ExperimentSpec, tags: Tuple[str, ...]) -> StoredRun:
        inject("serve.pre-execute", spec=spec.name)
        result = ExperimentRunner().run(spec)
        stored = self.store.put(result, tags=tags)
        with self._counter_lock:
            self.executed += 1
        _M_EXECUTED.inc()
        return stored

    def in_flight(self) -> int:
        """Submissions queued behind the pool (approximate, for ``/status``;
        the daemon's in-flight table is the authoritative figure)."""
        return self._pool._work_queue.qsize()

    def health(self) -> Dict[str, object]:
        """Liveness snapshot for ``GET /health`` (a pool is always live)."""
        return {"kind": self.kind, "ok": True, "in_flight": self.in_flight(),
                "executed": self.executed}

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


class FleetQueueExecutor:
    """Hand misses to a fleet work queue instead of simulating in-process.

    The daemon populates one :class:`~repro.fleet.QueuedCell` per miss
    (keyed, like everything else, by the content-hashed run id -- so
    re-submitting a lost cell is idempotent) and a watcher thread polls the
    queue's ``done``/``failed`` records, loading the stored run from the
    shared store once a worker completed the cell.  Workers are *attached*,
    not owned: start them separately, e.g.::

        repro serve --store ./store --executor fleet &
        # in other terminals / on other hosts sharing the filesystem:
        python -c "from repro.fleet import FleetWorker; \\
                   FleetWorker('./store/queue/serve', './store').run()"

    Args:
        store: Shared store the workers persist into (and we read from).
        queue: Work queue (or its root directory) the workers drain.
        poll_interval: Watcher sleep between outcome scans.
        stuck_timeout: Seconds a submitted cell may sit with neither an
            outcome nor a live lease before its future fails with
            :class:`QueueStuck` (None: wait forever, the historical
            behavior).  "No live lease" is what distinguishes a stuck
            queue -- no workers attached, or all of them dead -- from a
            merely slow cell, whose owner keeps heart-beating.
        store_retry: Retry policy for loading a completed cell's run from
            the store: on a shared filesystem the worker's run file can
            trail its done record, so the watcher backs off briefly
            instead of failing the future on the first ``KeyError``.
    """

    kind = "fleet"

    def __init__(self, store: ResultStore,
                 queue: Union[WorkQueue, str, Path],
                 poll_interval: float = 0.2,
                 stuck_timeout: Optional[float] = None,
                 store_retry: Optional[RetryPolicy] = None):
        self.store = store
        self.queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue)
        self.poll_interval = float(poll_interval)
        self.stuck_timeout = (None if stuck_timeout is None
                              else float(stuck_timeout))
        self.store_retry = store_retry if store_retry is not None else \
            RetryPolicy(retries=3, base_delay_s=0.05, max_delay_s=0.5, seed=0)
        self.executed = 0  # cells completed by the attached workers
        self._lock = threading.Lock()
        self._watched: Dict[str, "Future[StoredRun]"] = {}  # key -> future
        self._submitted_at: Dict[str, float] = {}
        self._watcher: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def submit(self, spec: ExperimentSpec,
               tags: Sequence[str] = ()) -> "Future[StoredRun]":
        tags = tuple(sorted({str(tag) for tag in tags}))
        run_id = run_id_for(spec, tags)
        cell_id = f"serve/{run_id}"
        key = cell_key(cell_id)
        future: "Future[StoredRun]" = Future()
        with self._lock:
            existing = self._watched.get(key)
            if existing is not None:
                return existing  # already queued (e.g. a retried request)
            self._watched[key] = future
            self._submitted_at[key] = time.time()
        # Populate drops any stale outcome record for the key, so a cell
        # that failed on a previous attempt is genuinely re-armed.
        self.queue.populate([QueuedCell(key=key, cell_id=cell_id, spec=spec,
                                        tags=tags)])
        self._ensure_watcher()
        return future

    # ------------------------------------------------------------------
    def _ensure_watcher(self) -> None:
        with self._lock:
            if self._watcher is not None and self._watcher.is_alive():
                return
            self._watcher = threading.Thread(target=self._watch_loop,
                                             name="repro-serve-fleet-watcher",
                                             daemon=True)
            self._watcher.start()

    def _watch_loop(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                watched = dict(self._watched)
            if not watched:
                # Park until the next submit restarts the watcher.
                with self._lock:
                    if not self._watched:
                        self._watcher = None
                        return
                continue
            for key, future in watched.items():
                self._check_outcome(key, future)
            self._stop.wait(self.poll_interval)
        # Shutdown: fail whatever is still unresolved so waiters unblock.
        with self._lock:
            leftover = dict(self._watched)
            self._watched.clear()
            self._submitted_at.clear()
        for key, future in leftover.items():
            if not future.done():
                future.set_exception(RuntimeError(
                    f"serve daemon shut down before fleet workers "
                    f"completed cell {key!r} (the cell stays queued; "
                    f"workers may still finish it)"))

    def _check_outcome(self, key: str, future: "Future[StoredRun]") -> None:
        record = self.queue.done_records().get(key)
        if record is not None:
            run_id = str(record.get("run_id", ""))
            try:
                stored = self.store_retry.call(
                    lambda: self.store.get(run_id), retryable=(KeyError,))
            except RetryError as error:
                self._resolve(key, future, error=RuntimeError(
                    f"fleet worker recorded cell {key!r} done but its run "
                    f"is not in the store: {error.__cause__}"))
                return
            with self._lock:
                self.executed += 1
            _M_EXECUTED.inc()
            self._resolve(key, future, stored=stored)
            return
        record = self.queue.failed_records().get(key)
        if record is not None:
            self._resolve(key, future, error=RuntimeError(
                f"fleet worker failed cell {key!r} "
                f"[{record.get('kind', 'cell')}]: {record.get('error', '')}"))
            return
        if self.stuck_timeout is not None and self._is_stuck(key):
            self._resolve(key, future, error=QueueStuck(
                f"cell {key!r} has neither an outcome nor a live worker "
                f"lease after {self.stuck_timeout:.1f}s -- no fleet worker "
                f"is draining queue {self.queue.root}"))

    def _is_stuck(self, key: str) -> bool:
        with self._lock:
            submitted_at = self._submitted_at.get(key)
        if submitted_at is None or \
                time.time() - submitted_at < self.stuck_timeout:
            return False
        info = self.queue.lease_info(key)
        return info is None or info.age() > self.queue.lease_timeout

    def _resolve(self, key: str, future: "Future[StoredRun]",
                 stored: Optional[StoredRun] = None,
                 error: Optional[BaseException] = None) -> None:
        with self._lock:
            self._watched.pop(key, None)
            self._submitted_at.pop(key, None)
        if future.done():
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(stored)

    def in_flight(self) -> int:
        with self._lock:
            return len(self._watched)

    def health(self) -> Dict[str, object]:
        """Queue liveness for ``GET /health``: a fleet executor is healthy
        when nothing is outstanding or some worker holds a live lease."""
        status = self.queue.status()
        live = sum(1 for lease in status.leases
                   if lease.age() <= self.queue.lease_timeout)
        outstanding = status.pending + status.leased
        return {"kind": self.kind, "ok": outstanding == 0 or live > 0,
                "in_flight": self.in_flight(), "executed": self.executed,
                "pending": status.pending, "leased": status.leased,
                "live_workers": live}

    def shutdown(self, wait: bool = True) -> None:
        """Stop watching.  With ``wait``, give in-flight cells a drain
        window first: queued work belongs to external workers, so "drain"
        means waiting for their outcomes, not cancelling them."""
        if wait:
            deadline = time.time() + max(self.poll_interval * 2, 0.5)
            while self.in_flight() and time.time() < deadline:
                time.sleep(min(self.poll_interval, 0.1))
            while self.in_flight():
                # Keep waiting as long as workers are visibly alive (a
                # lease heartbeat younger than the queue's timeout).
                status = self.queue.status()
                if not status.leases:
                    break
                time.sleep(min(self.poll_interval, 0.2))
        self._stop.set()
        watcher = self._watcher
        if watcher is not None:
            watcher.join(timeout=5.0)


class FallbackExecutor:
    """Graceful degradation: a primary executor behind a circuit breaker,
    with an in-process fallback when the primary is (or just was) failing.

    The intended pairing is ``FleetQueueExecutor`` primary + ``PoolExecutor``
    fallback: when the fleet queue is stuck (no workers draining it --
    :class:`QueueStuck`), the breaker records the failure and the miss is
    re-run on the fallback so the *request still gets answered*, just
    slower and on the daemon's own CPU.  After ``breaker.failure_threshold``
    consecutive stuck cells the breaker opens and misses skip the dead
    queue entirely (no ``stuck_timeout`` of added latency per request)
    until a cooldown-spaced probe finds the fleet alive again.

    Only :class:`QueueStuck` failures trip the breaker and reroute --
    a cell that genuinely *failed* on a worker would fail identically
    in-process, so those propagate unchanged.
    """

    kind = "fallback"

    def __init__(self, primary, fallback,
                 breaker: Optional[CircuitBreaker] = None):
        self.primary = primary
        self.fallback = fallback
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.fell_back = 0  # submissions answered by the fallback
        self._lock = threading.Lock()

    @property
    def executed(self) -> int:
        return self.primary.executed + self.fallback.executed

    def submit(self, spec: ExperimentSpec,
               tags: Sequence[str] = ()) -> "Future[StoredRun]":
        if not self.breaker.allow():
            with self._lock:
                self.fell_back += 1
            _M_FELL_BACK.inc()
            return self.fallback.submit(spec, tags)
        future: "Future[StoredRun]" = Future()
        self.primary.submit(spec, tags).add_done_callback(
            lambda done: self._on_primary(done, spec, tuple(tags), future))
        return future

    def _on_primary(self, done: "Future[StoredRun]", spec: ExperimentSpec,
                    tags: Tuple[str, ...],
                    future: "Future[StoredRun]") -> None:
        error = done.exception()
        if error is None:
            self.breaker.record_success()
            if not future.done():
                future.set_result(done.result())
            return
        if not isinstance(error, QueueStuck):
            if not future.done():
                future.set_exception(error)
            return
        self.breaker.record_failure()
        with self._lock:
            self.fell_back += 1
        _M_FELL_BACK.inc()
        self.fallback.submit(spec, tags).add_done_callback(
            lambda fb: self._chain(fb, future))

    @staticmethod
    def _chain(source: "Future[StoredRun]",
               target: "Future[StoredRun]") -> None:
        if target.done():
            return
        error = source.exception()
        if error is not None:
            target.set_exception(error)
        else:
            target.set_result(source.result())

    def in_flight(self) -> int:
        return self.primary.in_flight() + self.fallback.in_flight()

    def health(self) -> Dict[str, object]:
        primary = self.primary.health()
        fallback = self.fallback.health()
        return {"kind": self.kind,
                # The tier still answers requests as long as either side
                # is healthy; an open breaker means "degraded", not down.
                "ok": bool(primary.get("ok") or fallback.get("ok")),
                "degraded": self.breaker.state != "closed",
                "breaker": self.breaker.to_dict(),
                "fell_back": self.fell_back,
                "primary": primary, "fallback": fallback}

    def shutdown(self, wait: bool = True) -> None:
        self.primary.shutdown(wait=wait)
        self.fallback.shutdown(wait=wait)
