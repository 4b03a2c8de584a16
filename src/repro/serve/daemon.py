"""The ``repro serve`` daemon: a result-cache front door over HTTP.

The serving tier puts the store's content-addressed identity to work as a
memoization layer for live traffic: ``POST /run`` hashes the submitted
spec exactly the way :func:`repro.store.run_id_for` does, so a request
whose experiment was ever run before -- by this daemon, a study, a fleet,
anything sharing the store -- is answered straight from the store in O(1)
without simulating anything.  Misses are scheduled on a resident executor
(:mod:`repro.serve.executor`), and *concurrent identical* misses coalesce
onto one execution through the in-flight table
(:mod:`repro.serve.coalescing`): N clients, one simulation, N answers.

Three layers, separable for testing:

* :class:`ServeApp` -- the protocol-independent core (lookup, coalescing,
  scheduling, stats, drain).  Tests drive it directly, no sockets.
* :class:`_ServeHandler` / the two ``ThreadingHTTPServer`` variants --
  the thin stdlib HTTP skin (TCP or Unix socket).
* :class:`ReproServer` -- lifecycle wrapper: bind, serve (foreground or
  background thread), graceful drain on close.

HTTP surface::

    POST /run            {"spec"|"study": {...}, "tags": [...],
                          "client": str, "wait": bool, "timeout": s}
                         -> 200 done / 202 scheduled / 400 / 500
    GET  /status         -> server + cache + executor counters
    GET  /health         -> store/executor liveness: 200 ok|degraded / 503
    GET  /metrics        -> the telemetry registry, Prometheus text format
    GET  /result/<run_id> -> full stored envelope / 404
    POST /shutdown       -> 200, then the daemon drains and exits

Responses carry ``"cache"``: ``"hit"`` (answered from the store),
``"coalesced"`` (joined an in-flight identical execution) or ``"miss"``
(this request caused a simulation).  Tags -- including the per-client
``client:<name>`` tag -- are deliberately *not* part of the serving cache
key: a request differing only in tags wants the same numbers, so it hits.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import socketserver
import threading
import time
from collections import deque
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.specs import ExperimentSpec
from repro.serve.coalescing import InFlightTable
from repro.serve.executor import PoolExecutor
from repro.store import ResultStore, run_id_for, spec_fingerprint
from repro.study.runner import study_run_tags
from repro.study.spec import StudySpec
from repro.telemetry.metrics import REGISTRY as _METRICS_REGISTRY
from repro.telemetry.metrics import counter as _metrics_counter
from repro.telemetry.metrics import histogram as _metrics_histogram

# Registry mirrors of the request stats, plus a latency histogram --
# scraped via GET /metrics in Prometheus text format.
_M_REQUESTS = _metrics_counter(
    "repro_serve_requests_total", "spec/study submissions received")
_M_HITS = _metrics_counter(
    "repro_serve_cache_hits_total", "submissions answered from the store")
_M_MISSES = _metrics_counter(
    "repro_serve_cache_misses_total", "submissions that led an execution")
_M_COALESCED = _metrics_counter(
    "repro_serve_coalesced_total",
    "submissions that joined an identical in-flight execution")
_M_ERRORS = _metrics_counter(
    "repro_serve_errors_total", "executor failures observed by the daemon")
_M_REQUEST_SECONDS = _metrics_histogram(
    "repro_serve_request_seconds",
    "wall-clock seconds spent answering a submission")

#: Default TCP bind; port 0 lets the OS pick (tests, examples).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8351

#: Default cap on how long a ``wait=true`` request blocks server-side.
DEFAULT_WAIT_TIMEOUT = 600.0

#: The Prometheus text exposition content type served by ``GET /metrics``.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ServeError(Exception):
    """A request error with an HTTP status attached."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def parse_submission(payload: Mapping[str, Any]
                     ) -> Tuple[Optional[ExperimentSpec], Optional[StudySpec]]:
    """Extract the spec or study from a ``POST /run`` payload.

    Accepts the enveloped forms (``{"spec": {...}}`` / ``{"study": {...}}``)
    and, for convenience, a bare spec or study dict -- distinguished by
    shape: experiment specs have a ``workload``, studies have ``base``.
    """
    if not isinstance(payload, Mapping):
        raise ServeError(400, "request body must be a JSON object")
    body: Any = payload
    kind: Optional[str] = None
    if "spec" in payload:
        body, kind = payload["spec"], "spec"
    elif "study" in payload:
        body, kind = payload["study"], "study"
    elif "workload" in payload:
        kind = "spec"
    elif "base" in payload or "axes" in payload:
        kind = "study"
    if kind is None:
        raise ServeError(
            400, 'body must carry "spec" or "study" (or be a bare spec '
                 'dict with "workload" / study dict with "base")')
    if not isinstance(body, Mapping):
        raise ServeError(400, f'"{kind}" must be a JSON object')
    try:
        if kind == "spec":
            return ExperimentSpec.from_dict(body), None
        return None, StudySpec.from_dict(body)
    except (ValueError, KeyError, TypeError) as error:
        raise ServeError(400, f"invalid {kind}: "
                              f"{type(error).__name__}: {error}") from None


class ServeApp:
    """Protocol-independent serving core: cache, coalescing, scheduling.

    Args:
        store: The result store answering (and accumulating) runs.
        executor: A :class:`~repro.serve.executor.PoolExecutor` /
            :class:`~repro.serve.executor.FleetQueueExecutor`; defaults to
            a 1-worker in-process pool on ``store``.
    """

    def __init__(self, store: ResultStore, executor=None):
        self.store = store
        self.executor = executor if executor is not None \
            else PoolExecutor(store)
        self.inflight = InFlightTable()
        self.started_at = time.time()
        self._lock = threading.Lock()
        # fingerprint -> run_id: the tag-agnostic cache key.  Seeded from
        # the index so runs stored by earlier daemons / studies / fleets
        # hit immediately; kept current by our own completions and by
        # index consultations on miss.
        self._by_fingerprint: Dict[str, str] = {}
        for entry in store.entries():
            self._by_fingerprint[entry.fingerprint] = entry.run_id
        self._stats = {"requests": 0, "hits": 0, "misses": 0,
                       "coalesced": 0, "errors": 0}
        self._recent_errors: deque = deque(maxlen=16)
        self._draining = False

    # -- cache lookup ---------------------------------------------------
    def lookup(self, spec: ExperimentSpec, tags: Sequence[str] = (),
               fingerprint: Optional[str] = None) -> Optional[str]:
        """The stored run id answering ``spec``, or None on a true miss.

        Three tiers, cheapest first: the exact (spec, tags) run id and the
        untagged run id are O(1) file stats; then the tag-agnostic
        fingerprint map; finally one pass over the (memory-cached) index --
        which also repairs the map when some *other* writer stored the
        spec under tags we cannot guess.
        """
        run_id = run_id_for(spec, tags)
        if run_id in self.store:
            return run_id
        run_id = run_id_for(spec, ())
        if run_id in self.store:
            return run_id
        fingerprint = fingerprint or spec_fingerprint(spec)
        with self._lock:
            run_id = self._by_fingerprint.get(fingerprint)
        if run_id is not None and run_id in self.store:
            return run_id
        matches = self.store.query(fingerprint=fingerprint)
        if matches:
            newest = max(matches, key=lambda e: (e.created_at, e.run_id))
            with self._lock:
                self._by_fingerprint[fingerprint] = newest.run_id
            return newest.run_id
        return None

    # -- submission -----------------------------------------------------
    def _submit_one(self, spec: ExperimentSpec, tags: Tuple[str, ...]
                    ) -> Tuple[str, str, Optional["Future[str]"]]:
        """Serve one spec: ``(cache, run_id, future)``.

        ``future`` is None when the answer is already in the store
        (``cache == "hit"``); otherwise it resolves to the stored run id
        once the (possibly shared) execution lands.
        """
        fingerprint = spec_fingerprint(spec)
        run_id = self.lookup(spec, tags, fingerprint)
        if run_id is not None:
            with self._lock:
                self._stats["hits"] += 1
            _M_HITS.inc()
            return "hit", run_id, None
        leading, entry = self.inflight.join_or_lead(
            fingerprint, run_id_for(spec, tags))
        if not leading:
            with self._lock:
                self._stats["coalesced"] += 1
            _M_COALESCED.inc()
            return "coalesced", entry.run_id, entry.future
        # Leader.  Re-check the store before paying for a simulation: a
        # concurrent request may have stored this spec between our lookup
        # and winning the table entry (its resolve happens after its put,
        # so by the time we lead, the store is the only place to look).
        run_id = self.lookup(spec, tags, fingerprint)
        if run_id is not None:
            self.inflight.resolve(fingerprint, result=run_id)
            with self._lock:
                self._stats["hits"] += 1
            _M_HITS.inc()
            return "hit", run_id, None
        with self._lock:
            self._stats["misses"] += 1
        _M_MISSES.inc()
        try:
            task = self.executor.submit(spec, tags)
        except Exception as error:  # pool shut down mid-drain, etc.
            self.inflight.resolve(fingerprint, error=error)
            raise
        task.add_done_callback(
            lambda done, fp=fingerprint: self._on_executed(fp, done))
        return "miss", entry.run_id, entry.future

    def _on_executed(self, fingerprint: str, task: "Future") -> None:
        """Executor completion: publish to the map, then wake waiters.

        Order matters: the store write already happened inside the
        executor task, and the fingerprint map is updated before the
        in-flight entry resolves -- so any request arriving after the
        resolve observes a clean cache hit.
        """
        error = task.exception()
        if error is not None:
            _M_ERRORS.inc()
            with self._lock:
                self._stats["errors"] += 1
                self._recent_errors.append(
                    {"fingerprint": fingerprint, "at": time.time(),
                     "error": f"{type(error).__name__}: {error}"})
            self.inflight.resolve(fingerprint, error=error)
            return
        stored = task.result()
        with self._lock:
            self._by_fingerprint[stored.fingerprint] = stored.run_id
        self.inflight.resolve(fingerprint, result=stored.run_id)

    @staticmethod
    def _request_tags(tags: Sequence[str],
                      client: Optional[str]) -> Tuple[str, ...]:
        tags = {str(tag) for tag in tags}
        if client:
            tags.add(f"client:{client}")
        return tuple(sorted(tags))

    def _describe(self, run_id: str) -> Dict[str, Any]:
        entry = self.store.index_entry(run_id)
        return entry.to_dict() if entry is not None else {"run_id": run_id}

    def submit_spec(self, spec: ExperimentSpec, tags: Sequence[str] = (),
                    client: Optional[str] = None, wait: bool = True,
                    timeout: Optional[float] = None
                    ) -> Tuple[int, Dict[str, Any]]:
        """Serve one experiment submission; returns ``(http_status, body)``."""
        with self._lock:
            self._stats["requests"] += 1
        _M_REQUESTS.inc()
        started = time.time()
        full_tags = self._request_tags(tags, client)
        cache, run_id, future = self._submit_one(spec, full_tags)
        response: Dict[str, Any] = {
            "kind": "experiment",
            "cache": cache,
            "run_id": run_id,
            "fingerprint": spec_fingerprint(spec),
        }
        if future is None:
            response.update(status="done", entry=self._describe(run_id),
                            elapsed_s=time.time() - started)
            _M_REQUEST_SECONDS.observe(time.time() - started)
            return 200, response
        if not wait:
            response.update(status="scheduled")
            _M_REQUEST_SECONDS.observe(time.time() - started)
            return 202, response
        try:
            run_id = future.result(timeout=timeout or DEFAULT_WAIT_TIMEOUT)
        except Exception as error:
            response.update(status="failed",
                            error=f"{type(error).__name__}: {error}",
                            elapsed_s=time.time() - started)
            _M_REQUEST_SECONDS.observe(time.time() - started)
            return 500, response
        response.update(status="done", run_id=run_id,
                        entry=self._describe(run_id),
                        elapsed_s=time.time() - started)
        _M_REQUEST_SECONDS.observe(time.time() - started)
        return 200, response

    def submit_study(self, study: StudySpec, tags: Sequence[str] = (),
                     client: Optional[str] = None, wait: bool = True,
                     timeout: Optional[float] = None
                     ) -> Tuple[int, Dict[str, Any]]:
        """Serve a study submission: every cell goes through the same
        cache -> coalesce -> execute path as a single spec, under the tag
        set :class:`repro.study.StudyRunner` would use -- so a study
        previously executed offline is answered entirely from the store,
        and runs this daemon executes are resumable by ``repro study``.
        """
        with self._lock:
            self._stats["requests"] += 1
        _M_REQUESTS.inc()
        started = time.time()
        run_tags = study_run_tags(study, self._request_tags(tags, client))
        cells: List[Dict[str, Any]] = []
        waiters: List[Tuple[Dict[str, Any], "Future[str]"]] = []
        counts = {"hit": 0, "coalesced": 0, "miss": 0}
        for cell in study.expand():
            cache, run_id, future = self._submit_one(cell.spec, run_tags)
            counts[cache] += 1
            row = {"cell_id": cell.cell_id, "cache": cache, "run_id": run_id}
            cells.append(row)
            if future is not None:
                waiters.append((row, future))
        response: Dict[str, Any] = {
            "kind": "study", "study": study.name, "cells": cells,
            "cache": counts,
        }
        if waiters and not wait:
            response.update(status="scheduled")
            return 202, response
        deadline = started + (timeout or DEFAULT_WAIT_TIMEOUT)
        failed = 0
        for row, future in waiters:
            try:
                row["run_id"] = future.result(
                    timeout=max(0.0, deadline - time.time()))
                row["status"] = "done"
            except Exception as error:
                failed += 1
                row["status"] = "failed"
                row["error"] = f"{type(error).__name__}: {error}"
        response["elapsed_s"] = time.time() - started
        _M_REQUEST_SECONDS.observe(time.time() - started)
        if failed:
            response.update(status="failed", failed=failed)
            return 500, response
        response.update(status="done")
        return 200, response

    def submit_payload(self, payload: Mapping[str, Any]
                       ) -> Tuple[int, Dict[str, Any]]:
        """Serve a decoded ``POST /run`` body (spec or study envelope)."""
        spec, study = parse_submission(payload)
        tags = payload.get("tags", ()) if isinstance(payload, Mapping) else ()
        if not isinstance(tags, (list, tuple)):
            raise ServeError(400, '"tags" must be a list of strings')
        client = payload.get("client")
        if client is not None and not isinstance(client, str):
            raise ServeError(400, '"client" must be a string')
        wait = bool(payload.get("wait", True))
        timeout = payload.get("timeout")
        if timeout is not None:
            try:
                timeout = float(timeout)
            except (TypeError, ValueError):
                raise ServeError(400, '"timeout" must be a number') from None
        if spec is not None:
            return self.submit_spec(spec, tags=tags, client=client,
                                    wait=wait, timeout=timeout)
        return self.submit_study(study, tags=tags, client=client,
                                 wait=wait, timeout=timeout)

    # -- introspection --------------------------------------------------
    def result(self, run_id: str) -> Tuple[int, Dict[str, Any]]:
        """The full stored envelope of one run (``GET /result/<id>``)."""
        try:
            run = self.store.get(run_id)
        except KeyError:
            return 404, {"error": f"no run {run_id!r}"}
        return 200, run.to_dict()

    def status(self) -> Dict[str, Any]:
        """The ``GET /status`` body: cache, coalescing, executor, store."""
        with self._lock:
            stats = dict(self._stats)
            recent_errors = list(self._recent_errors)
            fingerprints = len(self._by_fingerprint)
        return {
            "service": "repro-serve",
            "uptime_s": time.time() - self.started_at,
            "draining": self._draining,
            "requests": stats,
            "coalescing": {
                "in_flight": len(self.inflight),
                "led": self.inflight.led,
                "coalesced": self.inflight.coalesced,
            },
            "executor": {
                "kind": self.executor.kind,
                "executed": self.executor.executed,
                "in_flight": self.executor.in_flight(),
            },
            "store": {
                "root": str(self.store.root),
                "runs": len(self.store),
                "fingerprints": fingerprints,
                # Registry series, not a private attribute -- process-wide,
                # so it also counts any other stores open in this process.
                "index_cache_hits": int(_METRICS_REGISTRY.value(
                    "repro_store_index_cache_hits_total")),
            },
            "recent_errors": recent_errors,
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body: the process-global registry in
        Prometheus text exposition format."""
        return _METRICS_REGISTRY.render_prometheus()

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """The ``GET /health`` body: store and executor liveness probes.

        200 ``"ok"`` when every dependency answers; 200 ``"degraded"``
        when the executor reports trouble (a stuck fleet queue, an open
        circuit breaker) but cached traffic is still served; 503
        ``"unavailable"`` when the store itself cannot be read -- the
        signal a load balancer or supervisor should act on.
        """
        body: Dict[str, Any] = {"service": "repro-serve",
                                "draining": self._draining}
        try:
            runs = len(self.store)
            self.store.entries()  # exercises the index read path
            body["store"] = {
                "ok": True, "runs": runs,
                "quarantined": len(self.store.quarantined()),
                "journal_skipped_lines": self.store.journal_skipped_lines(),
            }
        except Exception as error:
            body["store"] = {"ok": False,
                             "error": f"{type(error).__name__}: {error}"}
            body["status"] = "unavailable"
            return 503, body
        if hasattr(self.executor, "health"):
            executor = self.executor.health()
        else:  # executor predating the health contract
            executor = {"kind": self.executor.kind, "ok": True}
        body["executor"] = executor
        degraded = (not executor.get("ok", True)
                    or bool(executor.get("degraded"))
                    or self._draining)
        body["status"] = "degraded" if degraded else "ok"
        return 200, body

    # -- lifecycle ------------------------------------------------------
    def drain(self) -> None:
        """Finish in-flight work and leave the store tidy.

        New submissions racing the drain may be rejected by the executor
        (their in-flight entries resolve with that error, so no waiter
        hangs).  The final compaction folds the session's journal into
        ``index.json`` -- a daemon restart then reads one file cold.
        """
        self._draining = True
        self.executor.shutdown(wait=True)
        for entry in self.inflight.entries():
            # Executor gone; anything still tabled can never resolve.
            self.inflight.resolve(entry.fingerprint, error=RuntimeError(
                "serve daemon drained before this execution completed"))
        self.store.compact_index()


# ----------------------------------------------------------------------
# HTTP skin
# ----------------------------------------------------------------------
class _ServeHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the server's :class:`ServeApp`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"  # keep-alive: the hot path is tiny
    # Idle keep-alive connections are dropped after this many seconds --
    # handler threads are joined on close, so an abandoned-but-open client
    # connection must not be able to wedge the graceful shutdown.
    timeout = 5.0
    def setup(self) -> None:
        super().setup()
        # Without TCP_NODELAY a request/response pair on a keep-alive
        # loopback connection eats a Nagle + delayed-ACK stall (~40ms) --
        # two orders of magnitude over the actual hot-path service time.
        # (Done here, not via disable_nagle_algorithm: AF_UNIX sockets
        # reject the option.)
        try:
            self.connection.setsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY, 1)
        except OSError:
            pass

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def address_string(self) -> str:  # AF_UNIX peers have no host:port
        try:
            return super().address_string()
        except (TypeError, IndexError):  # pragma: no cover - unix socket
            return "unix"

    def _reply(self, status: int, body: Mapping[str, Any]) -> None:
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _reply_text(self, status: int, text: str,
                    content_type: str = PROMETHEUS_CONTENT_TYPE) -> None:
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServeError(400, "empty request body")
        try:
            payload = json.loads(raw)
        except ValueError as error:
            raise ServeError(400, f"request body is not JSON: {error}") \
                from None
        if not isinstance(payload, dict):
            raise ServeError(400, "request body must be a JSON object")
        return payload

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        try:
            if self.path == "/status":
                self._reply(200, self.app.status())
            elif self.path == "/health":
                status, body = self.app.health()
                self._reply(status, body)
            elif self.path == "/metrics":
                self._reply_text(200, self.app.metrics_text())
            elif self.path.startswith("/result/"):
                run_id = self.path[len("/result/"):]
                status, body = self.app.result(run_id)
                self._reply(status, body)
            else:
                self._reply(404, {"error": f"unknown path {self.path!r}"})
        except ServeError as error:
            self._reply(error.status, {"error": str(error)})
        except Exception as error:  # never kill the connection thread
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        try:
            if self.path == "/run":
                status, body = self.app.submit_payload(self._read_body())
                self._reply(status, body)
            elif self.path == "/shutdown":
                self._reply(200, {"status": "shutting-down"})
                on_shutdown = getattr(self.server, "on_shutdown", None)
                if on_shutdown is not None:
                    threading.Thread(target=on_shutdown,
                                     name="repro-serve-shutdown",
                                     daemon=True).start()
            else:
                self._reply(404, {"error": f"unknown path {self.path!r}"})
        except ServeError as error:
            self._reply(error.status, {"error": str(error)})
        except Exception as error:
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})


class _TCPServer(ThreadingHTTPServer):
    daemon_threads = False   # joined on server_close: part of the drain
    block_on_close = True
    allow_reuse_address = True


class _UnixServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to an ``AF_UNIX`` socket path."""

    address_family = socket.AF_UNIX
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = False  # SO_REUSEADDR is meaningless for AF_UNIX

    def server_bind(self) -> None:
        # HTTPServer.server_bind assumes a (host, port) address; bind the
        # path directly and fill the name fields it would have derived.
        path = self.server_address
        with contextlib.suppress(OSError):
            os.unlink(path)
        socketserver.TCPServer.server_bind(self)
        self.server_name = "localhost"
        self.server_port = 0

    def get_request(self):
        request, _ = self.socket.accept()
        return request, ("unix", 0)

    def server_close(self) -> None:
        super().server_close()
        with contextlib.suppress(OSError):
            os.unlink(self.server_address)


class ReproServer:
    """Lifecycle wrapper: bind, serve, drain.

    Args:
        store: Store (or its root path) to serve from.
        host / port: TCP bind (port 0 picks a free port).
        unix_socket: Serve on this ``AF_UNIX`` path instead of TCP.
        executor: Executor override (defaults to a 1-worker in-process
            pool; see :mod:`repro.serve.executor`).
        verbose: Log one line per request to stderr.

    Usage::

        server = ReproServer("./store", port=0)
        server.start()            # background thread
        ...                       # server.url, server.app
        server.close()            # graceful: drains in-flight work

    or foreground (the CLI path): ``server.serve_forever()``.
    """

    def __init__(self, store: Union[ResultStore, str, Path],
                 host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 unix_socket: Optional[Union[str, Path]] = None,
                 executor=None, verbose: bool = False):
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.app = ServeApp(store, executor=executor)
        if unix_socket is not None:
            self._httpd = _UnixServer(str(unix_socket), _ServeHandler)
        else:
            self._httpd = _TCPServer((host, port), _ServeHandler)
        self._httpd.app = self.app  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.on_shutdown = self.close  # type: ignore[attr-defined]
        self.unix_socket = str(unix_socket) if unix_socket is not None \
            else None
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._close_lock = threading.Lock()
        self._close_done = False

    # -- addressing -----------------------------------------------------
    @property
    def address(self) -> str:
        """``host:port`` (TCP) or the socket path (Unix)."""
        if self.unix_socket is not None:
            return self.unix_socket
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    @property
    def url(self) -> str:
        return f"http://{self.address}" if self.unix_socket is None \
            else f"unix:{self.unix_socket}"

    # -- serving --------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve until :meth:`close` (or ``POST /shutdown``) stops us."""
        self._serving = True
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._serving = False

    def start(self) -> "ReproServer":
        """Serve on a background thread; returns self (already bound, so
        :attr:`address` is valid immediately)."""
        self._serving = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.1},
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop accepting, join handler threads, drain the executor.

        The order is the graceful-shutdown contract: stop the accept loop
        first, join in-flight request handlers (handler threads are
        non-daemon and ``block_on_close`` joins them -- each is itself
        waiting on its submission's future), then :meth:`ServeApp.drain`
        finishes executor work and compacts the store's journal.

        Idempotent and serialized: a second caller blocks until the first
        finishes, so "close returned" always means "fully drained" -- the
        property the CLI relies on when ``POST /shutdown`` triggers the
        close from a request thread while the foreground loop also calls
        it on its way out.
        """
        with self._close_lock:
            if self._close_done:
                return
            if self._serving:
                self._httpd.shutdown()
            self._httpd.server_close()
            thread = self._thread
            if thread is not None and thread is not threading.current_thread():
                thread.join(timeout=10.0)
            if drain:
                self.app.drain()
            else:
                self.app.executor.shutdown(wait=False)
            self._close_done = True

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
