"""Cross-process execution tracing: spans, JSONL event files, Chrome export.

The tracing hook follows the :mod:`repro.chaos.injection` pattern exactly:
a module-global tracer armed via :func:`install` (or from the
``REPRO_TRACE_*`` environment variables in spawned fleet workers), and a
:func:`span` hook whose *disarmed* fast path is a single global ``None``
check returning a shared no-op span -- cheap enough to leave in the
simulator's per-iteration loop (its per-call ceiling is checked in CI by
``benchmarks/bench_floors.py``).

Each traced process appends complete-span JSON lines to its own file
(``events-<scope>-i<incarnation>-<pid>.jsonl``) inside the trace
directory; per-incarnation file names keep respawned workers from
clobbering their predecessor's events.  :func:`read_events` merges every
per-process file into one timeline, and :func:`export_chrome_trace`
writes Chrome trace-event JSON viewable in Perfetto or chrome://tracing.

Timestamps: span durations are measured on the monotonic clock; event
``ts_ns`` values are wall-clock nanoseconds derived from a wall/monotonic
anchor captured once at tracer start, so events from different processes
interleave on a common axis without per-event wall reads.

Determinism: span/trace ids come from ``uuid.uuid4`` (``os.urandom``) and
the process counter -- never from the seeded ``random`` module -- so
arming the tracer cannot perturb seeded experiment results; the test
suite asserts store digests are byte-identical with tracing on vs off.

Intentionally stdlib-only: the engine, planner, store and fleet import
this at module load, so it must never import back into ``repro``.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, MutableMapping, Optional, Union

__all__ = [
    "TRACE_DIR_ENV",
    "TRACE_ID_ENV",
    "TRACE_PARENT_ENV",
    "Tracer",
    "span",
    "install",
    "uninstall",
    "active",
    "maybe_install_from_env",
    "export_env",
    "read_events",
    "export_chrome_trace",
    "phase_breakdown",
]

#: Trace directory handed to spawned fleet workers (like REPRO_CHAOS_PLAN).
TRACE_DIR_ENV = "REPRO_TRACE_DIR"
#: Trace id shared by every process in one recorded run.
TRACE_ID_ENV = "REPRO_TRACE_ID"
#: Span id the child's root spans are parented to.
TRACE_PARENT_ENV = "REPRO_TRACE_PARENT"

#: Per-process event files inside the trace directory.
EVENT_FILE_PREFIX = "events-"
EVENT_FILE_GLOB = EVENT_FILE_PREFIX + "*.jsonl"

_SCOPE_SAFE_RE = re.compile(r"[^a-zA-Z0-9_.-]+")


def _safe_scope(scope: str) -> str:
    return _SCOPE_SAFE_RE.sub("_", scope) or "proc"


class _NullSpan:
    """Shared no-op span returned while no tracer is installed."""

    __slots__ = ()
    span_id = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()

#: The armed tracer.  ``span()`` is a single global check when ``None``.
_TRACER: Optional["Tracer"] = None


class Span:
    """One timed region; use as a context manager.

    Created by :func:`span`; records monotonic start/duration and is
    written to the tracer's event file as one JSON line on exit.
    """

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id",
                 "_start_mono")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer.next_span_id()
        self.parent_id: Optional[str] = None
        self._start_mono = 0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        self.parent_id = stack[-1] if stack else self.tracer.parent_id
        stack.append(self.span_id)
        self._start_mono = time.monotonic_ns()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        end_mono = time.monotonic_ns()
        stack = self.tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._emit_span(self, self._start_mono,
                               end_mono - self._start_mono)
        return False


def span(name: str, **attrs: Any) -> Union[Span, _NullSpan]:
    """Open a span named ``name`` under the armed tracer.

    The disarmed fast path is one global ``None`` check returning a
    shared no-op span -- safe to call from the simulator's inner loop.
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return Span(tracer, name, attrs)


class Tracer:
    """Per-process span sink writing one JSONL event file.

    Args:
        root: Trace directory (created if missing); one recorded run ==
            one directory holding every process's event file.
        scope: Human name for this process in the timeline
            (``coordinator``, ``worker-1``, ...).
        trace_id: Run-wide id; generated when None (coordinator) and
            inherited via :data:`TRACE_ID_ENV` in children.
        parent_id: Span id this process's root spans hang under
            (the coordinator span that spawned it), or None.
        incarnation: Respawn ordinal of this worker; part of the event
            file name so a respawn never clobbers its predecessor.
    """

    def __init__(self, root: Union[str, Path], scope: str = "main",
                 trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None,
                 incarnation: int = 0):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.trace_id = trace_id or uuid.uuid4().hex
        self.scope = scope or "main"
        self.parent_id = parent_id or None
        self.incarnation = int(incarnation)
        self.pid = os.getpid()
        # Wall/monotonic anchor: event ts_ns = anchor_wall + mono delta,
        # so per-event stamps cost one monotonic read and processes
        # share a common wall axis.
        self._anchor_wall_ns = time.time_ns()
        self._anchor_mono_ns = time.monotonic_ns()
        self._counter = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._closed = False
        self.path = self.root / (
            f"{EVENT_FILE_PREFIX}{_safe_scope(self.scope)}"
            f"-i{self.incarnation}-{self.pid}.jsonl")
        self._file = open(self.path, "a", encoding="utf-8")
        self._write({
            "type": "process", "trace": self.trace_id, "pid": self.pid,
            "scope": self.scope, "incarnation": self.incarnation,
            "parent": self.parent_id, "ts_ns": self._anchor_wall_ns,
        })

    # -- span plumbing -------------------------------------------------
    def next_span_id(self) -> str:
        return f"{self.pid:x}.{next(self._counter)}"

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1] if stack else self.parent_id

    def wall_ns(self, mono_ns: int) -> int:
        return self._anchor_wall_ns + (mono_ns - self._anchor_mono_ns)

    def _emit_span(self, s: Span, start_mono: int, dur_ns: int) -> None:
        event: Dict[str, Any] = {
            "type": "span", "trace": self.trace_id, "id": s.span_id,
            "parent": s.parent_id, "name": s.name, "pid": self.pid,
            "tid": threading.get_native_id(), "scope": self.scope,
            "incarnation": self.incarnation,
            "ts_ns": self.wall_ns(start_mono), "dur_ns": dur_ns,
        }
        if s.attrs:
            event["attrs"] = s.attrs
        self._write(event)

    def _write(self, event: Dict[str, Any]) -> None:
        line = json.dumps(event, default=str) + "\n"
        with self._lock:
            if self._closed:
                return
            try:
                # One flushed line per event: a SIGKILLed worker loses at
                # most the span it was inside, never earlier events.
                self._file.write(line)
                self._file.flush()
            except (OSError, ValueError):
                pass  # tracing must never take the workload down

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                try:
                    self._file.close()
                except OSError:
                    pass


# ---------------------------------------------------------------------------
# arming / env propagation (mirrors repro.chaos.injection)

def install(tracer: Tracer) -> Tracer:
    """Arm ``tracer`` as the process-global span sink."""
    global _TRACER
    if _TRACER is not None and _TRACER is not tracer:
        _TRACER.close()
    _TRACER = tracer
    return tracer


def uninstall() -> None:
    """Disarm and close the active tracer (no-op when none armed)."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None


def active() -> Optional[Tracer]:
    """The armed tracer, or None."""
    return _TRACER


def maybe_install_from_env(scope: str = "", incarnation: int = 0,
                           environ: Optional[MutableMapping[str, str]] = None,
                           ) -> Optional[Tracer]:
    """Arm a tracer from ``REPRO_TRACE_*`` env vars; None when unset.

    Called at fleet-worker entry (next to the chaos installer): the
    coordinator exports the trace directory / id / parent span before
    spawning, the child inherits the environment, and its spans land in
    the same trace under the coordinator's span.
    """
    env = os.environ if environ is None else environ
    root = env.get(TRACE_DIR_ENV, "")
    if not root:
        return None
    tracer = Tracer(root,
                    scope=scope or f"pid-{os.getpid()}",
                    trace_id=env.get(TRACE_ID_ENV) or None,
                    parent_id=env.get(TRACE_PARENT_ENV) or None,
                    incarnation=incarnation)
    return install(tracer)


def export_env(environ: Optional[MutableMapping[str, str]] = None) -> None:
    """Export the armed tracer's context for child processes.

    Sets :data:`TRACE_DIR_ENV` / :data:`TRACE_ID_ENV` and points
    :data:`TRACE_PARENT_ENV` at the *current* span, so children spawned
    inside a span hang under it in the merged timeline.  No-op when no
    tracer is armed (an externally set ``REPRO_TRACE_DIR`` is left
    untouched, so un-traced coordinators still propagate a caller's
    trace context to their workers).
    """
    tracer = _TRACER
    if tracer is None:
        return
    env = os.environ if environ is None else environ
    env[TRACE_DIR_ENV] = str(tracer.root)
    env[TRACE_ID_ENV] = tracer.trace_id
    current = tracer.current_span_id()
    if current:
        env[TRACE_PARENT_ENV] = current
    else:
        env.pop(TRACE_PARENT_ENV, None)


# ---------------------------------------------------------------------------
# merging / export

def read_events(root: Union[str, Path]) -> List[Dict[str, Any]]:
    """Merge every per-process event file under ``root`` into one timeline.

    Torn trailing lines (a worker SIGKILLed mid-write) are skipped, like
    the store's journal scan.  Events are ordered by wall ``ts_ns`` so
    processes interleave chronologically.
    """
    root = Path(root)
    events: List[Dict[str, Any]] = []
    for path in sorted(root.glob(EVENT_FILE_GLOB)):
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn line
            if isinstance(event, dict):
                event.setdefault("file", path.name)
                events.append(event)
    events.sort(key=lambda e: (e.get("ts_ns", 0), str(e.get("id", ""))))
    return events


def export_chrome_trace(events: Iterable[Mapping[str, Any]],
                        path: Union[str, Path]) -> Path:
    """Write ``events`` as Chrome trace-event JSON (Perfetto-loadable).

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps; per-process metadata events carry the scope name so the
    timeline rows read ``coordinator`` / ``worker-1`` instead of bare
    pids.
    """
    trace_events: List[Dict[str, Any]] = []
    seen_procs: Dict[int, str] = {}
    for event in events:
        etype = event.get("type")
        pid = event.get("pid", 0)
        if etype == "process":
            scope = str(event.get("scope", pid))
            incarnation = int(event.get("incarnation", 0) or 0)
            if incarnation:
                scope = f"{scope} (i{incarnation})"
            seen_procs.setdefault(pid, scope)
        elif etype == "span":
            args = dict(event.get("attrs") or {})
            args["span_id"] = event.get("id")
            if event.get("parent"):
                args["parent_id"] = event.get("parent")
            trace_events.append({
                "name": event.get("name", "?"),
                "cat": "repro",
                "ph": "X",
                "ts": event.get("ts_ns", 0) / 1000.0,
                "dur": event.get("dur_ns", 0) / 1000.0,
                "pid": pid,
                "tid": event.get("tid", 0),
                "args": args,
            })
    metadata = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": scope}}
        for pid, scope in sorted(seen_procs.items())
    ]
    payload = {"traceEvents": metadata + trace_events,
               "displayTimeUnit": "ms"}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def phase_breakdown(events: Iterable[Mapping[str, Any]],
                    prefix: Optional[str] = None) -> List[Dict[str, Any]]:
    """Aggregate span events into a per-phase time table.

    Returns rows ``{phase, count, total_ms, mean_ms, share}`` sorted by
    total time, where ``share`` is each phase's fraction of the traced
    wall interval (nested spans overlap, so shares need not sum to 1).
    """
    totals: Dict[str, List[float]] = {}
    first_ns: Optional[int] = None
    last_ns: Optional[int] = None
    for event in events:
        if event.get("type") != "span":
            continue
        name = str(event.get("name", "?"))
        if prefix is not None and not name.startswith(prefix):
            continue
        ts = int(event.get("ts_ns", 0))
        dur = int(event.get("dur_ns", 0))
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += dur
        first_ns = ts if first_ns is None else min(first_ns, ts)
        end = ts + dur
        last_ns = end if last_ns is None else max(last_ns, end)
    if not totals:
        return []
    wall_ns = max(1, (last_ns or 0) - (first_ns or 0))
    rows = []
    for name, (count, total) in totals.items():
        rows.append({
            "phase": name,
            "count": int(count),
            "total_ms": round(total / 1e6, 3),
            "mean_ms": round(total / count / 1e6, 4),
            "share": round(total / wall_ns, 4),
        })
    rows.sort(key=lambda r: (-r["total_ms"], r["phase"]))
    return rows
