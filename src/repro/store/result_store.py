"""Directory-backed persistent store for :class:`ExperimentResult` objects.

The store is the accumulation layer beneath the study subsystem
(:mod:`repro.study`): every experiment a sweep executes is written as one
JSON file whose *run id* is content-hashed from the spec (plus the run's
tags), so re-running an identical cell finds its previous result instead of
recomputing it -- that lookup is what makes study resume work -- and two
stores produced on different machines from the same specs agree on every
file name.

Layout on disk::

    <root>/
        index.json            # compacted run index (a pure cache)
        index.journal         # append-only index increments (JSON lines)
        store.lock            # advisory lock serializing compaction
        runs/<run_id>.json    # one envelope per stored run

Each run file is a self-contained envelope (``run_id``, ``fingerprint``,
``created_at``, ``tags`` and the full ``result`` dict), so the index layer
is a pure cache: :meth:`ResultStore.rebuild_index` regenerates it from a
cold directory and every read path falls back to a rebuild when the index
is missing or corrupt.  All whole-file writes go through a temp-file +
``os.replace`` dance, so a crashed writer never leaves a half-written run
or index behind.

The index itself is maintained as an **append-only journal**:
:meth:`ResultStore.put` writes the run file and then appends one fsync'd
JSON line to ``index.journal`` -- an O(1) increment instead of the full
index rewrite it used to do (O(n) per put, O(n^2) over a sweep), and safe
for *concurrent writers*: ``O_APPEND`` appends from any number of
processes interleave without corrupting each other, so fleets of workers
(:mod:`repro.fleet`) can share one store.  Reads merge ``index.json``
(the compacted base) with a replay of the journal; torn trailing lines
from a crashed writer are skipped.  :meth:`ResultStore.compact_index`
folds the journal back into ``index.json`` and
:meth:`ResultStore.rebuild_index` regenerates everything from the run
files (the truth); both hold an advisory ``flock`` on ``store.lock`` so
compaction never races an in-flight append.

Two niceties keep a *long-lived* writer/reader (the :mod:`repro.serve`
daemon) honest: :meth:`ResultStore.put` auto-compacts the journal once it
outgrows a configurable line/byte threshold (an append-only file under a
daemon is exactly the unbounded-growth case), and index reads are cached
in memory against the (``index.json``, ``index.journal``) stat signatures,
so a hot request stream does not re-read and re-merge the journal on every
lookup -- any writer's append or compaction changes a signature and
invalidates the cache.

On top of storage the store answers cross-run questions:

* :meth:`ResultStore.query` filters the index by experiment name, system,
  scenario, cluster size or tag;
* :meth:`ResultStore.diff` compares two stored runs system-by-system and
  metric-by-metric (handling runs with disjoint systems or breakdown
  components);
* :meth:`ResultStore.regressions` matches baseline-tagged runs with their
  newest non-baseline counterpart (same spec fingerprint) and flags metric
  deltas that fall beyond a threshold.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

try:  # POSIX advisory locks; compaction degrades gracefully without them
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.api.runner import ExperimentResult
from repro.api.specs import ExperimentSpec
from repro.chaos.injection import inject
from repro.telemetry.metrics import counter as _metrics_counter
from repro.telemetry.metrics import gauge as _metrics_gauge

# Registry series (process-global; surfaced via `repro store ls --stats`
# and the serve daemon's GET /metrics).
_M_INDEX_CACHE_HITS = _metrics_counter(
    "repro_store_index_cache_hits_total",
    "index reads answered from the stat-keyed in-memory cache")
_M_INDEX_CACHE_MISSES = _metrics_counter(
    "repro_store_index_cache_misses_total",
    "index reads that re-merged index.json + journal")
_M_PUTS = _metrics_counter(
    "repro_store_puts_total", "runs persisted via ResultStore.put")
_M_JOURNAL_APPENDS = _metrics_counter(
    "repro_store_journal_appends_total",
    "index journal lines appended by this process")
_M_AUTO_COMPACTIONS = _metrics_counter(
    "repro_store_auto_compactions_total",
    "journal-threshold compactions triggered by put")
_M_JOURNAL_LINES = _metrics_gauge(
    "repro_store_journal_lines",
    "index journal line count at the last count/scan")
_M_JOURNAL_TORN_LINES = _metrics_gauge(
    "repro_store_journal_torn_lines",
    "unparseable journal lines at the last scan")

#: Current on-disk envelope format; bump on incompatible layout changes.
STORE_FORMAT = 1

#: When set (a float), :meth:`ResultStore.put` stamps runs with this fixed
#: ``created_at`` instead of ``time.time()``.  Chaos runs export it so a
#: faulted store and its fault-free control end up byte-identical.
FIXED_CREATED_AT_ENV = "REPRO_STORE_FIXED_CREATED_AT"

#: Default auto-compaction thresholds: once ``index.journal`` carries this
#: many lines (or bytes), :meth:`ResultStore.put` folds it into
#: ``index.json``.  Sized so interactive sweeps never trip them mid-run
#: (studies and fleets compact explicitly at the end) while a long-lived
#: server (:mod:`repro.serve`) -- the unbounded-growth case -- stays
#: bounded without anyone calling :meth:`ResultStore.compact_index`.
AUTO_COMPACT_LINES = 10_000
AUTO_COMPACT_BYTES = 8 * 1024 * 1024

#: Metrics indexed and diffed per system, in report order (each names a
#: ``SystemResult`` attribute).  ``breakdown.*`` components are added to
#: diffs dynamically from the stored breakdowns.
DIFF_METRICS = (
    "throughput",
    "mean_iteration_s",
    "speedup_vs_reference",
    "mean_relative_max_tokens",
)


# ----------------------------------------------------------------------
# Shared filesystem primitives
# ----------------------------------------------------------------------
def atomic_write_json(path: Path, payload: Mapping[str, Any],
                      indent: int = 2) -> None:
    """Serialize first, then temp-file + fsync + rename, so readers never
    see a partial file and a crash -- power loss included -- leaves either
    the old contents or the complete new ones.

    The fsync *before* the rename matters for the store's journal
    invariant ("every journaled run is already on disk"): without it,
    delayed allocation could persist the fsync'd journal line while the
    renamed run file it refers to is still empty after a power loss.

    Shared by the store and the fleet's work queue -- every whole-file
    write in both subsystems goes through this one dance.
    """
    text = json.dumps(payload, indent=indent, sort_keys=False) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        with tmp.open("w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


# ----------------------------------------------------------------------
# Run identity
# ----------------------------------------------------------------------
def canonical_spec_json(spec: ExperimentSpec) -> str:
    """The canonical JSON form of a spec (sorted keys, no whitespace)."""
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))


def spec_fingerprint(spec: ExperimentSpec) -> str:
    """Content hash identifying the spec (hex sha256)."""
    return hashlib.sha256(canonical_spec_json(spec).encode()).hexdigest()


def _slug(name: str, max_length: int = 48) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")
    return slug[:max_length].rstrip("-") or "run"


def run_id_for(spec: ExperimentSpec, tags: Sequence[str] = ()) -> str:
    """Deterministic run id: spec-name slug + hash of spec content and tags.

    Tags are part of the identity so the same spec can be stored once per
    tag set (e.g. a ``baseline``-tagged run next to an untagged re-run),
    which is what :meth:`ResultStore.regressions` compares.
    """
    payload = canonical_spec_json(spec) + "\n" + json.dumps(sorted(set(tags)))
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return f"{_slug(spec.name)}-{digest[:12]}"


# ----------------------------------------------------------------------
# Stored envelopes and index entries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoredRun:
    """One persisted run: the result plus its store metadata."""

    run_id: str
    fingerprint: str
    created_at: float
    tags: Tuple[str, ...]
    result: ExperimentResult

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": STORE_FORMAT,
            "run_id": self.run_id,
            "fingerprint": self.fingerprint,
            "created_at": self.created_at,
            "tags": list(self.tags),
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StoredRun":
        return cls(
            run_id=str(data["run_id"]),
            fingerprint=str(data["fingerprint"]),
            created_at=float(data["created_at"]),
            tags=tuple(str(t) for t in data.get("tags", ())),
            result=ExperimentResult.from_dict(data["result"]),
        )


@dataclass(frozen=True)
class IndexEntry:
    """Queryable summary of one stored run (one row of ``index.json``)."""

    run_id: str
    fingerprint: str
    created_at: float
    tags: Tuple[str, ...]
    name: str
    model: str
    scenario: str
    num_nodes: int
    devices_per_node: int
    systems: Tuple[str, ...]
    reference: str
    execution_mode: str
    metrics: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    @property
    def num_devices(self) -> int:
        return self.num_nodes * self.devices_per_node

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "fingerprint": self.fingerprint,
            "created_at": self.created_at,
            "tags": list(self.tags),
            "name": self.name,
            "model": self.model,
            "scenario": self.scenario,
            "num_nodes": self.num_nodes,
            "devices_per_node": self.devices_per_node,
            "systems": list(self.systems),
            "reference": self.reference,
            "execution_mode": self.execution_mode,
            "metrics": {k: dict(v) for k, v in self.metrics.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IndexEntry":
        return cls(
            run_id=str(data["run_id"]),
            fingerprint=str(data["fingerprint"]),
            created_at=float(data["created_at"]),
            tags=tuple(str(t) for t in data.get("tags", ())),
            name=str(data["name"]),
            model=str(data["model"]),
            scenario=str(data["scenario"]),
            num_nodes=int(data["num_nodes"]),
            devices_per_node=int(data["devices_per_node"]),
            systems=tuple(str(s) for s in data.get("systems", ())),
            reference=str(data.get("reference", "")),
            execution_mode=str(data.get("execution_mode", "")),
            metrics={str(k): dict(v)
                     for k, v in data.get("metrics", {}).items()},
        )

    @classmethod
    def from_run(cls, run: StoredRun) -> "IndexEntry":
        spec = run.result.spec
        metrics = {
            key: {name: float(getattr(result, name)) for name in DIFF_METRICS}
            for key, result in run.result.systems.items()
        }
        return cls(
            run_id=run.run_id,
            fingerprint=run.fingerprint,
            created_at=run.created_at,
            tags=run.tags,
            name=spec.name,
            model=spec.workload.model,
            scenario=spec.workload.scenario,
            num_nodes=spec.cluster.num_nodes,
            devices_per_node=spec.cluster.devices_per_node,
            systems=spec.system_keys,
            reference=run.result.reference,
            execution_mode=run.result.execution_mode,
            metrics=metrics,
        )


# ----------------------------------------------------------------------
# Diffs and regressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricDelta:
    """One metric compared between two runs."""

    metric: str
    base: float
    other: float

    @property
    def delta(self) -> float:
        return self.other - self.base

    @property
    def rel_delta(self) -> float:
        """Relative change versus the base value.

        A zero base with a nonzero other is a signed infinity (a 0 -> X
        change must register as a change -- and trip regression thresholds
        -- not read as +0.00%); 0 -> 0 is 0.0.
        """
        if self.base == 0:
            if self.other == 0:
                return 0.0
            return math.copysign(math.inf, self.other)
        return (self.other - self.base) / abs(self.base)

    def as_row(self, system: str) -> Dict[str, Any]:
        return {
            "system": system,
            "metric": self.metric,
            "base": self.base,
            "other": self.other,
            "delta": self.delta,
            "rel_delta": self.rel_delta,
        }


@dataclass(frozen=True)
class SystemDiff:
    """Per-metric comparison of one system present in both runs."""

    system: str
    metrics: Tuple[MetricDelta, ...]
    metrics_only_in_a: Tuple[str, ...] = ()
    metrics_only_in_b: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RunDiff:
    """Structured comparison of two stored runs."""

    run_a: str
    run_b: str
    systems: Tuple[SystemDiff, ...]
    systems_only_in_a: Tuple[str, ...] = ()
    systems_only_in_b: Tuple[str, ...] = ()

    def as_rows(self) -> List[Dict[str, Any]]:
        """Flatten to table rows for the CLI / report renderers."""
        rows: List[Dict[str, Any]] = []
        for system in self.systems:
            for delta in system.metrics:
                rows.append(delta.as_row(system.system))
        return rows

    def find(self, system: str, metric: str) -> Optional[MetricDelta]:
        for entry in self.systems:
            if entry.system == system:
                for delta in entry.metrics:
                    if delta.metric == metric:
                        return delta
        return None


@dataclass(frozen=True)
class RegressedMetric:
    """One regressed metric, attributed to the system it belongs to."""

    system: str
    delta: MetricDelta

    def as_row(self) -> Dict[str, Any]:
        return self.delta.as_row(self.system)


@dataclass(frozen=True)
class RegressionEntry:
    """A baseline-tagged run compared against its newest re-run."""

    fingerprint: str
    baseline_run: str
    candidate_run: str
    diff: RunDiff
    regressed_metrics: Tuple[RegressedMetric, ...]

    @property
    def regressed(self) -> bool:
        return bool(self.regressed_metrics)


def _result_metrics(result: "ExperimentResult", key: str) -> Dict[str, float]:
    system = result.systems[key]
    metrics = {name: float(getattr(system, name)) for name in DIFF_METRICS}
    for component, seconds in system.breakdown_s.items():
        metrics[f"breakdown.{component}"] = seconds
    return metrics


def diff_results(run_a: str, result_a: ExperimentResult,
                 run_b: str, result_b: ExperimentResult) -> RunDiff:
    """Compare two results system-by-system, metric-by-metric.

    Systems present in only one run are listed, not diffed; within a shared
    system, metrics present on only one side (e.g. breakdown components of
    different system families) are likewise listed rather than zero-filled.
    """
    keys_a = list(result_a.systems)
    keys_b = list(result_b.systems)
    shared = [key for key in keys_a if key in result_b.systems]
    system_diffs = []
    for key in shared:
        metrics_a = _result_metrics(result_a, key)
        metrics_b = _result_metrics(result_b, key)
        deltas = tuple(
            MetricDelta(metric=name, base=metrics_a[name],
                        other=metrics_b[name])
            for name in metrics_a if name in metrics_b)
        system_diffs.append(SystemDiff(
            system=key,
            metrics=deltas,
            metrics_only_in_a=tuple(sorted(set(metrics_a) - set(metrics_b))),
            metrics_only_in_b=tuple(sorted(set(metrics_b) - set(metrics_a))),
        ))
    return RunDiff(
        run_a=run_a,
        run_b=run_b,
        systems=tuple(system_diffs),
        systems_only_in_a=tuple(k for k in keys_a if k not in result_b.systems),
        systems_only_in_b=tuple(k for k in keys_b if k not in result_a.systems),
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ResultStore:
    """Directory of experiment results with an incrementally maintained index.

    Args:
        root: Store directory; created (with the ``runs/`` subdirectory) on
            first use.

    The store is safe against crashed writers (atomic temp-file renames,
    torn journal lines skipped on read) and against a stale or deleted
    ``index.json`` (reads merge the append-only journal on top and rebuild
    from the run files when neither covers the directory).  Concurrent
    writers are safe: :meth:`put` appends one atomic ``O_APPEND`` journal
    line per run instead of rewriting the index, so any number of worker
    processes (see :mod:`repro.fleet`) may share one store; only
    :meth:`compact_index` / :meth:`rebuild_index` take the advisory
    ``store.lock`` so compaction cannot race an in-flight append.
    """

    INDEX_NAME = "index.json"
    JOURNAL_NAME = "index.journal"
    LOCK_NAME = "store.lock"
    RUNS_DIR = "runs"
    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: Union[str, Path],
                 auto_compact_lines: Optional[int] = AUTO_COMPACT_LINES,
                 auto_compact_bytes: Optional[int] = AUTO_COMPACT_BYTES):
        """``auto_compact_lines`` / ``auto_compact_bytes`` bound the journal:
        a :meth:`put` that grows it past either threshold folds it into
        ``index.json`` (under the same advisory lock :meth:`compact_index`
        takes).  Pass ``None`` (or 0) to disable a threshold; explicit
        :meth:`compact_index` calls behave identically either way."""
        self.root = Path(root)
        self.auto_compact_lines = int(auto_compact_lines or 0)
        self.auto_compact_bytes = int(auto_compact_bytes or 0)
        # Journal bookkeeping for the line threshold: exact for a single
        # writer, resynced by an O(journal) recount whenever another
        # writer's append is detected (the byte threshold needs only a
        # stat, so it stays exact under any number of writers).
        self._journal_size = 0
        self._journal_lines: Optional[int] = 0
        self._journal_mutex = threading.Lock()
        # In-memory read cache of the merged index view, keyed by the
        # (index.json, index.journal) stat signature -- see _load_index.
        self._index_cache: Optional[
            Tuple[Tuple[Any, Any], Dict[str, Dict[str, Any]]]] = None
        self._index_cache_hits = 0  # introspection (tests, /status)

    # -- paths ----------------------------------------------------------
    @property
    def runs_dir(self) -> Path:
        return self.root / self.RUNS_DIR

    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    @property
    def journal_path(self) -> Path:
        return self.root / self.JOURNAL_NAME

    @property
    def lock_path(self) -> Path:
        return self.root / self.LOCK_NAME

    @property
    def quarantine_dir(self) -> Path:
        return self.root / self.QUARANTINE_DIR

    def run_path(self, run_id: str) -> Path:
        return self.runs_dir / f"{run_id}.json"

    # -- locking --------------------------------------------------------
    @contextlib.contextmanager
    def _locked(self, exclusive: bool = True) -> Iterator[None]:
        """Advisory file lock: shared around journal appends, exclusive
        around compaction, so a compactor never truncates the journal while
        a writer is mid-append (appends themselves are atomic ``O_APPEND``
        writes -- the lock only fences them against truncation)."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    # -- atomic writes --------------------------------------------------
    @staticmethod
    def _atomic_write_json(path: Path, payload: Mapping[str, Any]) -> None:
        atomic_write_json(path, payload)

    # -- journal --------------------------------------------------------
    def _append_journal(self, record: Mapping[str, Any]) -> None:
        """Append one fsync'd JSON line to the index journal.

        The whole line goes through a single ``write`` on an ``O_APPEND``
        descriptor, so concurrent appenders from other processes interleave
        whole lines rather than bytes; the shared lock only fences the
        append against a concurrent compactor's truncation.
        """
        line = (json.dumps(record, sort_keys=False,
                           separators=(",", ":")) + "\n").encode()
        with self._locked(exclusive=False):
            fd = os.open(self.journal_path,
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                # Chaos point: a torn-write fault here persists *half* the
                # line and kills the writer -- the skip-on-read path plus
                # rebuild_index must recover the run.
                inject("store.mid-journal-line", fd=fd, data=line)
                os.write(fd, line)
                os.fsync(fd)
                size = os.fstat(fd).st_size
            finally:
                os.close(fd)
        _M_JOURNAL_APPENDS.inc()
        with self._journal_mutex:
            if (self._journal_lines is not None
                    and size == self._journal_size + len(line)):
                self._journal_lines += 1  # sole writer: exact count
                _M_JOURNAL_LINES.set(self._journal_lines)
            else:
                self._journal_lines = None  # interleaved appends: recount lazily
            self._journal_size = size

    def _scan_journal(self) -> Tuple[List[Dict[str, Any]], int]:
        """The journal's parseable put/delete records plus the skip count.

        Unparseable lines (a torn append from a crashed writer, manual
        edits) are skipped: the run files remain the truth and
        :meth:`rebuild_index` recovers anything a skip loses.  The skip
        count is surfaced (``repro store ls``, :func:`verify_store`) so a
        torn tail is visible instead of silently dropped.
        """
        try:
            text = self.journal_path.read_text()
        except OSError:
            return [], 0
        records: List[Dict[str, Any]] = []
        skipped = 0
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if record["op"] == "put":
                    dict(record["entry"])  # must be a mapping
                elif record["op"] != "delete":
                    skipped += 1
                    continue
            except (ValueError, KeyError, TypeError):
                skipped += 1
                continue
            records.append(record)
        _M_JOURNAL_LINES.set(len(records) + skipped)
        _M_JOURNAL_TORN_LINES.set(skipped)
        return records, skipped

    def _read_journal(self) -> List[Dict[str, Any]]:
        """The journal's parseable put/delete records, in append order."""
        return self._scan_journal()[0]

    def journal_skipped_lines(self) -> int:
        """How many journal lines are currently unparseable (torn/corrupt)."""
        return self._scan_journal()[1]

    def _apply_journal(
            self, base: Mapping[str, Mapping[str, Any]],
            records: Sequence[Mapping[str, Any]],
    ) -> Dict[str, Dict[str, Any]]:
        """Apply journal put/delete records on top of ``base``."""
        merged = {run_id: dict(entry) for run_id, entry in base.items()}
        for record in records:
            try:
                if record["op"] == "put":
                    entry = dict(record["entry"])
                    merged[str(entry["run_id"])] = entry
                else:
                    merged.pop(str(record["run_id"]), None)
            except (ValueError, KeyError, TypeError):
                continue
        return merged

    def _replay_journal(
            self, base: Mapping[str, Mapping[str, Any]]
    ) -> Dict[str, Dict[str, Any]]:
        """Apply the journal's current records on top of ``base``."""
        return self._apply_journal(base, self._read_journal())

    def _clear_journal(self) -> None:
        """Empty the journal in place (callers hold the exclusive lock).

        Truncation (not unlink-and-recreate) keeps the inode stable, so a
        writer that raced past the lock with an already-open descriptor
        still appends to the live journal file.
        """
        try:
            os.truncate(self.journal_path, 0)
        except FileNotFoundError:
            pass
        with self._journal_mutex:
            self._journal_size = 0
            self._journal_lines = 0

    def _journal_line_count(self) -> int:
        """The journal's current line count, resyncing the cached figure.

        Cheap when this instance was the only appender since the last sync
        (the count is maintained incrementally); otherwise one read of the
        journal recounts it.
        """
        try:
            size = self.journal_path.stat().st_size
        except OSError:
            size = 0
        with self._journal_mutex:
            if self._journal_lines is not None and size == self._journal_size:
                return self._journal_lines
        try:
            lines = self.journal_path.read_bytes().count(b"\n")
        except OSError:
            lines, size = 0, 0
        with self._journal_mutex:
            self._journal_lines = lines
            self._journal_size = size
        _M_JOURNAL_LINES.set(lines)
        return lines

    def _maybe_auto_compact(self) -> bool:
        """Fold the journal into ``index.json`` when it outgrew a threshold.

        Called by :meth:`put` after the journal append: the byte check is a
        single ``stat``; the line check uses the incrementally maintained
        count (see :meth:`_journal_line_count`).  Returns whether a
        compaction ran.
        """
        if not self.auto_compact_lines and not self.auto_compact_bytes:
            return False
        try:
            size = self.journal_path.stat().st_size
        except OSError:
            return False
        if self.auto_compact_bytes and size >= self.auto_compact_bytes:
            self.compact_index()
            _M_AUTO_COMPACTIONS.inc()
            return True
        if (self.auto_compact_lines
                and self._journal_line_count() >= self.auto_compact_lines):
            self.compact_index()
            _M_AUTO_COMPACTIONS.inc()
            return True
        return False

    # -- writing --------------------------------------------------------
    def put(self, result: ExperimentResult, tags: Sequence[str] = (),
            created_at: Optional[float] = None) -> StoredRun:
        """Persist one result (overwriting any previous run of the same id).

        Returns the :class:`StoredRun` envelope actually written.  The index
        increment is an O(1) fsync'd journal append -- the run file first,
        the journal line second, so every journaled run is already on disk
        -- which is what makes big sweeps O(n) and concurrent writers safe.
        When the append grows the journal past the store's auto-compaction
        thresholds (see ``__init__``) the journal is folded into
        ``index.json`` on the spot, so long-lived writers that never call
        :meth:`compact_index` -- a :mod:`repro.serve` daemon most of all --
        cannot grow it without bound.

        Args:
            result: The experiment result to store.
            tags: Tags stored on (and part of the identity of) the run.
            created_at: Timestamp override (defaults to now).
        """
        tags = tuple(sorted({str(t) for t in tags}))
        if created_at is None:
            fixed = os.environ.get(FIXED_CREATED_AT_ENV)
            created_at = float(fixed) if fixed else time.time()
        run = StoredRun(
            run_id=run_id_for(result.spec, tags),
            fingerprint=spec_fingerprint(result.spec),
            created_at=float(created_at),
            tags=tags,
            result=result,
        )
        inject("store.pre-run-file", run_id=run.run_id)
        self._atomic_write_json(self.run_path(run.run_id), run.to_dict())
        # Chaos point: the run file is durable but unjournaled -- a crash
        # here must be repaired by rebuild_index (file wins over journal); a
        # corrupt-file fault here truncates the envelope, which quarantine
        # must catch.
        inject("store.post-run-file", run_id=run.run_id,
               path=str(self.run_path(run.run_id)))
        entry = IndexEntry.from_run(run).to_dict()
        self._append_journal({"op": "put", "entry": entry})
        inject("store.post-journal", run_id=run.run_id)
        _M_PUTS.inc()
        self._maybe_auto_compact()
        return run

    def tag(self, run_id: str, *tags: str) -> StoredRun:
        """Return a copy of a stored run re-stored under additional tags.

        Because tags are part of the run identity, this writes a *new* run
        file (the original is untouched) -- the idiom for blessing a run as
        e.g. the ``baseline`` of :meth:`regressions`.
        """
        run = self.get(run_id)
        return self.put(run.result, tags=run.tags + tuple(tags),
                        created_at=run.created_at)

    def delete(self, run_id: str) -> bool:
        """Remove a run (and its index row); returns whether it existed."""
        path = self.run_path(run_id)
        existed = path.exists()
        if existed:
            path.unlink()
        # Journal the delete when either the file existed or an index row
        # survives it (e.g. a stale entry for a file removed out-of-band).
        if existed or run_id in self._load_index(rebuild_if_missing=False):
            self._append_journal({"op": "delete", "run_id": run_id})
        return existed

    def prune(self, older_than_days: Optional[float] = None,
              max_runs: Optional[int] = None,
              protect_tags: Sequence[str] = ("baseline",),
              now: Optional[float] = None,
              dry_run: bool = False) -> List[str]:
        """Bounded eviction: delete old runs by age and/or count.

        The deletes are folded into ``index.json`` at the end.  Runs
        carrying any of ``protect_tags`` (default: ``baseline``, the
        regression-gate anchors) are never deleted and never counted
        against ``max_runs`` enforcement order -- a store can therefore end
        above ``max_runs`` when protected runs alone exceed it.

        Args:
            older_than_days: Delete unprotected runs whose ``created_at``
                is older than this many days.
            max_runs: After the age pass, delete oldest unprotected runs
                until at most this many runs remain in total.
            protect_tags: Tags that exempt a run from deletion.
            now: Clock override for tests.
            dry_run: Report what would be deleted, delete nothing.

        Returns the deleted (or, dry-run, doomed) run ids, oldest first.
        Raises ``ValueError`` on a negative ``older_than_days`` or
        ``max_runs``.
        """
        if older_than_days is not None and older_than_days < 0:
            raise ValueError("older_than_days must be non-negative")
        if max_runs is not None and max_runs < 0:
            raise ValueError("max_runs must be non-negative")
        now = time.time() if now is None else float(now)
        entries = self.entries()  # oldest first
        protected = set(protect_tags)
        deletable = [entry for entry in entries
                     if not (protected & set(entry.tags))]
        doomed: List[IndexEntry] = []
        if older_than_days is not None:
            cutoff = now - float(older_than_days) * 86400.0
            doomed.extend(entry for entry in deletable
                          if entry.created_at < cutoff)
        if max_runs is not None:
            doomed_ids = {entry.run_id for entry in doomed}
            survivors = [entry for entry in deletable
                         if entry.run_id not in doomed_ids]
            excess = (len(entries) - len(doomed)) - int(max_runs)
            doomed.extend(survivors[:max(0, excess)])
        if not dry_run:
            for entry in doomed:
                self.delete(entry.run_id)
            if doomed:
                self.compact_index()
        return [entry.run_id for entry in doomed]

    # -- reading --------------------------------------------------------
    def get(self, run_id: str) -> StoredRun:
        """Load one stored run by id (raising ``KeyError`` if absent)."""
        path = self.run_path(run_id)
        if not path.exists():
            raise KeyError(f"no run {run_id!r} in store {self.root}")
        return StoredRun.from_dict(json.loads(path.read_text()))

    def get_result(self, run_id: str) -> ExperimentResult:
        """Load just the :class:`ExperimentResult` of one run."""
        return self.get(run_id).result

    def __contains__(self, run_id: object) -> bool:
        return isinstance(run_id, str) and self.run_path(run_id).exists()

    def run_ids(self) -> List[str]:
        """All stored run ids (from the run files, not the index)."""
        if not self.runs_dir.is_dir():
            return []
        return sorted(path.stem for path in self.runs_dir.glob("*.json"))

    def __len__(self) -> int:
        return len(self.run_ids())

    # -- index ----------------------------------------------------------
    def _write_index(self, index: Mapping[str, Mapping[str, Any]]) -> None:
        # Rows are written sorted by run id so a compaction and a cold
        # rebuild over the same runs produce byte-identical files (which is
        # how the fleet stress tests assert post-run consistency).
        runs = {run_id: dict(index[run_id]) for run_id in sorted(index)}
        self._atomic_write_json(self.index_path,
                                {"format": STORE_FORMAT, "runs": runs})

    def _read_index_file(self) -> Tuple[Dict[str, Dict[str, Any]], bool]:
        """``index.json`` contents plus whether the file was intact."""
        try:
            payload = json.loads(self.index_path.read_text())
            runs = payload["runs"]
            if not isinstance(runs, dict):
                raise ValueError("malformed index")
            return dict(runs), True
        except (OSError, ValueError, KeyError):
            return {}, False

    def _index_stat_key(self) -> Tuple[Any, Any]:
        """Stat signature of the merged read view's two source files.

        A change to either file -- a journal append (its size grows), a
        compaction (journal truncates to 0, ``index.json`` is *replaced*,
        so its inode changes even when size and mtime collide) -- changes
        the signature, which is what invalidates the in-memory read cache.
        """
        def signature(path: Path) -> Optional[Tuple[int, int, int]]:
            try:
                stat = path.stat()
            except OSError:
                return None
            return (stat.st_mtime_ns, stat.st_size, stat.st_ino)

        return (signature(self.index_path), signature(self.journal_path))

    def _load_index(self, rebuild_if_missing: bool = True) -> Dict[str, Dict[str, Any]]:
        """The merged read view: ``index.json`` + journal replay.

        A fresh store whose runs live entirely in the journal never needs
        ``index.json``; a rebuild from the run files only happens when the
        compacted index is missing/corrupt *and* the journal does not cover
        every run file on disk (e.g. a journal staled by out-of-band edits).

        Reads are lock-free, so the journal is read *before* the index:
        if a concurrent compaction lands between the two reads, the stale
        journal snapshot replays entries the fresh index already contains
        (idempotent) -- the reverse order would pair a stale index with an
        already-truncated journal and journaled runs would vanish from the
        merged view.

        The merged view is cached in memory against the two files' stat
        signatures (taken *before* the reads, so a write racing the reads
        can only make the cache over-invalidate, never go stale): a server
        answering a hot request stream re-reads and re-merges the journal
        only when some writer actually changed it.  Callers must treat the
        returned mapping as read-only.  Run files dropped into ``runs/``
        out-of-band are not noticed by cached reads -- as ever, the repair
        path for out-of-band surgery is :meth:`rebuild_index`.
        """
        key = self._index_stat_key()
        cached = self._index_cache
        if cached is not None and cached[0] == key:
            self._index_cache_hits += 1
            _M_INDEX_CACHE_HITS.inc()
            return cached[1]
        _M_INDEX_CACHE_MISSES.inc()
        records = self._read_journal()
        base, intact = self._read_index_file()
        merged = self._apply_journal(base, records)
        if intact:
            self._index_cache = (key, merged)
            return merged
        if not rebuild_if_missing:
            return merged
        # Only rebuild when run files actually exist: reads against a
        # nonexistent (e.g. mistyped) store path must stay read-only
        # rather than conjure an empty store directory there.
        if not self.runs_dir.is_dir():
            return merged
        if set(self.run_ids()) <= set(merged):
            # Journal-only view (no compacted index yet): every run file is
            # covered, so the view is complete and safe to cache.
            self._index_cache = (key, merged)
            return merged
        self.rebuild_index()
        key = self._index_stat_key()
        base, _ = self._read_index_file()
        merged = self._replay_journal(base)
        self._index_cache = (key, merged)
        return merged

    def rebuild_index(self, quarantine: bool = True) -> int:
        """Regenerate ``index.json`` from the run files; returns the count.

        This is the cold-start / repair path: the index layer is a cache,
        the run files are the truth -- so a rebuild also *wins over a stale
        journal* (entries whose run files vanished are dropped) and leaves
        the journal empty.  Unreadable run files are moved into
        ``quarantine/`` with an error report (pass ``quarantine=False`` to
        merely skip them) -- either way they cannot wedge every store
        operation after a partial copy, and quarantining additionally makes
        the corruption *visible* (``repro store ls``) and the run id
        re-storable.  Runs exclusively against concurrent appends: any
        journal line present once the lock is held refers to a run file
        already on disk (put writes the file before the line), so
        truncating loses nothing.
        """
        with self._locked():
            index: Dict[str, Dict[str, Any]] = {}
            for run_id in self.run_ids():
                try:
                    run = self.get(run_id)
                except (ValueError, TypeError, KeyError,
                        json.JSONDecodeError) as error:
                    if quarantine:
                        self.quarantine_run(
                            run_id, error=f"{type(error).__name__}: {error}")
                    continue
                index[run_id] = IndexEntry.from_run(run).to_dict()
            self._write_index(index)
            self._clear_journal()
        return len(index)

    # -- quarantine ------------------------------------------------------
    def quarantine_run(self, run_id: str, error: str = "") -> Optional[Path]:
        """Move a corrupt run file to ``quarantine/`` with an error report.

        Returns the quarantined path (None when the run file is gone).
        The original bytes are preserved for post-mortems; a re-``put`` of
        the same spec simply recreates ``runs/<run_id>.json``.
        """
        source = self.run_path(run_id)
        if not source.exists():
            return None
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        destination = self.quarantine_dir / source.name
        os.replace(source, destination)
        atomic_write_json(self.quarantine_dir / f"{run_id}.report.json",
                          {"run_id": run_id, "error": str(error),
                           "quarantined_at": time.time()})
        return destination

    def quarantined(self) -> List[str]:
        """Run ids currently held in ``quarantine/``, sorted."""
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(path.stem for path in self.quarantine_dir.glob("*.json")
                      if not path.name.endswith(".report.json"))

    def compact_index(self) -> int:
        """Fold the journal into ``index.json``; returns the row count.

        Unlike :meth:`rebuild_index` this never re-reads the run files --
        it just persists the merged read view and empties the journal, so
        it is cheap enough to run after every study/fleet invocation.
        Falls back to a full rebuild when the compacted index is corrupt
        and the journal alone does not cover the run files.
        """
        _, intact = self._read_index_file()
        if not intact and self.runs_dir.is_dir():
            if not set(self.run_ids()) <= set(self._replay_journal({})):
                return self.rebuild_index()
        with self._locked():
            base, _ = self._read_index_file()
            merged = self._replay_journal(base)
            self._write_index(merged)
            self._clear_journal()
        return len(merged)

    def index_entry(self, run_id: str) -> Optional[IndexEntry]:
        """The index row of one run, or ``None`` when it is not indexed.

        O(1) against the in-memory read cache (one dict lookup once the
        merged view is cached) -- the serving tier answers hot requests
        from this instead of re-parsing the run envelope.
        """
        data = self._load_index().get(run_id)
        return None if data is None else IndexEntry.from_dict(data)

    def entries(self) -> List[IndexEntry]:
        """All index entries, oldest first."""
        entries = [IndexEntry.from_dict(data)
                   for data in self._load_index().values()]
        return sorted(entries, key=lambda e: (e.created_at, e.run_id))

    def query(self, name: Optional[str] = None,
              system: Optional[str] = None,
              scenario: Optional[str] = None,
              cluster_size: Optional[int] = None,
              tag: Optional[str] = None,
              fingerprint: Optional[str] = None) -> List[IndexEntry]:
        """Filter the index; all criteria are ANDed, ``None`` means any.

        Args:
            name: Experiment name, or a prefix ending in ``*``
                (``"sweep/*"`` matches every cell of a study).
            system: System key that must appear in the run.
            scenario: Workload scenario name.
            cluster_size: Total device count (``num_nodes * devices_per_node``).
            tag: Tag that must be present on the run.
            fingerprint: Exact spec fingerprint.
        """
        def matches(entry: IndexEntry) -> bool:
            if name is not None:
                if name.endswith("*"):
                    if not entry.name.startswith(name[:-1]):
                        return False
                elif entry.name != name:
                    return False
            if system is not None and system not in entry.systems:
                return False
            if scenario is not None and entry.scenario != scenario:
                return False
            if cluster_size is not None and entry.num_devices != cluster_size:
                return False
            if tag is not None and tag not in entry.tags:
                return False
            if fingerprint is not None and entry.fingerprint != fingerprint:
                return False
            return True

        return [entry for entry in self.entries() if matches(entry)]

    # -- cross-run comparisons ------------------------------------------
    def diff(self, run_a: str, run_b: str) -> RunDiff:
        """Per-system, per-metric comparison of two stored runs."""
        return diff_results(run_a, self.get_result(run_a),
                            run_b, self.get_result(run_b))

    def regressions(self, baseline_tag: str,
                    metrics: Sequence[str] = ("throughput",),
                    threshold: float = 0.05) -> List[RegressionEntry]:
        """Compare baseline-tagged runs against their newest re-runs.

        For every spec fingerprint that has both a run tagged
        ``baseline_tag`` and at least one run *without* that tag, diff the
        baseline against the newest non-baseline run and collect the deltas
        of ``metrics`` whose relative change is worse than ``threshold``
        (lower is worse for throughput/speedup; higher is worse for times
        and imbalance).
        """
        entries = self.entries()
        baselines = {e.fingerprint: e for e in entries
                     if baseline_tag in e.tags}
        reports: List[RegressionEntry] = []
        for fingerprint, baseline in sorted(baselines.items()):
            candidates = [e for e in entries
                          if e.fingerprint == fingerprint
                          and baseline_tag not in e.tags]
            if not candidates:
                continue
            candidate = max(candidates, key=lambda e: (e.created_at, e.run_id))
            diff = self.diff(baseline.run_id, candidate.run_id)
            regressed = []
            for system in diff.systems:
                for delta in system.metrics:
                    if delta.metric not in metrics:
                        continue
                    higher_is_better = delta.metric in (
                        "throughput", "speedup_vs_reference")
                    change = delta.rel_delta
                    if ((higher_is_better and change < -threshold)
                            or (not higher_is_better and change > threshold)):
                        regressed.append(RegressedMetric(
                            system=system.system, delta=delta))
            reports.append(RegressionEntry(
                fingerprint=fingerprint,
                baseline_run=baseline.run_id,
                candidate_run=candidate.run_id,
                diff=diff,
                regressed_metrics=tuple(regressed),
            ))
        return reports
