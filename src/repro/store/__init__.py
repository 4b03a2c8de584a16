"""Persistent result store: one JSON per run, content-hashed ids, an index.

See :class:`repro.store.result_store.ResultStore` -- the accumulation layer
the study subsystem (:mod:`repro.study`) writes every sweep cell into, and
the substrate of ``repro store ls`` and ``repro study diff / report``.
"""

from repro.store.result_store import (
    AUTO_COMPACT_BYTES,
    AUTO_COMPACT_LINES,
    DIFF_METRICS,
    FIXED_CREATED_AT_ENV,
    IndexEntry,
    MetricDelta,
    RegressedMetric,
    RegressionEntry,
    ResultStore,
    RunDiff,
    StoredRun,
    SystemDiff,
    atomic_write_json,
    canonical_spec_json,
    diff_results,
    run_id_for,
    spec_fingerprint,
)

__all__ = [
    "AUTO_COMPACT_BYTES",
    "AUTO_COMPACT_LINES",
    "DIFF_METRICS",
    "FIXED_CREATED_AT_ENV",
    "IndexEntry",
    "MetricDelta",
    "RegressedMetric",
    "RegressionEntry",
    "ResultStore",
    "RunDiff",
    "StoredRun",
    "SystemDiff",
    "atomic_write_json",
    "canonical_spec_json",
    "diff_results",
    "run_id_for",
    "spec_fingerprint",
]
