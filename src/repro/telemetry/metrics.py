"""Process-global metrics registry: counters, gauges, fixed-bucket histograms.

This module absorbs the ad-hoc counters that used to live as private
attributes scattered across subsystems (``ResultStore._index_cache_hits``,
the serve daemon's ``_stats`` dict, fleet respawn totals, ...) into one
:class:`MetricsRegistry` that can be snapshot as JSON or rendered in the
Prometheus text exposition format (served from ``GET /metrics`` on the
serve daemon).

Like :mod:`repro.chaos.injection` and :mod:`repro.telemetry.trace`, this
module is intentionally stdlib-only and must never import back into
``repro``: the store, queue, retry and serve layers create their metrics
at module import time.

Conventions:

* Metric names follow Prometheus style: ``repro_<subsystem>_<what>_total``
  for counters, plain ``repro_<subsystem>_<what>`` for gauges.
* Every metric pre-registers a zero-valued unlabeled sample at creation,
  so a freshly started process exposes its full series catalogue
  immediately (a ``/metrics`` scrape before any traffic still shows every
  series its modules registered -- scrapers can discover the schema).
* Increments are lock-protected and cheap (one dict update); hot paths
  that need nanosecond-level disarmed cost should use the tracing hook's
  null fast path instead.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
]

#: Valid Prometheus metric / label names.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds): micro-benchmark to batch scale.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

#: A label set frozen into a dict key: sorted (name, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]

_EMPTY_KEY: LabelKey = ()


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    for name, _ in key:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return key


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _series_name(name: str, key: LabelKey, suffix: str = "",
                 extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return name + suffix
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return f"{name}{suffix}{{{body}}}"


class Metric:
    """Base: one named metric holding per-labelset values."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: Dict[LabelKey, float] = {_EMPTY_KEY: 0.0}

    # -- reads ---------------------------------------------------------
    def value(self, labels: Optional[Mapping[str, Any]] = None) -> float:
        key = _EMPTY_KEY if not labels else _label_key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "samples": [{"labels": dict(key), "value": value}
                        for key, value in self.samples()],
        }

    def reset(self) -> None:
        with self._lock:
            self._values = {_EMPTY_KEY: 0.0}

    # -- rendering -----------------------------------------------------
    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key, value in self.samples():
            lines.append(f"{_series_name(self.name, key)} "
                         f"{_format_value(value)}")
        return lines


class Counter(Metric):
    """Monotonically increasing count (``_total`` suffix by convention)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _EMPTY_KEY if not labels else _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(Metric):
    """A value that can go up and down (queue depth, last-scan line count)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _EMPTY_KEY if not labels else _label_key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _EMPTY_KEY if not labels else _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)


class Histogram(Metric):
    """Fixed-bucket histogram of observations (e.g. request latency).

    Rendered Prometheus-style as cumulative ``_bucket{le=...}`` series
    plus ``_sum`` and ``_count``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        # per labelset: ([count per bucket] + [overflow], sum, count)
        self._hist: Dict[LabelKey, Tuple[List[int], float, int]] = {}
        self._hist[_EMPTY_KEY] = ([0] * (len(bounds) + 1), 0.0, 0)
        del self._values[_EMPTY_KEY]  # histograms keep their own table

    def observe(self, value: float, **labels: Any) -> None:
        value = float(value)
        key = _EMPTY_KEY if not labels else _label_key(labels)
        with self._lock:
            counts, total, count = self._hist.get(
                key, ([0] * (len(self.buckets) + 1), 0.0, 0))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            self._hist[key] = (counts, total + value, count + 1)

    # -- reads ---------------------------------------------------------
    def value(self, labels: Optional[Mapping[str, Any]] = None) -> float:
        """For histograms, ``value`` is the observation count."""
        key = _EMPTY_KEY if not labels else _label_key(labels)
        with self._lock:
            entry = self._hist.get(key)
            return float(entry[2]) if entry else 0.0

    def sum(self, labels: Optional[Mapping[str, Any]] = None) -> float:
        key = _EMPTY_KEY if not labels else _label_key(labels)
        with self._lock:
            entry = self._hist.get(key)
            return float(entry[1]) if entry else 0.0

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            items = sorted(self._hist.items())
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "samples": [
                {"labels": dict(key), "counts": list(counts),
                 "sum": total, "count": count}
                for key, (counts, total, count) in items
            ],
        }

    def reset(self) -> None:
        with self._lock:
            self._hist = {_EMPTY_KEY: ([0] * (len(self.buckets) + 1),
                                       0.0, 0)}

    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        with self._lock:
            items = sorted(self._hist.items())
        for key, (counts, total, count) in items:
            cumulative = 0
            for i, bound in enumerate(self.buckets):
                cumulative += counts[i]
                lines.append(
                    f"{_series_name(self.name, key, '_bucket', ('le', _format_value(bound)))} "
                    f"{cumulative}")
            cumulative += counts[-1]
            lines.append(
                f"{_series_name(self.name, key, '_bucket', ('le', '+Inf'))} "
                f"{cumulative}")
            lines.append(f"{_series_name(self.name, key, '_sum')} "
                         f"{_format_value(total)}")
            lines.append(f"{_series_name(self.name, key, '_count')} {count}")
        return lines


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Creating a metric twice with the same name returns the existing
    instance (so independent modules can share a series); re-creating it
    with a *different* kind raises -- that is always a naming bug.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    # -- creation ------------------------------------------------------
    def _get_or_create(self, cls: type, name: str, help: str,
                       **kwargs: Any) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, buckets=buckets)  # type: ignore[return-value]

    # -- reads ---------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def value(self, name: str,
              labels: Optional[Mapping[str, Any]] = None) -> float:
        """Current value of a series (0.0 when the metric doesn't exist)."""
        metric = self.get(name)
        return metric.value(labels) if metric is not None else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot of every metric and sample."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in metrics}

    def snapshot_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for _, metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""

    def reset(self) -> None:
        """Zero every value; metrics stay registered.  For tests."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()


#: The process-global registry every subsystem registers into.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "") -> Counter:
    """Get-or-create a counter in the process-global :data:`REGISTRY`."""
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    """Get-or-create a gauge in the process-global :data:`REGISTRY`."""
    return REGISTRY.gauge(name, help)


def histogram(name: str, help: str = "",
              buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
    """Get-or-create a histogram in the process-global :data:`REGISTRY`."""
    return REGISTRY.histogram(name, help, buckets=buckets)
