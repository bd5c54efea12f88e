"""Process-safe metrics primitives: counters, gauges, histograms, spans.

A :class:`MetricsRegistry` is a plain in-process accumulator. It is
"process-safe" the same way :class:`~repro.resilience.health.HealthMonitor`
is: every process owns its private instance, instances serialise to
plain data (:meth:`MetricsRegistry.state`), and the parent folds worker
states back together with :meth:`MetricsRegistry.merge_state` — no
shared mutable memory, no locks across processes. Within a process a
single lock guards updates so threaded callers (e.g. a pool's result
callbacks) stay consistent.

Metric identity is ``(name, labels)`` where labels are a small sorted
tuple of string pairs — the Prometheus data model, which the exporter
in :mod:`repro.observability.export` renders directly.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

#: Default histogram buckets, tuned for span durations in seconds.
DEFAULT_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)

#: How many of the most recent completed span events the registry
#: retains for the document's ``recent_spans`` section (aggregates are
#: unbounded).
MAX_RECENT_SPANS = 256

_LabelKey = tuple[tuple[str, str], ...]
_MetricKey = tuple[str, _LabelKey]


def _label_key(labels: dict[str, Any] | None) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _HistogramData:
    """One histogram series: bucket counts plus running aggregates."""

    __slots__ = ("buckets", "bucket_counts", "count", "total",
                 "minimum", "maximum")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        position = len(self.buckets)
        for index, edge in enumerate(self.buckets):
            if value <= edge:
                position = index
                break
        self.bucket_counts[position] += 1
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def state(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }

    def merge(self, state: dict[str, Any]) -> None:
        if list(state.get("buckets", [])) == list(self.buckets):
            incoming = state.get("bucket_counts", [])
            for index, count in enumerate(incoming):
                self.bucket_counts[index] += int(count)
        else:  # incompatible edges: fold everything into the overflow
            self.bucket_counts[-1] += int(state.get("count", 0))
        self.count += int(state.get("count", 0))
        self.total += float(state.get("sum", 0.0))
        if state.get("min") is not None:
            self.minimum = min(self.minimum, float(state["min"]))
        if state.get("max") is not None:
            self.maximum = max(self.maximum, float(state["max"]))


class _SpanStats:
    """Aggregate timing of one span name."""

    __slots__ = ("count", "wall_sum", "cpu_sum", "wall_max", "errors")

    def __init__(self) -> None:
        self.count = 0
        self.wall_sum = 0.0
        self.cpu_sum = 0.0
        self.wall_max = 0.0
        self.errors = 0

    def record(self, wall: float, cpu: float, error: bool) -> None:
        self.count += 1
        self.wall_sum += wall
        self.cpu_sum += cpu
        self.wall_max = max(self.wall_max, wall)
        if error:
            self.errors += 1

    def state(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "wall_seconds": self.wall_sum,
            "cpu_seconds": self.cpu_sum,
            "max_wall_seconds": self.wall_max,
            "errors": self.errors,
        }

    def merge(self, state: dict[str, Any]) -> None:
        self.count += int(state.get("count", 0))
        self.wall_sum += float(state.get("wall_seconds", 0.0))
        self.cpu_sum += float(state.get("cpu_seconds", 0.0))
        self.wall_max = max(self.wall_max,
                            float(state.get("max_wall_seconds", 0.0)))
        self.errors += int(state.get("errors", 0))


class MetricsRegistry:
    """In-process accumulator for counters, gauges, histograms, spans.

    All mutators are cheap (dictionary update under one lock) and all
    readers produce plain data, so a registry can ride along worker
    results and survive ``json.dumps`` unchanged.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[_MetricKey, float] = {}
        self._gauges: dict[_MetricKey, float] = {}
        self._histograms: dict[_MetricKey, _HistogramData] = {}
        self._spans: dict[str, _SpanStats] = {}
        self._recent_spans: deque[dict[str, Any]] = deque(
            maxlen=MAX_RECENT_SPANS
        )

    # -- mutators ------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0,
            labels: dict[str, Any] | None = None) -> None:
        """Add ``value`` to a counter."""
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float,
                  labels: dict[str, Any] | None = None) -> None:
        """Set a gauge to its latest observed value."""
        with self._lock:
            self._gauges[(name, _label_key(labels))] = float(value)

    def observe(self, name: str, value: float,
                labels: dict[str, Any] | None = None,
                buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        """Record one histogram observation."""
        key = (name, _label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = _HistogramData(buckets)
            histogram.observe(float(value))

    def record_span(self, name: str, wall: float, cpu: float,
                    parent: str | None = None,
                    attrs: dict[str, Any] | None = None,
                    error: bool = False) -> None:
        """Fold one completed span into the per-name aggregates."""
        with self._lock:
            stats = self._spans.get(name)
            if stats is None:
                stats = self._spans[name] = _SpanStats()
            stats.record(wall, cpu, error)
            self._recent_spans.append({
                "name": name,
                "parent": parent,
                "wall_seconds": wall,
                "cpu_seconds": cpu,
                "attrs": dict(attrs) if attrs else {},
                "error": bool(error),
            })

    # -- readers -------------------------------------------------------------

    def span_names(self) -> list[str]:
        """Names of every span recorded so far."""
        with self._lock:
            return sorted(self._spans)

    def span_count(self, name: str | None = None) -> int:
        """Completed spans for one name (or all names)."""
        with self._lock:
            if name is not None:
                stats = self._spans.get(name)
                return stats.count if stats else 0
            return sum(stats.count for stats in self._spans.values())

    def counter_value(self, name: str,
                      labels: dict[str, Any] | None = None) -> float:
        """Current value of one counter series (0.0 when unseen)."""
        with self._lock:
            return self._counters.get((name, _label_key(labels)), 0.0)

    def state(self) -> dict[str, Any]:
        """Plain-data snapshot (the cross-process exchange format)."""
        with self._lock:
            return {
                "counters": [
                    {"name": name, "labels": dict(labels), "value": value}
                    for (name, labels), value in sorted(
                        self._counters.items()
                    )
                ],
                "gauges": [
                    {"name": name, "labels": dict(labels), "value": value}
                    for (name, labels), value in sorted(self._gauges.items())
                ],
                "histograms": [
                    {"name": name, "labels": dict(labels),
                     **histogram.state()}
                    for (name, labels), histogram in sorted(
                        self._histograms.items()
                    )
                ],
                "spans": {
                    name: stats.state()
                    for name, stats in sorted(self._spans.items())
                },
                "recent_spans": [dict(e) for e in self._recent_spans],
            }

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold a :meth:`state` snapshot (e.g. a worker's) into self.

        Counters, histograms, and span aggregates sum; gauges keep the
        maximum across instances (a merged ``workers`` gauge reporting
        the larger pool is the conservative reading); recent span events
        append, keeping the newest ``MAX_RECENT_SPANS``.
        """
        for entry in state.get("counters", []):
            self.inc(entry["name"], float(entry["value"]),
                     entry.get("labels"))
        for entry in state.get("gauges", []):
            key = (entry["name"], _label_key(entry.get("labels")))
            with self._lock:
                value = float(entry["value"])
                self._gauges[key] = max(self._gauges.get(key, value), value)
        for entry in state.get("histograms", []):
            key = (entry["name"], _label_key(entry.get("labels")))
            with self._lock:
                histogram = self._histograms.get(key)
                if histogram is None:
                    histogram = self._histograms[key] = _HistogramData(
                        tuple(entry.get("buckets", DEFAULT_BUCKETS))
                    )
                histogram.merge(entry)
        with self._lock:
            for name, span_state in state.get("spans", {}).items():
                stats = self._spans.get(name)
                if stats is None:
                    stats = self._spans[name] = _SpanStats()
                stats.merge(span_state)
            self._recent_spans.extend(
                dict(e) for e in state.get("recent_spans", [])
            )
