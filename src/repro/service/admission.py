"""Admission control for the detection service: how much ingest may
run at once, how long a rejected client should wait, and when
sustained pressure sheds work onto the approximate backend.

A global budget of ``max_queue`` snapshots may be in flight; beyond it
pushes fail fast with :class:`~repro.service.errors.CapacityError`
(HTTP 429 + ``Retry-After``, estimated from the queue depth and the
recent per-snapshot latency) instead of queueing unboundedly. Every
admission (and rejection) is a utilization observation: after
``degrade_after`` consecutive observations at or above
``degrade_pressure`` the service enters *degraded mode*, and after as
many at or below :data:`DEGRADE_RECOVER_UTILIZATION` it leaves it.
"""

from __future__ import annotations

import threading
from collections import deque

from ..observability import add_counter, get_logger, set_gauge
from .errors import CapacityError, bounded_retry_after

_logger = get_logger("service.admission")

#: Utilization at/below which pressure is considered relieved (the
#: degraded-mode hysteresis floor; the ceiling is configurable).
DEGRADE_RECOVER_UTILIZATION = 0.25


class Admission:
    """The ingest budget, Retry-After estimator and degraded mode."""

    def __init__(self, max_queue: int, degrade_pressure: float,
                 degrade_after: int):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = int(max_queue)
        self._degrade_pressure = float(degrade_pressure)
        self._degrade_after = max(int(degrade_after), 1)
        self._lock = threading.Lock()
        #: Snapshots being ingested right now.
        self.in_flight = 0
        #: Recent per-snapshot ingest latencies (the estimator's input).
        self.latencies: deque[float] = deque(maxlen=32)
        #: Whether eligible sessions are shed onto the approximate
        #: backend.
        self.degraded = False
        self._pressure_high = 0
        self._pressure_low = 0

    def acquire(self, count: int) -> None:
        """Claim ``count`` slots of the ingest budget or raise 429."""
        if count > self.max_queue:
            raise CapacityError(
                f"batch of {count} snapshots exceeds the ingest budget "
                f"of {self.max_queue}; split the batch",
                retry_after=bounded_retry_after(1.0),
            )
        with self._lock:
            if self.in_flight + count > self.max_queue:
                add_counter("service_rejections_total",
                            reason="over_capacity")
                self._note_pressure(1.0)
                raise CapacityError(
                    f"ingest budget exhausted ({self.in_flight} of "
                    f"{self.max_queue} snapshots in flight)",
                    retry_after=bounded_retry_after(self._retry_after()),
                )
            self.in_flight += count
            set_gauge("service_ingest_in_flight", self.in_flight)
            self._note_pressure(self.in_flight / self.max_queue)

    def release(self, count: int) -> None:
        with self._lock:
            self.in_flight = max(self.in_flight - count, 0)
            set_gauge("service_ingest_in_flight", self.in_flight)

    def observe(self, elapsed: float, count: int) -> None:
        """Record a push's per-snapshot latency for the estimator."""
        with self._lock:
            self.latencies.append(max(elapsed, 0.0) / max(count, 1))

    def _retry_after(self) -> float:
        """Queue depth times the recent mean per-snapshot latency (lock
        held). Jitter and the hard [floor, cap] clamp are applied by
        :func:`~repro.service.errors.bounded_retry_after`."""
        if self.latencies:
            mean = sum(self.latencies) / len(self.latencies)
        else:
            mean = 1.0
        return max(self.in_flight, 1) * mean

    def _note_pressure(self, utilization: float) -> None:
        """Track sustained budget pressure; flip degraded mode after
        ``degrade_after`` consecutive observations (lock held)."""
        if utilization >= self._degrade_pressure:
            self._pressure_high += 1
            self._pressure_low = 0
            if not self.degraded and \
                    self._pressure_high >= self._degrade_after:
                self.degraded = True
                set_gauge("service_degraded", 1)
                add_counter("service_degraded_entries_total")
                _logger.warning(
                    "sustained ingest pressure (utilization %.2f); "
                    "entering degraded mode", utilization,
                )
        elif utilization <= DEGRADE_RECOVER_UTILIZATION:
            self._pressure_low += 1
            self._pressure_high = 0
            if self.degraded and \
                    self._pressure_low >= self._degrade_after:
                self.degraded = False
                set_gauge("service_degraded", 0)
                _logger.info(
                    "ingest pressure relieved; leaving degraded mode"
                )
        else:
            self._pressure_high = 0
            self._pressure_low = 0
