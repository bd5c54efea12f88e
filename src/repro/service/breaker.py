"""Per-session circuit breakers for the detection service.

A session whose pushes keep failing server-side is tripped open for a
cooldown (doubling on consecutive trips, capped at 32x) and rejected
with 503 ``circuit_open`` until it elapses; the first push after that
is a half-open probe whose failure re-trips at once and whose success
closes the breaker fully.
"""

from __future__ import annotations

import time
from typing import Any

from ..exceptions import (
    DetectionError,
    GraphConstructionError,
    SanitizationError,
)
from ..observability import add_counter, get_logger
from ..store import FencedWriteError, StoreUnavailableError
from .errors import (
    CapacityError,
    CircuitOpenError,
    DeadlineError,
    NotOwnerError,
    ServiceError,
    ShuttingDownError,
    bounded_retry_after,
)

_logger = get_logger("service.breaker")


def counts_as_failure(error: BaseException) -> bool:
    """Only server-side faults count toward the breaker: client errors
    (4xx), flow-control rejections, and infrastructure transients
    (partitions, ownership moves) must not trip it."""
    if isinstance(error, (ShuttingDownError, CircuitOpenError,
                          DeadlineError, CapacityError, NotOwnerError,
                          FencedWriteError, StoreUnavailableError)):
        return False
    if isinstance(error, ServiceError):
        return error.status >= 500
    # Payload faults render as 400.
    return not isinstance(error, (GraphConstructionError,
                                  SanitizationError, DetectionError))


class Breaker:
    """One session's breaker.

    Args:
        session_id: the session it guards (named in errors and logs).
        threshold: consecutive server-side failures that trip it.
        cooldown: seconds the first trip stays open.
    """

    __slots__ = ("session_id", "threshold", "cooldown", "failures",
                 "until", "trips", "reason")

    def __init__(self, session_id: str, threshold: int, cooldown: float):
        self.session_id = session_id
        self.threshold = threshold
        self.cooldown = cooldown
        #: Consecutive counted failures since the last success or trip.
        self.failures = 0
        #: Monotonic time the breaker stays open until (0: closed).
        self.until = 0.0
        #: Lifetime trips, and the reason of the latest one.
        self.trips = 0
        self.reason = ""

    def check(self) -> None:
        """Reject the push while the breaker is open."""
        remaining = self.until - time.monotonic()
        if remaining > 0:
            raise CircuitOpenError(
                f"session {self.session_id} circuit breaker is open "
                f"({self.reason})",
                retry_after=bounded_retry_after(max(remaining, 0.1)),
            )

    def success(self) -> None:
        """A successful push closes the breaker fully."""
        self.failures = 0
        self.until = 0.0

    def failure(self, error: BaseException) -> None:
        if not counts_as_failure(error):
            return
        # A failure while half-open (cooldown elapsed, this push was
        # the probe) re-trips immediately.
        failed_probe = 0.0 < self.until <= time.monotonic()
        self.failures += 1
        if not failed_probe and self.failures < self.threshold:
            return
        cooldown = self.cooldown * 2 ** min(self.trips, 5)
        self.until = time.monotonic() + cooldown
        self.trips += 1
        self.reason = f"{type(error).__name__}: {error}"
        self.failures = 0
        add_counter("service_breaker_trips_total")
        _logger.warning("session %s breaker tripped for %.1fs: %s",
                        self.session_id, cooldown, self.reason)

    def describe(self) -> dict[str, Any]:
        return {
            "open": self.until > time.monotonic(),
            "trips": self.trips,
            "reason": self.reason or None,
        }
