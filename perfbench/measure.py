"""Measurement primitives: percentiles, the tail rule, failed-op
accounting, peak memory and the environment record."""

from __future__ import annotations

import math
import os
import platform
import resource
import time
from dataclasses import dataclass, field

#: A tail percentile is reported only with at least this many samples
#: above it.
MIN_BEYOND = 10

#: Environment variables that cap BLAS/OpenMP thread pools.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def has_tail(count: int, q: float) -> bool:
    """Whether ``count`` samples support a ``q`` percentile tail: at
    least :data:`MIN_BEYOND` of them lie above it."""
    return samples_beyond(count, q) >= MIN_BEYOND


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


@dataclass
class OpLog:
    """Attempted/failed accounting for the operations of one run.

    A failed operation (an exception, or a refused/errored HTTP
    response) counts against ``failed`` and contributes no latency:
    it misses every latency limit by definition.
    """

    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def ok(self, seconds: float) -> None:
        self.attempted += 1
        self.latencies.append(seconds)

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def timed(self, function, *args, **kwargs):
        """Call ``function``; record its latency, or a failure when it
        raises. Returns ``(ok, result_or_exception)``."""
        started = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - every failure counts
            self.fail(f"{type(error).__name__}: {error}")
            return False, error
        self.ok(time.perf_counter() - started)
        return True, result


def pin_blas_threads() -> None:
    """Cap BLAS/OpenMP pools at one thread for this process and its
    children (must run before numpy is imported)."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def self_peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live child (``VmHWM``), in MiB; 0 when
    the process is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def environment() -> dict:
    """The facts a number needs to be read against."""
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name)
                         for name in BLAS_THREAD_VARS},
    }
