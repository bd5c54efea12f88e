"""Subprocesses the benchmark starts: the ``serve`` front end and
``cluster-worker`` processes, plain or under the tracing launcher.

Every child is tracked and stopped by :func:`stop_all`, which the
runner calls on every exit path.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from measure import child_peak_rss_mb

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

_children: list[subprocess.Popen] = []


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def command(args: list[str], spans: Path | None) -> list[str]:
    """``cad-detect <args>``, through the tracing launcher when
    ``spans`` names the file its spans go to."""
    if spans is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, str(HERE / "launch.py"), str(spans), *args]


def start(args: list[str], log: Path,
          spans: Path | None = None) -> subprocess.Popen:
    """Start ``cad-detect <args>``."""
    with open(log, "wb") as handle:
        proc = subprocess.Popen(
            command(args, spans), env=child_env(),
            stdout=handle, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
    _children.append(proc)
    return proc


def wait_for_line(log: Path, marker: str, proc: subprocess.Popen) -> str:
    """The first log line containing ``marker``, within 60 s."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        try:
            for line in log.read_text(errors="replace").splitlines():
                if marker in line:
                    return line
        except OSError:
            pass
        if proc.poll() is not None:
            raise RuntimeError(
                f"child exited with {proc.returncode} before "
                f"{marker!r}: {log.read_text(errors='replace')[-2000:]}"
            )
        time.sleep(0.01)
    raise RuntimeError(f"timed out waiting for {marker!r} in {log}")


def peak_rss_mb(procs) -> float:
    """Summed peak resident set of live children, in MiB."""
    return sum(child_peak_rss_mb(proc.pid) for proc in procs)


def stop(proc: subprocess.Popen) -> int | None:
    """SIGTERM (a server drains; a worker exits), then SIGKILL."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    return wait_exit(proc)


def wait_exit(proc: subprocess.Popen) -> int | None:
    """Wait for a child that was told to exit; kill it after 20 s."""
    try:
        proc.wait(timeout=20.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
    return proc.returncode


def stop_all() -> None:
    while _children:
        proc = _children.pop()
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
