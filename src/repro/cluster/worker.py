"""The ``cad-detect cluster-worker`` process.

A cluster worker is the remote twin of one
:class:`~repro.parallel.transport.LocalProcessTransport` slot: it
dials the coordinator, registers, and then serves *runs* — each run
starts with a ``CONFIGURE`` frame carrying the resolved calculator
spec plus the full snapshot sequence as raw CSR arrays, after which
``TASK`` frames are executed with the **existing**
:mod:`repro.parallel.worker` task functions
(:func:`~repro.parallel.worker.score_transition_chunk` /
:func:`~repro.parallel.worker.score_component_shard`) on exactly the
worker-local state a shared-memory pool worker would hold. Same code
path, same content-keyed randomness, therefore the same bit-for-bit
payload arrays a local run produces.

Liveness mirrors the local pool too: a daemon thread heartbeats every
``heartbeat_interval`` while a run is active; the coordinator's
supervisor requeues whatever shard a lost worker held.

The link itself is treated as unreliable. A dropped connection — EOF
mid-run, a reset, a corrupt frame, a half-open stall — is *not* a
clean exit: the worker abandons its in-flight shard (the coordinator
requeues it), then re-dials and re-registers with capped exponential
backoff plus jitter, surviving coordinator restarts and elastically
rejoining the ready pool. Only a ``SHUTDOWN`` frame (or ``max_runs``)
ends the process with exit 0; a link that stays dead after the
reconnect budget exits 1 when work was in flight.
"""

from __future__ import annotations

import os
import random
import select
import socket
import threading
import time
from typing import Any

import numpy as np
import scipy.sparse as sp

from ..core.commute import CommuteTimeCalculator
from ..graphs.snapshot import GraphSnapshot, NodeUniverse
from ..observability import (
    MetricsRegistry,
    current_registry,
    enable,
    get_logger,
    trace,
)
from ..parallel import worker as parallel_worker
from ..parallel.sharding import ComponentShard
from ..parallel.transport import encode_error
from ..parallel.worker import (
    WorkerConfig,
    score_component_shard,
    score_transition_chunk,
    set_task_attempt,
)
from . import protocol

_logger = get_logger("cluster.worker")

#: Default reconnect budget: consecutive failed reconnection cycles
#: tolerated before the worker gives up (a successful re-registration
#: resets it). 0 disables reconnection entirely.
DEFAULT_RECONNECT_ATTEMPTS = 5

#: Cap on one backoff sleep between dial/reconnect attempts (seconds).
BACKOFF_CAP = 4.0

#: Deadline on expected traffic while a run is active: bounds how
#: long a half-open or blackholed link can stall the worker (both the
#: select() wait between frames and a blocking mid-frame read) before
#: it surfaces as a dropped connection. During a run the coordinator
#: is never silent this long — TASK/RELEASE frames keep coming. Idle
#: (parked) workers wait without a deadline: an empty coordinator is
#: legitimate, and kernel keepalive covers a dead *direct* peer
#: (behind a middlebox that keeps ACKing, a parked worker on a dead
#: far side is reaped by the coordinator's replacement on re-dial or
#: by the operator).
RUN_IO_TIMEOUT = 60.0

#: Deadline on the registration handshake (REGISTER out, WELCOME
#: back). A peer that accepts the dial but never answers — a wedged
#: proxy, a half-open link that went bad between connect() and the
#: handshake — must cost one reconnect cycle, not hang the worker
#: forever: TCP keepalive cannot save us here because the near hop
#: (e.g. a proxy or an L4 balancer) keeps ACKing probes even when the
#: far side is dead.
REGISTER_TIMEOUT = 10.0


def _backoff_delay(base: float, failures: int,
                   cap: float = BACKOFF_CAP) -> float:
    """``min(cap, base * 2**(failures-1))`` plus up to 25% jitter."""
    delay = min(cap, max(base, 0.0) * (2 ** max(failures - 1, 0)))
    return delay + random.uniform(0.0, delay / 4)


class _LinkLost(Exception):
    """The coordinator link dropped (EOF, reset, corrupt frame)."""

    def __init__(self, error: BaseException, mid_run: bool,
                 welcomed: bool, runs_served: int):
        super().__init__(f"{type(error).__name__}: {error}")
        self.mid_run = mid_run
        self.welcomed = welcomed
        self.runs_served = runs_served


class _Shutdown(Exception):
    """The coordinator asked this worker to exit (clean)."""


def default_worker_id() -> str:
    """Stable per-process identity: ``<hostname>-<pid>``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def snapshots_from_wire(graph_doc: dict[str, Any]) -> list[GraphSnapshot]:
    """Rebuild canonical snapshots from a ``CONFIGURE`` graph payload.

    The arrays arrive exactly as the shared-memory tier stores them
    (``float64`` data, ``int64`` indices), so the rebuilt matrices are
    indistinguishable from an attached sequence.
    """
    num_nodes = int(graph_doc["num_nodes"])
    universe = NodeUniverse.of_size(num_nodes)
    snapshots = []
    for entry in graph_doc["snapshots"]:
        matrix = sp.csr_matrix(
            (np.asarray(entry["data"], dtype=np.float64),
             np.asarray(entry["indices"], dtype=np.int64),
             np.asarray(entry["indptr"], dtype=np.int64)),
            shape=(num_nodes, num_nodes),
        )
        snapshots.append(
            GraphSnapshot._from_canonical(matrix, universe,
                                          entry["time"])
        )
    return snapshots


def graph_to_wire(graph) -> dict[str, Any]:
    """The ``CONFIGURE`` graph payload for a dynamic graph."""
    return {
        "num_nodes": graph.num_nodes,
        "snapshots": [
            {
                "data": np.asarray(s.adjacency.data, dtype=np.float64),
                "indices": np.asarray(s.adjacency.indices,
                                      dtype=np.int64),
                "indptr": np.asarray(s.adjacency.indptr,
                                     dtype=np.int64),
                "time": s.time,
            }
            for s in graph
        ],
    }


def _configure_state(document: dict[str, Any]) -> None:
    """Populate :data:`repro.parallel.worker._STATE` for this run.

    Mirrors :func:`repro.parallel.worker.init_worker`, with the
    shared-memory attachment replaced by the wire-shipped snapshots.
    """
    spec = document["spec"]
    registry = None
    if spec.get("collect_metrics") and current_registry() is None:
        # A dedicated worker process: collect into a worker-local
        # registry whose snapshot rides back on each result for the
        # coordinator to merge. When a registry is already active we
        # are embedded in the host process (in-process worker threads)
        # — counters land in the host's ambient registry directly, and
        # shipping a snapshot back would double-count them, so the
        # per-worker registry stays off. Never replace an active
        # registry: that would erase counters the host recorded before
        # this run (reconnects, registrations).
        registry = MetricsRegistry()
        enable(registry)
    with trace("cluster.worker.configure", pid=os.getpid()):
        snapshots = snapshots_from_wire(document["graph"])
        config = WorkerConfig(
            sequence=None,
            method=spec["method"],
            k=spec["k"],
            root_entropy=spec["root_entropy"],
            solver=spec["solver"],
            tol=spec["tol"],
            skip_unscorable=spec.get("skip_unscorable", False),
            collect_metrics=bool(spec.get("collect_metrics")),
            chaos=spec.get("chaos"),
            factor_cache=spec.get("factor_cache"),
            cache_budget_mb=spec.get("cache_budget_mb"),
            delta_budget=spec.get("delta_budget"),
        )
        calculator = CommuteTimeCalculator(
            method=config.method, k=config.k,
            seed=config.root_entropy, solver=config.solver,
            tol=config.tol, seed_mode="content",
            factor_cache=config.factor_cache,
            cache_budget_mb=config.cache_budget_mb,
            delta_budget=config.delta_budget,
        )
    parallel_worker._STATE.clear()
    parallel_worker._STATE.update(
        config=config,
        attached=None,
        snapshots=snapshots,
        calculator=calculator,
        registry=registry,
    )


def _execute_task(task: dict[str, Any]) -> dict[str, Any]:
    set_task_attempt(int(task.get("attempt", 0)))
    if task["kind"] == "chunk":
        return score_transition_chunk(tuple(task["transitions"]))
    shard = ComponentShard(
        shard_id=int(task["shard_id"]),
        transition=int(task["transition"]),
        nodes=task["nodes"],
        rows=task["rows"],
        cols=task["cols"],
        positions=task["positions"],
    )
    return score_component_shard(shard)


class _Heartbeat:
    """Daemon thread beating over the shared socket during a run.

    A failed heartbeat send (reset link, filled half-open buffer) sets
    :attr:`failed`; the serving loop polls it so a dead link surfaces
    even while the worker is blocked waiting for its next task.
    """

    def __init__(self, sock: socket.socket, lock: threading.Lock,
                 run_token: str, interval: float | None):
        self._sock = sock
        self._lock = lock
        self._token = run_token
        self._interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.failed = threading.Event()

    def start(self) -> None:
        if not self._interval:
            return
        self._thread = threading.Thread(
            target=self._beat, daemon=True, name="cluster-heartbeat"
        )
        self._thread.start()

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                protocol.send_frame(self._sock, protocol.HEARTBEAT,
                                    {"run": self._token},
                                    lock=self._lock)
            except Exception:
                # Socket gone: the run is over one way or another.
                self.failed.set()
                return

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None


def _wait_readable(sock: socket.socket,
                   failed: threading.Event | None = None,
                   poll: float = 0.5,
                   timeout: float | None = None) -> None:
    """Block until ``sock`` has data, watching the heartbeat health.

    Raises ``EOFError`` when the heartbeat thread reported a failed
    send — the worker side of half-open detection: reads would block
    forever on a blackholed link, but sends fail fast once the peer
    resets (or the send buffer fills), so the run unblocks in bounded
    time and the reconnect loop takes over.

    ``timeout`` bounds the whole wait. Heartbeat-send failure alone is
    not enough: behind a proxy or an L4 balancer the near hop happily
    buffers our sends while the far side is a corpse, so sends keep
    "succeeding" and only a deadline on *expected traffic* catches it.
    """
    deadline = None if timeout is None \
        else time.monotonic() + timeout
    while True:
        try:
            ready, _, _ = select.select([sock], [], [], poll)
        except (OSError, ValueError) as error:
            raise EOFError(
                f"socket closed while waiting for frames: {error}"
            ) from error
        if ready:
            return
        if failed is not None and failed.is_set():
            raise EOFError(
                "heartbeat delivery failed; coordinator link presumed "
                "dead"
            )
        if deadline is not None and time.monotonic() >= deadline:
            raise EOFError(
                f"no frame within {timeout:g}s during a run; "
                "coordinator link presumed dead"
            )


def connect(host: str, port: int, attempts: int = 20,
            delay: float = 0.25,
            cap: float = BACKOFF_CAP) -> socket.socket:
    """Dial the coordinator with capped exponential backoff + jitter.

    The n-th failed attempt sleeps ``min(cap, delay * 2**(n-1))`` plus
    up to 25% jitter, so a fleet of workers re-dialing a restarted
    coordinator does not stampede it in lockstep.
    """
    last_error: Exception | None = None
    total = max(attempts, 1)
    for attempt in range(total):
        try:
            sock = socket.create_connection((host, port), timeout=30.0)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            protocol.enable_keepalive(sock)
            return sock
        except OSError as error:
            last_error = error
            if attempt + 1 < total:
                time.sleep(_backoff_delay(delay, attempt + 1, cap))
    raise ConnectionError(
        f"could not reach coordinator at {host}:{port} after "
        f"{attempts} attempt(s): {last_error}"
    )


def run_worker(host: str, port: int, worker_id: str | None = None,
               max_runs: int | None = None,
               connect_attempts: int = 20,
               reconnect_attempts: int = DEFAULT_RECONNECT_ATTEMPTS,
               reconnect_backoff: float = 0.25) -> int:
    """Register with a coordinator and serve runs until shut down.

    Returns a process exit code: 0 after a clean ``SHUTDOWN`` (or
    ``max_runs``), and 0 after an idle link died for good; 1 when the
    link dropped *mid-run* and the reconnect budget could not bring it
    back — in-flight work was abandoned (the coordinator requeues it),
    which an operator should see.

    A dropped link — EOF, reset, corrupt frame, half-open stall — is
    never treated as a clean release: the worker re-dials with capped
    exponential backoff plus jitter and re-registers, surviving
    coordinator restarts and rejoining the ready pool. Each successful
    registration resets the reconnect budget.

    Args:
        host / port: the coordinator's listening address.
        worker_id: identity advertised at registration (default
            ``<hostname>-<pid>``).
        max_runs: serve at most this many runs, then exit (test hook).
        connect_attempts: initial dial retries while the coordinator
            binds; failure to connect at all raises ``ConnectionError``
            exactly as before.
        reconnect_attempts: consecutive failed reconnection cycles
            tolerated after a dropped link before giving up; 0
            disables reconnection.
        reconnect_backoff: base backoff delay between reconnection
            cycles (seconds), doubled per consecutive failure up to
            :data:`BACKOFF_CAP`, with jitter.
    """
    worker_id = worker_id or default_worker_id()
    reconnect_attempts = max(int(reconnect_attempts), 0)
    runs_served = 0
    failures = 0      # consecutive failed reconnection cycles
    sessions = 0      # registration attempts made so far
    mid_run_drop = False
    while True:
        first = sessions == 0 and failures == 0
        try:
            sock = connect(
                host, port,
                attempts=connect_attempts if first else 1,
                delay=reconnect_backoff,
            )
        except ConnectionError as error:
            if first:
                raise
            failures += 1
            if failures > reconnect_attempts:
                _logger.error(
                    "worker %s: coordinator at %s:%d unreachable "
                    "after %d reconnect cycle(s): %s", worker_id,
                    host, port, failures - 1, error,
                )
                break
            time.sleep(_backoff_delay(reconnect_backoff, failures))
            continue
        sessions += 1
        try:
            try:
                _session(sock, worker_id, max_runs, runs_served,
                         reconnect=sessions > 1)
                return 0  # max_runs reached
            except _Shutdown:
                return 0
            except _LinkLost as lost:
                runs_served = lost.runs_served
                mid_run_drop = lost.mid_run
                if lost.welcomed:
                    failures = 0
                failures += 1
                retry = reconnect_attempts > 0 \
                    and failures <= reconnect_attempts
                _logger.warning(
                    "worker %s: coordinator link lost%s (%s)%s",
                    worker_id,
                    " mid-run" if lost.mid_run else "", lost,
                    f"; reconnecting ({failures}/"
                    f"{reconnect_attempts})" if retry
                    else "; reconnect budget exhausted",
                )
                if not retry:
                    break
        finally:
            try:
                sock.close()
            except OSError:
                pass
        time.sleep(_backoff_delay(reconnect_backoff, failures))
    return 1 if mid_run_drop else 0


def _session(sock: socket.socket, worker_id: str,
             max_runs: int | None, runs_served: int,
             reconnect: bool) -> None:
    """One coordinator connection: register, then serve runs.

    Returns when ``max_runs`` is reached; raises :class:`_Shutdown` on
    a clean ``SHUTDOWN`` frame and :class:`_LinkLost` when the link
    drops (tagging whether a run was in flight).
    """
    lock = threading.Lock()
    welcomed = False
    in_run = False
    try:
        sock.settimeout(REGISTER_TIMEOUT)
        protocol.send_frame(sock, protocol.REGISTER, {
            "worker_id": worker_id,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "reconnect": reconnect,
        }, lock=lock)
        try:
            kind, _ = protocol.recv_frame(sock)
        except TimeoutError as error:
            raise EOFError(
                f"no welcome within {REGISTER_TIMEOUT:g}s of "
                "registering; peer accepted the dial but never "
                "answered"
            ) from error
        if kind != protocol.WELCOME:
            raise protocol.ProtocolError(
                f"expected a welcome frame, got "
                f"{protocol.MESSAGE_NAMES.get(kind, kind)}"
            )
        sock.settimeout(None)
        welcomed = True
        _logger.info("worker %s %sregistered with coordinator",
                     worker_id, "re-" if reconnect else "")
        while True:
            _wait_readable(sock)
            kind, document = protocol.recv_frame(sock)
            if kind == protocol.SHUTDOWN:
                raise _Shutdown()
            if kind != protocol.CONFIGURE:
                raise protocol.ProtocolError(
                    f"expected a configure frame, got "
                    f"{protocol.MESSAGE_NAMES.get(kind, kind)}"
                )
            in_run = True
            _serve_run(sock, lock, worker_id, document)
            in_run = False
            runs_served += 1
            if max_runs is not None and runs_served >= max_runs:
                return
    except (EOFError, OSError, protocol.ProtocolError) as error:
        raise _LinkLost(error, mid_run=in_run, welcomed=welcomed,
                        runs_served=runs_served) from error


def _serve_run(sock: socket.socket, lock: threading.Lock,
               worker_id: str, configure: dict[str, Any]) -> None:
    """One run: configure state, then execute tasks until RELEASE."""
    run_token = configure.get("run", "")
    try:
        _configure_state(configure)
    except BaseException as error:  # noqa: BLE001 - shipped to parent
        protocol.send_frame(sock, protocol.INIT_ERROR, {
            "run": run_token, "error": encode_error(error),
        }, lock=lock)
        return
    heartbeat = _Heartbeat(sock, lock, run_token,
                           configure.get("heartbeat_interval"))
    heartbeat.start()
    # A bounded read timeout during runs: a blackholed link must not
    # pin the worker on a blocking recv forever. The heartbeat-failure
    # event usually fires first; the timeout is the backstop.
    sock.settimeout(RUN_IO_TIMEOUT)
    try:
        while True:
            _wait_readable(sock, heartbeat.failed,
                           timeout=RUN_IO_TIMEOUT)
            try:
                kind, document = protocol.recv_frame(sock)
            except TimeoutError as error:
                raise EOFError(
                    f"no frame within {RUN_IO_TIMEOUT:g}s during a run"
                ) from error
            if kind == protocol.RELEASE:
                return
            if kind == protocol.SHUTDOWN:
                raise _Shutdown()
            if kind != protocol.TASK:
                raise protocol.ProtocolError(
                    f"expected a task frame, got "
                    f"{protocol.MESSAGE_NAMES.get(kind, kind)}"
                )
            task_id = document["task_id"]
            try:
                result = _execute_task(document)
            except BaseException as error:  # noqa: BLE001 - to parent
                protocol.send_frame(sock, protocol.ERROR, {
                    "run": run_token, "task_id": task_id,
                    "error": encode_error(error),
                }, lock=lock)
            else:
                # The parent keys health/metrics by worker identity;
                # a bare pid is ambiguous across machines.
                result["worker"] = worker_id
                protocol.send_frame(sock, protocol.RESULT, {
                    "run": run_token, "task_id": task_id,
                    "result": result,
                }, lock=lock)
    finally:
        heartbeat.stop()
        try:
            sock.settimeout(None)
        except OSError:
            pass
        parallel_worker._STATE.clear()
