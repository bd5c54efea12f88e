"""Session lifecycle for the detection service.

A :class:`SessionManager` owns many concurrent
:class:`~repro.core.streaming.StreamingCadDetector` streams:

* **per-session locking** — pushes to one session serialise, pushes to
  distinct sessions run concurrently under the threading HTTP server;
* **bounded ingest** — a global budget of ``max_queue`` snapshots may
  be in flight at once; beyond it pushes fail fast with
  :class:`~repro.service.errors.CapacityError` (HTTP 429 +
  ``Retry-After``) instead of queueing unboundedly;
* **LRU eviction** — at most ``max_sessions`` detectors stay resident;
  the least-recently-used idle session is checkpointed to the store
  (the streaming npz checkpoint plus a JSON sidecar with its
  configuration) and transparently resurrected on its next request;
* **drain** — :meth:`drain` checkpoints every resident session and
  releases its leases so a SIGTERM leaves nothing but resumable,
  immediately adoptable state behind;
* **write-ahead logging** — every accepted snapshot is appended to a
  per-session WAL (:mod:`repro.service.wal`) and replayed on adoption,
  so even a SIGKILL/OOM between checkpoints loses nothing that was
  acknowledged;
* **pluggable durable storage** — all of the above goes through a
  :class:`~repro.store.SessionStore`: a local directory
  (byte-compatible with the pre-store layout) or a shared
  multi-replica prefix (:class:`~repro.store.SharedStore`);
* **replica-safe ownership** — with ``lease_ttl`` set, every session
  is protected by a TTL lease with a monotonic fencing token
  (:mod:`repro.store.lease`): a heartbeat renews held leases, any
  replica adopts a session whose lease expired or was released, and
  every WAL append / checkpoint write is guarded so a stale owner's
  writes are rejected instead of corrupting the new owner's state;
* **failure isolation** — per-session circuit breakers trip
  persistently failing sessions to 503-with-reason, request deadlines
  bound how long a push may wait on a wedged session, and sustained
  queue pressure flips the manager into a *degraded mode* that sheds
  eligible sessions onto the approximate commute-time backend;
* **quarantine** — corrupt checkpoints/WALs found at startup are moved
  under the store's ``quarantine/`` prefix with a logged reason
  instead of crashing adoption.

Batch pushes can be routed through the parallel engine
(:class:`~repro.parallel.ParallelCadDetector`, ``workers > 1``) when
the configuration guarantees bit-for-bit parity with serial scoring;
anything else falls back to serial pushes.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import socket
import tempfile
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

from ..core.streaming import DetectionStream, StreamingCadDetector
from ..detectors.streaming import StreamingDetector
from ..exceptions import (
    CheckpointError,
    DetectionError,
    GraphConstructionError,
    SanitizationError,
)
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import GraphSnapshot, NodeUniverse
from ..observability import (
    add_counter,
    get_logger,
    set_gauge,
    set_log_context,
    trace,
)
from ..parallel import ParallelCadDetector
from ..pipeline.serialize import (
    raw_snapshot_from_payload,
    report_to_dict,
    snapshot_from_payload,
)
from ..resilience.checkpoint import FORMAT as CHECKPOINT_FORMAT
from ..store import (
    FencedWriteError,
    Lease,
    LeaseManager,
    LocalDirStore,
    ReplicaCatalog,
    SessionStore,
    StoreError,
    StoreUnavailableError,
    resolve_store,
)
from .errors import (
    CapacityError,
    CircuitOpenError,
    DeadlineError,
    NotFoundError,
    NotOwnerError,
    ServiceError,
    SessionStateError,
    ShuttingDownError,
    bounded_retry_after,
)
from .protocol import (
    SessionConfig,
    parse_session_config,
    push_response,
    snapshot_documents,
)
from .wal import SessionWal

_logger = get_logger("service.sessions")

def default_replica_id() -> str:
    """``<hostname>-<pid>``: stable for the process's lifetime and
    distinguishable across replicas, so lease records and failover
    logs from different replicas never collide on a generic default."""
    return f"{socket.gethostname()}-{os.getpid()}"


def build_stream(config: SessionConfig,
                 checkpoint: str | Path | None = None) -> DetectionStream:
    """Construct the stream a session's config asks for, or restore it
    from an npz ``checkpoint``.

    CAD methods (``exact``/``approx``/``auto``/``cad``) get the
    commute-time stream; every other (registry) method runs behind the
    generic :class:`~repro.detectors.StreamingDetector` wrapper.
    """
    if config.uses_cad:
        stream_class, kwargs = StreamingCadDetector, config.detector_kwargs()
    else:
        stream_class, kwargs = StreamingDetector, config.stream_kwargs()
    if checkpoint is None:
        return stream_class(**kwargs)
    return stream_class.restore(checkpoint, **kwargs)

#: Sidecar format marker written next to eviction checkpoints.
SIDECAR_FORMAT = "repro-service-session"
SIDECAR_VERSION = 1

#: Utilization at/below which pressure is considered relieved (the
#: degraded-mode hysteresis floor; the ceiling is configurable).
DEGRADE_RECOVER_UTILIZATION = 0.25

#: Attempts per durable-store write before a transient
#: :class:`~repro.store.StoreUnavailableError` escalates to the caller.
STORE_WRITE_ATTEMPTS = 3

#: Base backoff between store write retries (doubles per attempt).
STORE_RETRY_BACKOFF = 0.05


class SessionRecord:
    """One session's bookkeeping (detector may be evicted to disk)."""

    __slots__ = (
        "session_id", "config", "lock", "detector", "universe",
        "last_active", "finalized", "pushes", "has_checkpoint",
        "wal", "wal_pending", "breaker_failures", "breaker_until",
        "breaker_trips", "breaker_reason", "degraded_pushes", "lease",
    )

    def __init__(self, session_id: str, config: SessionConfig):
        self.session_id = session_id
        self.config = config
        self.lock = threading.Lock()
        self.detector: DetectionStream | None = build_stream(config)
        self.universe: NodeUniverse | None = None
        self.last_active = 0
        self.finalized = False
        self.pushes = 0
        self.has_checkpoint = False
        #: Write-ahead log (None when WAL is disabled).
        self.wal: SessionWal | None = None
        #: Snapshot entries appended since the last WAL compaction.
        self.wal_pending = 0
        # Circuit-breaker state: consecutive server-side failures, the
        # monotonic time the breaker stays open until, lifetime trips,
        # and the reason it last tripped.
        self.breaker_failures = 0
        self.breaker_until = 0.0
        self.breaker_trips = 0
        self.breaker_reason = ""
        #: Snapshots this session scored on the shed (approximate)
        #: backend while the manager was degraded.
        self.degraded_pushes = 0
        #: Held ownership lease (None when leasing is disabled or
        #: ownership was released/lost).
        self.lease: Lease | None = None

    @property
    def resident(self) -> bool:
        """Whether the detector currently lives in memory."""
        return self.detector is not None


class SessionManager:
    """Thread-safe owner of every live and evicted session.

    Args:
        max_sessions: resident-detector ceiling; the LRU idle session
            is checkpointed to the store when a new one would exceed it.
        max_queue: global bound on snapshots being ingested at once
            (the backpressure budget).
        checkpoint_dir: where eviction/drain checkpoints live when no
            ``store`` is given (wrapped in a
            :class:`~repro.store.LocalDirStore`, byte-compatible with
            the pre-store layout); also scanned at startup so sessions
            survive a restart.
        store: durable backend for checkpoints, sidecars, WALs, and
            lease records — a :class:`~repro.store.SessionStore` or a
            ``local:<dir>`` / ``shared:<dir>`` spec string. Mutually
            exclusive with ``checkpoint_dir``.
        replica_id: this replica's stable identity for lease records,
            log context, ``/healthz``, and the replica catalogue
            (default: ``<hostname>-<pid>``).
        lease_ttl: enable per-session ownership leases with this TTL
            in seconds. Required for multi-replica deployments on a
            shared store; ``None`` (default) keeps the single-writer
            behavior with no lease overhead.
        workers: when > 1, eligible batch pushes are scored by the
            parallel engine with this many processes.
        wal: write every accepted snapshot to a per-session
            write-ahead log and replay it on adoption, so hard kills
            (SIGKILL/OOM) lose nothing acknowledged (default on).
        wal_compact_every: compact a session's WAL into its npz
            checkpoint after this many logged snapshots.
        request_deadline: seconds a push may wait for its session lock
            before failing with 503 ``deadline_exceeded`` (``None``
            waits indefinitely).
        breaker_threshold: consecutive server-side push failures that
            trip a session's circuit breaker.
        breaker_cooldown: seconds a tripped breaker stays open
            (doubles on consecutive trips, capped at 32x).
        degrade_pressure: ingest-budget utilization at/above which an
            acquisition counts as pressure.
        degrade_after: consecutive pressured acquisitions before the
            manager enters degraded mode (and, symmetrically, calm
            acquisitions before it recovers).
        factor_cache: enable the process-wide factorization cache
            (:mod:`repro.linalg.factorcache`) for every CAD session by
            default; individual sessions may still opt in via their
            own config when this is off.
        cache_budget_mb: byte budget for the shared factor cache
            applied to sessions that don't set their own.
        catalog_ttl: lifetime of this replica's catalogue record
            (``replicas/<id>.json``); refreshed at a third of it once
            :meth:`advertise` has run.
    """

    def __init__(self, max_sessions: int = 64,
                 max_queue: int = 32,
                 checkpoint_dir: str | Path | None = None,
                 store: SessionStore | str | None = None,
                 replica_id: str | None = None,
                 lease_ttl: float | None = None,
                 workers: int = 1,
                 wal: bool = True,
                 wal_compact_every: int = 64,
                 request_deadline: float | None = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 degrade_pressure: float = 0.85,
                 degrade_after: int = 3,
                 factor_cache: bool = False,
                 cache_budget_mb: int | None = None,
                 catalog_ttl: float = 15.0):
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        self._max_sessions = int(max_sessions)
        self._max_queue = int(max_queue)
        self._workers = max(int(workers), 1)
        self._wal = bool(wal)
        self._wal_compact_every = max(int(wal_compact_every), 1)
        self._request_deadline = request_deadline
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_cooldown = float(breaker_cooldown)
        self._degrade_pressure = float(degrade_pressure)
        self._degrade_after = max(int(degrade_after), 1)
        self._factor_cache = bool(factor_cache)
        self._cache_budget_mb = cache_budget_mb
        if store is not None and checkpoint_dir is not None:
            raise ValueError(
                "pass either store= or checkpoint_dir=, not both"
            )
        if store is not None:
            self._store = resolve_store(store)
        else:
            if checkpoint_dir is None:
                checkpoint_dir = tempfile.mkdtemp(prefix="repro-service-")
                _logger.info("checkpoint dir not given; using %s",
                             checkpoint_dir)
            self._store = LocalDirStore(checkpoint_dir)
        self._replica_id = replica_id or default_replica_id()
        # Every log record this process emits now carries the replica
        # identity, so interleaved multi-replica logs stay attributable.
        set_log_context(replica=self._replica_id)
        self._leases: LeaseManager | None = None
        if lease_ttl is not None:
            self._leases = LeaseManager(self._store, self._replica_id,
                                        float(lease_ttl))
        self._catalog = ReplicaCatalog(self._store, self._replica_id,
                                       ttl=float(catalog_ttl))
        self._catalog_stop = threading.Event()
        self._catalog_thread: threading.Thread | None = None
        self._sessions: dict[str, SessionRecord] = {}
        self._table_lock = threading.Lock()
        # Serializes store-adoption probes so two concurrent requests
        # for the same unknown session don't both acquire its lease
        # (the second acquisition would bump the token and fence the
        # first's writes for nothing).
        self._discover_lock = threading.Lock()
        self._clock = 0  # monotonic LRU counter, guarded by _table_lock
        self._in_flight = 0  # ingest budget in use, guarded by _table_lock
        self._draining = False
        # Degraded-mode state, guarded by _table_lock: recent
        # per-snapshot ingest latencies (the Retry-After estimator) and
        # the pressure/calm streak counters.
        self._latencies: deque[float] = deque(maxlen=32)
        self._degraded = False
        self._pressure_high = 0
        self._pressure_low = 0
        self._load_existing()
        # The lease heartbeat starts only after startup adoption, so
        # it never races _load_existing's acquisitions.
        self._heartbeat_stop = threading.Event()
        self._heartbeat: threading.Thread | None = None
        if self._leases is not None:
            self._heartbeat = threading.Thread(
                target=self._heartbeat_loop, daemon=True,
                name="lease-heartbeat",
            )
            self._heartbeat.start()

    # -- public properties ---------------------------------------------------

    @property
    def checkpoint_dir(self) -> Path:
        """Root of the durable store (eviction/drain checkpoints)."""
        return Path(self._store.root)

    @property
    def store(self) -> SessionStore:
        """The durable store behind this manager."""
        return self._store

    @property
    def replica_id(self) -> str:
        """This replica's identity in lease records."""
        return self._replica_id

    @property
    def advertised_url(self) -> str | None:
        """The base URL advertised to the catalogue (``None`` before
        :meth:`advertise`)."""
        return self._catalog.url

    def advertise(self, url: str) -> None:
        """Publish this replica's address to the shared catalogue.

        Called once the HTTP server knows its bound address; the
        record is refreshed on a daemon thread at a third of the
        catalogue TTL, so a SIGKILLed replica ages out within one TTL
        while live ones stay listed.
        """
        self._catalog.advertise(url)
        if self._catalog_thread is None:
            self._catalog_thread = threading.Thread(
                target=self._catalog_loop, daemon=True,
                name="replica-catalog",
            )
            self._catalog_thread.start()
        _logger.info("advertised %s in the replica catalogue", url)

    def replica_catalogue(self) -> dict[str, Any]:
        """The live replica catalogue, for ``GET /replicas``."""
        return {
            "replica": self._replica_id,
            "url": self._catalog.url,
            "store": self._store.describe(),
            "replicas": [
                record.describe() for record in self._catalog.live()
            ],
        }

    def _catalog_loop(self) -> None:
        interval = max(self._catalog.ttl / 3.0, 0.05)
        while not self._catalog_stop.wait(interval):
            self._catalog.refresh()

    def _stop_catalog(self, withdraw: bool) -> None:
        self._catalog_stop.set()
        if self._catalog_thread is not None:
            self._catalog_thread.join(timeout=2.0)
            self._catalog_thread = None
        if withdraw:
            self._catalog.withdraw()

    @property
    def draining(self) -> bool:
        """Whether the manager stopped accepting new work."""
        return self._draining

    @property
    def workers(self) -> int:
        """Worker processes for eligible batch pushes (1 = serial)."""
        return self._workers

    @property
    def degraded(self) -> bool:
        """Whether sustained pressure is shedding eligible sessions
        onto the approximate backend."""
        return self._degraded

    def begin_drain(self) -> None:
        """Stop accepting new sessions and pushes (in-flight finish)."""
        self._draining = True

    # -- session lifecycle ---------------------------------------------------

    def create_session(self, document: Any) -> dict[str, Any]:
        """Create a session from a ``POST /sessions`` body."""
        if self._draining:
            raise ShuttingDownError()
        config = parse_session_config(document)
        config = self._apply_cache_defaults(config)
        session_id = uuid.uuid4().hex[:12]
        record = SessionRecord(session_id, config)
        if self._leases is not None:
            lease = self._leases.acquire(session_id)
            if lease is None:
                raise ServiceError(
                    f"could not acquire the lease for new session "
                    f"{session_id}"
                )
            record.lease = lease
        if self._wal:
            record.wal = self._make_wal(session_id)
            self._with_store_retries(
                lambda: record.wal.append_create(
                    session_id, config.to_document(),
                    guard=self._guard_for(record),
                )
            )
        self._adopt(record)
        self._evict_over_limit()
        add_counter("service_sessions_created_total")
        _logger.info("session %s created", session_id)
        return self._info_document(record)

    def _apply_cache_defaults(self, config: SessionConfig) -> SessionConfig:
        """Fold the manager's factor-cache defaults into a new session.

        Applied at creation (so the sidecar persists the *effective*
        setting and resurrection reproduces it), never on restore.
        Sessions that opt in themselves only inherit the byte budget.
        """
        if not config.uses_cad:
            return config
        updates: dict[str, Any] = {}
        if self._factor_cache and not config.factor_cache:
            updates["factor_cache"] = True
        if (self._cache_budget_mb is not None
                and config.cache_budget_mb is None
                and (config.factor_cache or self._factor_cache)):
            updates["cache_budget_mb"] = self._cache_budget_mb
        if updates:
            config = dataclasses.replace(config, **updates)
        return config

    def push(self, session_id: str, body: Any) -> dict[str, Any]:
        """Ingest one snapshot payload (or a batch) into a session."""
        if self._draining:
            raise ShuttingDownError()
        documents = snapshot_documents(body)
        record = self._get(session_id)
        self._check_breaker(record)
        self._acquire_ingest(len(documents))
        started = time.monotonic()
        try:
            with self._session_lock(record), \
                    trace("service.push", batch=len(documents)):
                if record.finalized:
                    raise SessionStateError(
                        f"session {session_id} is finalized and no "
                        "longer accepts snapshots"
                    )
                try:
                    detector = self._require_resident(record)
                    quarantined_before = len(
                        detector.health.quarantined
                    )
                    snapshots = self._parse_batch(record, documents)
                    degraded = self._should_degrade(record, detector)
                    results = self._ingest(record, detector, snapshots,
                                           degraded=degraded)
                    self._wal_append(record, documents, degraded)
                    record.pushes += len(documents)
                    self._note_success(record)
                    self._maybe_compact(record)
                except FencedWriteError as error:
                    raise self._fenced(record, error) from error
                except Exception as error:
                    self._note_failure(record, error)
                    raise
                quarantined_after = len(detector.health.quarantined)
                add_counter("service_snapshots_ingested_total",
                            len(documents))
                response = push_response(
                    session_id, results, detector,
                    quarantined_before, quarantined_after,
                )
                if degraded:
                    response["degraded"] = True
                return response
        finally:
            self._observe_latency(time.monotonic() - started,
                                  len(documents))
            self._release_ingest(len(documents))
            self._touch(record)
            self._evict_over_limit()

    def report(self, session_id: str,
               include_scores: bool = False) -> dict[str, Any]:
        """The session's current finalized-equivalent report."""
        record = self._get(session_id)
        try:
            with record.lock:
                detector = self._require_resident(record)
                if detector.num_transitions == 0:
                    raise SessionStateError(
                        f"session {session_id} has no scored "
                        "transitions yet"
                    )
                report = detector.finalize()
                document = report_to_dict(
                    report, include_scores=include_scores
                )
                document["session"] = session_id
                if record.degraded_pushes:
                    document["degraded_pushes"] = record.degraded_pushes
                return document
        finally:
            self._touch(record)

    def finalize(self, session_id: str,
                 include_scores: bool = False) -> dict[str, Any]:
        """Finalize a session: emit its report and seal it.

        The session stays readable (``GET .../report``) but rejects
        further snapshots.
        """
        document = self.report(session_id, include_scores=include_scores)
        record = self._get(session_id)
        with record.lock:
            record.finalized = True
        document["finalized"] = True
        add_counter("service_sessions_finalized_total")
        return document

    def delete(self, session_id: str) -> None:
        """Drop a session, its stored state, and its lease."""
        with self._table_lock:
            record = self._sessions.pop(session_id, None)
            self._update_gauges()
        if record is None:
            raise NotFoundError(f"no session {session_id!r}")
        with record.lock:
            record.detector = None
            npz_key, sidecar_key = self._session_keys(session_id)
            self._store.delete(npz_key)
            self._store.delete(sidecar_key)
            self._make_wal(session_id).delete()
            if self._leases is not None:
                self._leases.forget(session_id)
                record.lease = None
        add_counter("service_sessions_deleted_total")
        _logger.info("session %s deleted", session_id)

    def session_info(self, session_id: str) -> dict[str, Any]:
        """One session's summary document."""
        return self._info_document(self._get(session_id))

    def list_sessions(self) -> dict[str, Any]:
        """Summaries of every known session."""
        with self._table_lock:
            records = list(self._sessions.values())
        return {
            "sessions": [self._info_document(r) for r in records],
            "resident": sum(r.resident for r in records),
            "draining": self._draining,
            "degraded": self._degraded,
            "replica": self._replica_id,
            "store": self._store.describe(),
        }

    # -- drain & eviction ----------------------------------------------------

    def drain(self) -> int:
        """Checkpoint every resident session to the store; return how
        many. Held leases are released afterwards so another replica
        adopts the sessions without waiting out the TTL.

        Called after the HTTP server stopped accepting connections and
        joined its in-flight handlers, so session locks are only held
        against stragglers — we still take them for safety.
        """
        self._draining = True
        self._stop_heartbeat()
        self._stop_catalog(withdraw=True)
        with self._table_lock:
            records = list(self._sessions.values())
        drained = 0
        with trace("service.drain", sessions=len(records)):
            for record in records:
                with record.lock:
                    if record.detector is None:
                        self._release_lease(record)
                        continue
                    try:
                        if self._checkpoint_record(record):
                            drained += 1
                    except FencedWriteError as error:
                        _logger.warning(
                            "session %s fenced during drain: %s",
                            record.session_id, error,
                        )
                        add_counter("service_fenced_writes_total")
                    record.detector = None
                    self._release_lease(record)
        _logger.info("drained %d session(s) to %s", drained,
                     self._store.describe())
        return drained

    def abandon(self) -> None:
        """Chaos/test hook: die without cleanup.

        Stops lease heartbeats and forgets all in-memory state without
        checkpointing or releasing anything — exactly what a SIGKILLed
        replica leaves behind: unreleased leases (adoptable after the
        TTL) and a WAL holding every acknowledged push.
        """
        self._stop_heartbeat()
        # The catalogue record is deliberately *not* withdrawn: a
        # SIGKILLed replica leaves its advertisement to age out.
        self._stop_catalog(withdraw=False)
        self._draining = True
        with self._table_lock:
            self._sessions.clear()
            self._update_gauges()

    def _evict_over_limit(self) -> None:
        """Evict LRU idle sessions until the resident count fits."""
        while True:
            victim = None
            with self._table_lock:
                resident = [
                    r for r in self._sessions.values() if r.resident
                ]
                if len(resident) <= self._max_sessions:
                    return
                for record in sorted(resident,
                                     key=lambda r: r.last_active):
                    # Skip sessions mid-push; a busy session is by
                    # definition not idle. locked() probes would race,
                    # acquire(blocking=False) is the atomic probe.
                    if record.lock.acquire(blocking=False):
                        victim = record
                        break
                if victim is None:
                    # Everything over the limit is busy right now;
                    # the next push's epilogue will retry.
                    return
            try:
                self._evict_locked(victim)
            finally:
                victim.lock.release()

    def _evict_locked(self, record: SessionRecord) -> None:
        """Checkpoint + drop one session's detector (lock held)."""
        if record.detector is None:
            return
        with trace("service.evict", session=record.session_id):
            try:
                self._checkpoint_record(record)
            except FencedWriteError as error:
                # Ownership moved mid-eviction; the new owner has the
                # authoritative state — just drop ours.
                _logger.warning("session %s fenced during eviction: %s",
                                record.session_id, error)
                add_counter("service_fenced_writes_total")
            record.detector = None
            # An evicted session needs no protection from us; release
            # the lease so any replica (us included) can pick it up.
            self._release_lease(record)
        add_counter("service_evictions_total")
        with self._table_lock:
            self._update_gauges()
        _logger.info("session %s evicted to the store",
                     record.session_id)

    def _checkpoint_record(self, record: SessionRecord) -> bool:
        """Write npz + sidecar for one session (lock held)."""
        npz_key, sidecar_key = self._session_keys(record.session_id)
        detector = record.detector
        empty = detector is None or detector.latest_snapshot is None
        token = self._token_for(record)
        if not empty:
            with tempfile.TemporaryDirectory(
                    prefix="repro-ckpt-") as temp:
                local = Path(temp) / "checkpoint.npz"
                detector.checkpoint(local)
                data = local.read_bytes()
            self._with_store_retries(
                lambda: self._store.put(npz_key, data,
                                        guard=self._guard_for(record),
                                        token=token)
            )
        sidecar_document = {
            "format": SIDECAR_FORMAT,
            "version": SIDECAR_VERSION,
            "session": record.session_id,
            "config": record.config.to_document(),
            "finalized": record.finalized,
            "pushes": record.pushes,
            "empty": empty,
            "replica": self._replica_id,
        }
        if token is not None:
            sidecar_document["token"] = int(token)
        sidecar_bytes = json.dumps(sidecar_document, indent=1).encode()
        self._with_store_retries(
            lambda: self._store.put(sidecar_key, sidecar_bytes,
                                    guard=self._guard_for(record),
                                    token=token)
        )
        record.has_checkpoint = True
        if record.wal is not None:
            # The checkpoint now holds everything through this push
            # count; shrink the WAL to its watermark.
            self._with_store_retries(
                lambda: record.wal.compact(
                    record.session_id, record.config.to_document(),
                    record.pushes, token=token,
                    guard=self._guard_for(record),
                )
            )
            record.wal_pending = 0
        return not empty

    def _resurrect(self, record: SessionRecord) -> DetectionStream:
        """Rebuild an evicted session's detector from the store
        (lock held)."""
        self._ensure_owner(record)
        self._refresh_from_sidecar(record)
        npz_key, _ = self._session_keys(record.session_id)
        with trace("service.resurrect", session=record.session_id):
            if self._store.exists(npz_key):
                with self._store.local_copy(npz_key,
                                            suffix=".npz") as local:
                    detector = build_stream(record.config, local)
            else:  # evicted before its first snapshot
                detector = build_stream(record.config)
        record.detector = detector
        if record.universe is None and \
                detector.latest_snapshot is not None:
            record.universe = detector.latest_snapshot.universe
        self._replay_wal(record, detector)
        add_counter("service_resurrections_total")
        with self._table_lock:
            self._update_gauges()
        _logger.info("session %s resurrected from %s",
                     record.session_id, self._store.describe())
        return detector

    def _refresh_from_sidecar(self, record: SessionRecord) -> None:
        """Sync a non-resident record with its stored sidecar.

        Under leases another replica may have advanced the session
        since we last saw it; the sidecar's push counter and finalized
        flag are authoritative for WAL replay. Single-writer mode
        skips this (the in-memory record is already exact), as does a
        session recovering from a quarantined checkpoint, whose reset
        push counter deliberately disagrees with the sidecar so the
        WAL replays the full history.
        """
        if self._leases is None or not record.has_checkpoint:
            return
        _, sidecar_key = self._session_keys(record.session_id)
        try:
            document = json.loads(self._store.get(sidecar_key))
        except (StoreError, ValueError):
            return
        if not isinstance(document, dict) or \
                document.get("format") != SIDECAR_FORMAT:
            return
        record.pushes = int(document.get("pushes", record.pushes))
        record.finalized = bool(
            document.get("finalized", record.finalized)
        )
        record.has_checkpoint = True

    # -- startup adoption ----------------------------------------------------

    def _load_existing(self) -> None:
        """Adopt sessions a previous (or sibling) process left in the
        store.

        Corrupt artifacts (truncated npz, unparseable sidecar, torn
        WAL header) are moved under the store's ``quarantine/`` prefix
        with a logged reason instead of crashing startup; a WAL that
        still holds a session's full history can stand in for its
        damaged checkpoint. Under leases, sessions owned by a live
        replica are skipped here and adopted on demand once their
        lease lapses.
        """
        candidates: set[str] = set()
        try:
            keys = self._store.list()
        except StoreError as error:
            _logger.error("cannot list the session store: %s", error)
            return
        for key in keys:
            if "/" in key:
                continue  # leases/, quarantine/, foreign prefixes
            stem, _, suffix = key.rpartition(".")
            if suffix in ("json", "wal") and stem:
                candidates.add(stem)
        for session_id in sorted(candidates):
            with self._table_lock:
                if session_id in self._sessions:
                    continue
            lease = None
            if self._leases is not None:
                lease = self._acquire_with_adoption(session_id,
                                                    startup=True)
                if lease is None:
                    _logger.info(
                        "session %s is leased to another replica; "
                        "deferring adoption", session_id,
                    )
                    continue
            record = self._record_from_store(session_id)
            if record is None:
                if lease is not None:
                    self._leases.release(lease)
                continue
            record.lease = lease
            self._adopt(record)
            _logger.info("adopted stored session %s", session_id)

    def _record_from_store(self,
                           session_id: str) -> SessionRecord | None:
        """Build a lazy (non-resident) record from stored artifacts,
        quarantining anything unusable. ``None`` when the session has
        no adoptable state."""
        npz_key, sidecar_key = self._session_keys(session_id)
        wal_key = self._wal_key(session_id)
        if self._store.exists(sidecar_key):
            record = self._record_from_sidecar(
                session_id, npz_key, sidecar_key, wal_key
            )
            if record is not None:
                return record
            # fall through: the WAL may still rescue the session
        if self._wal and self._store.exists(wal_key):
            return self._record_from_orphan_wal(session_id, wal_key)
        return None

    def _record_from_sidecar(self, session_id: str, npz_key: str,
                             sidecar_key: str,
                             wal_key: str) -> SessionRecord | None:
        try:
            document = json.loads(self._store.get(sidecar_key))
            if not isinstance(document, dict):
                raise ValueError("sidecar is not a JSON object")
        except (StoreError, ValueError) as error:
            self._quarantine(f"unreadable sidecar: {error}",
                             sidecar_key, npz_key)
            return None
        if document.get("format") != SIDECAR_FORMAT:
            return None  # foreign file; leave it alone
        try:
            config = parse_session_config(document.get("config"))
        except Exception as error:
            self._quarantine(f"bad config in sidecar: {error}",
                             sidecar_key, npz_key)
            return None
        pushes = int(document.get("pushes", 0))
        has_checkpoint = True
        if self._store.exists(npz_key) and \
                not self._validate_session_npz(npz_key):
            if self._wal_covers_history(session_id):
                # The WAL still holds every push; rebuild from a
                # fresh detector by replaying it all.
                self._quarantine("corrupt checkpoint npz "
                                 "(WAL replays full history)", npz_key)
                pushes = 0
                has_checkpoint = False
            else:
                self._quarantine(
                    "corrupt checkpoint npz and no WAL with full "
                    "history to rebuild it", npz_key, sidecar_key,
                    wal_key,
                )
                return None
        record = SessionRecord(session_id, config)
        record.detector = None  # resurrect lazily on first touch
        record.finalized = bool(document.get("finalized", False))
        record.pushes = pushes
        record.has_checkpoint = has_checkpoint
        if self._wal:
            record.wal = self._make_wal(session_id)
            if record.wal.exists():
                record.wal_pending = len(record.wal.read().entries)
        return record

    def _record_from_orphan_wal(self, session_id: str,
                                wal_key: str) -> SessionRecord | None:
        """Adopt a session whose only surviving artifact is its WAL
        (killed before the first checkpoint was ever written)."""
        wal = self._make_wal(session_id)
        contents = wal.read()
        if not contents.valid:
            self._quarantine("WAL has no valid header", wal_key)
            return None
        if contents.compacted_through > 0:
            self._quarantine(
                "WAL watermark references a checkpoint that is "
                "missing", wal_key,
            )
            return None
        try:
            config = parse_session_config(contents.config)
        except Exception as error:
            self._quarantine(f"bad config in WAL: {error}", wal_key)
            return None
        record = SessionRecord(contents.session_id or session_id,
                               config)
        record.detector = None
        record.has_checkpoint = False
        record.wal = wal
        record.wal_pending = len(contents.entries)
        _logger.info("adopted session %s from orphan WAL",
                     record.session_id)
        return record

    def _adopt(self, record: SessionRecord) -> None:
        with self._table_lock:
            record.last_active = self._tick()
            self._sessions[record.session_id] = record
            self._update_gauges()

    def _wal_covers_history(self, session_id: str) -> bool:
        """Whether a WAL exists and holds the session's full history
        (never compacted), so replay alone can rebuild the detector."""
        if not self._wal:
            return False
        wal = self._make_wal(session_id)
        if not wal.exists():
            return False
        contents = wal.read()
        return contents.valid and contents.compacted_through == 0

    def _validate_session_npz(self, npz_key: str) -> bool:
        """Whether an npz checkpoint is structurally loadable."""
        try:
            data = self._store.get(npz_key)
            with np.load(io.BytesIO(data),
                         allow_pickle=False) as archive:
                if "meta_json" not in archive:
                    return False
                meta = json.loads(str(archive["meta_json"]))
            return meta.get("format") == CHECKPOINT_FORMAT
        except Exception:
            return False

    def _quarantine(self, reason: str, *keys: str) -> None:
        """Move corrupt artifacts aside instead of crashing startup."""
        for key in keys:
            if not self._store.exists(key):
                continue
            try:
                self._store.move(key, f"quarantine/{key}")
            except StoreError as error:
                _logger.error("could not quarantine %s: %s",
                              key, error)
                continue
            add_counter("service_quarantined_files_total")
            _logger.warning("quarantined %s: %s", key, reason)

    # -- ownership -----------------------------------------------------------

    def _acquire_with_adoption(self, session_id: str,
                               startup: bool = False) -> Lease | None:
        """Acquire a session's lease, counting cross-replica
        failover adoptions."""
        assert self._leases is not None
        previous = self._leases.peek(session_id)
        lease = self._leases.acquire(session_id)
        if lease is not None and previous is not None and \
                previous.owner != self._replica_id:
            add_counter("service_failover_adoptions_total")
            _logger.warning(
                "adopted session %s from replica %s (%s, token %d)",
                session_id, previous.owner,
                "startup" if startup else "failover", lease.token,
            )
        return lease

    def _ensure_owner(self, record: SessionRecord) -> None:
        """Hold (or take) the session's lease before touching state."""
        if self._leases is None or record.lease is not None:
            return
        lease = self._acquire_with_adoption(record.session_id)
        if lease is None:
            raise self._not_owner(record.session_id)
        record.lease = lease

    def _not_owner(self, session_id: str) -> NotOwnerError:
        holder = None
        if self._leases is not None:
            holder = self._leases.peek(session_id)
        if holder is not None:
            return NotOwnerError(
                f"session {session_id} is leased to {holder.owner} "
                f"(token {holder.token})",
                retry_after=bounded_retry_after(
                    max(holder.remaining(), 0.5)
                ),
                owner=holder.owner,
                owner_url=self._owner_url(holder.owner),
            )
        return NotOwnerError(
            f"session {session_id} could not be leased (contention)",
            retry_after=bounded_retry_after(0.5),
        )

    def _owner_url(self, owner: str) -> str | None:
        """The owning replica's advertised address, if catalogued."""
        if owner == self._replica_id:
            return None
        record = self._catalog.lookup(owner)
        return None if record is None else record.url

    def _fenced(self, record: SessionRecord,
                error: FencedWriteError) -> NotOwnerError:
        """Ownership moved mid-request: drop our stale state and
        translate the rejection for the client."""
        add_counter("service_fenced_writes_total")
        _logger.warning("session %s: write fenced (%s); dropping "
                        "local state", record.session_id, error)
        record.lease = None
        record.detector = None
        with self._table_lock:
            self._sessions.pop(record.session_id, None)
            self._update_gauges()
        holder = None
        if self._leases is not None:
            holder = self._leases.peek(record.session_id)
        return NotOwnerError(
            f"session {record.session_id} moved to another replica: "
            f"{error}",
            retry_after=bounded_retry_after(1.0),
            owner=None if holder is None else holder.owner,
            owner_url=None if holder is None
            else self._owner_url(holder.owner),
        )

    def _guard_for(self, record: SessionRecord):
        """The fencing guard stamped onto every store write."""
        if self._leases is None:
            return None
        lease = record.lease
        if lease is None:
            session_id = record.session_id

            def rejected() -> None:
                raise FencedWriteError(
                    f"replica {self._replica_id} holds no lease on "
                    f"session {session_id}"
                )

            return rejected
        return self._leases.guard(record.session_id, lease.token)

    def _token_for(self, record: SessionRecord) -> int | None:
        return None if record.lease is None else record.lease.token

    def _release_lease(self, record: SessionRecord) -> None:
        if self._leases is None or record.lease is None:
            return
        self._leases.release(record.lease)
        record.lease = None

    def _lost_lease(self, record: SessionRecord) -> None:
        """Heartbeat found our lease gone: another replica owns the
        session now. Drop it from the table; an in-flight push (if
        any) is fenced at its next store write."""
        add_counter("service_lease_expiries_total")
        _logger.warning(
            "lost the lease on session %s; dropping local state",
            record.session_id,
        )
        record.lease = None
        with self._table_lock:
            self._sessions.pop(record.session_id, None)
            self._update_gauges()

    def _heartbeat_loop(self) -> None:
        assert self._leases is not None
        interval = max(self._leases.ttl / 3.0, 0.05)
        while not self._heartbeat_stop.wait(interval):
            self._renew_leases()

    def _renew_leases(self) -> None:
        with self._table_lock:
            records = list(self._sessions.values())
        for record in records:
            lease = record.lease
            if lease is None:
                continue
            try:
                renewed = self._leases.renew(lease)
            except StoreError:
                # Partitioned from the store: keep local state; write
                # guards fence us if ownership moves meanwhile.
                continue
            if renewed is None:
                self._lost_lease(record)
            else:
                record.lease = renewed

    def _stop_heartbeat(self) -> None:
        self._heartbeat_stop.set()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout=2.0)
            self._heartbeat = None

    # -- ingest internals ----------------------------------------------------

    def _parse_batch(self, record: SessionRecord,
                     documents: list[dict[str, Any]]) -> list[Any]:
        """Payloads -> snapshots (or raw triples under a sanitize
        policy, which tolerates dirty matrices)."""
        universe = record.universe
        if universe is None and record.detector is not None and \
                record.detector.latest_snapshot is not None:
            universe = record.detector.latest_snapshot.universe
        parsed = []
        for document in documents:
            if record.config.sanitize is not None:
                matrix, resolved, time = raw_snapshot_from_payload(
                    document, universe
                )
                parsed.append((matrix, resolved, time))
            else:
                snapshot = snapshot_from_payload(document, universe)
                parsed.append(snapshot)
                resolved = snapshot.universe
            universe = resolved
        record.universe = universe
        return parsed

    def _ingest(self, record: SessionRecord,
                detector: DetectionStream,
                parsed: list[Any],
                degraded: bool = False) -> list[Any]:
        """Feed parsed snapshots into the stream, parallel when safe.

        Under ``degraded`` the batch is shed onto the approximate
        commute-time backend via a transient calculator override, and
        scored serially (the override is process-local, so it would
        not reach parallel workers).
        """
        if degraded:
            calculator = detector.detector.calculator
            calculator.method_override = "approx"
            try:
                results = self._ingest_serial(record, detector, parsed)
            finally:
                calculator.method_override = None
            record.degraded_pushes += len(parsed)
            add_counter("service_degraded_pushes_total", len(parsed))
            return results
        if record.config.sanitize is None:
            batch: list[GraphSnapshot] = list(parsed)
            if self._parallel_eligible(detector, batch):
                return self._ingest_parallel(detector, batch)
        return self._ingest_serial(record, detector, parsed)

    def _ingest_serial(self, record: SessionRecord,
                       detector: DetectionStream,
                       parsed: list[Any]) -> list[Any]:
        if record.config.sanitize is not None:
            return [
                detector.push_raw(matrix, time=time, universe=resolved)
                for matrix, resolved, time in parsed
            ]
        return [detector.push(snapshot) for snapshot in parsed]

    def _should_degrade(self, record: SessionRecord,
                        detector: DetectionStream) -> bool:
        """Whether this push sheds to the approximate backend.

        Only sessions that left method selection to the service
        (``method == "auto"``) may be shed — an explicit method choice
        is a correctness contract. Incremental streams require the
        exact backend on every push.
        """
        return (self._degraded
                and record.config.method == "auto"
                and not detector.incremental)

    def _replay_wal(self, record: SessionRecord,
                    detector: DetectionStream) -> None:
        """Re-ingest WAL entries newer than the checkpointed state
        (called during resurrection, session lock held)."""
        wal = record.wal
        if wal is None or not wal.exists():
            return
        contents = wal.read()
        replayed = 0
        with trace("service.wal_replay", session=record.session_id):
            for seq, payload, degraded in contents.entries:
                if seq <= record.pushes:
                    continue
                parsed = self._parse_batch(record, [payload])
                self._ingest(record, detector, parsed,
                             degraded=degraded)
                record.pushes = seq
                replayed += 1
        if replayed:
            add_counter("service_wal_replays_total")
            add_counter("service_wal_replayed_snapshots_total",
                        replayed)
            _logger.info(
                "session %s: replayed %d snapshot(s) from WAL",
                record.session_id, replayed,
            )

    def _wal_append(self, record: SessionRecord,
                    documents: list[dict[str, Any]],
                    degraded: bool) -> None:
        """Log the accepted batch (after ingest, before the push
        counter advances, so seq numbers align with it)."""
        wal = record.wal
        if wal is None:
            return
        if not wal.exists():
            # Sessions adopted from a sidecar written by a pre-WAL
            # process get their log lazily on the first push.
            self._with_store_retries(
                lambda: wal.append_create(
                    record.session_id, record.config.to_document(),
                    guard=self._guard_for(record),
                )
            )
        self._with_store_retries(
            lambda: wal.append_snapshots(
                documents, start_seq=record.pushes, degraded=degraded,
                token=self._token_for(record),
                guard=self._guard_for(record),
            )
        )
        record.wal_pending += len(documents)

    def _maybe_compact(self, record: SessionRecord) -> None:
        """Fold the WAL into an npz checkpoint once it grows enough."""
        if record.wal is None or \
                record.wal_pending < self._wal_compact_every:
            return
        with trace("service.wal_compact", session=record.session_id):
            self._checkpoint_record(record)

    def _with_store_retries(self, operation):
        """Run a store write, absorbing transient unavailability.

        WAL appends are safe to retry: entries are keyed by sequence
        number and replay deduplicates, so an append that half-landed
        before a partition surfaces as at most one duplicate line.
        """
        for attempt in range(STORE_WRITE_ATTEMPTS):
            try:
                return operation()
            except StoreUnavailableError:
                if attempt == STORE_WRITE_ATTEMPTS - 1:
                    raise
                add_counter("store_write_retries_total")
                time.sleep(STORE_RETRY_BACKOFF * (2 ** attempt))

    def _parallel_eligible(self, detector: DetectionStream,
                           batch: list[GraphSnapshot]) -> bool:
        """Whether the parallel engine reproduces serial pushes exactly.

        Only CAD streams parallelize (the engine shards commute-time
        scoring); transition sharding is bit-for-bit, but only when
        randomness cannot diverge: the exact backend uses none, and the
        approx backend matches only under content-keyed seeding.
        Incremental streams stay serial: their rank-one-updated solves
        match cold ones only to ~1e-10, not bit-for-bit.
        """
        if not isinstance(detector, StreamingCadDetector):
            return False
        if self._workers <= 1 or len(batch) < 2:
            return False
        if detector.incremental or detector.latest_snapshot is None:
            return False
        calculator = detector.detector.calculator
        method = calculator.resolve_method(batch[0].num_nodes)
        return method == "exact" or calculator.seed_mode == "content"

    def _ingest_parallel(self, detector: StreamingCadDetector,
                         batch: list[GraphSnapshot]) -> list[Any]:
        graph = DynamicGraph([detector.latest_snapshot, *batch])
        engine = ParallelCadDetector.from_detector(
            detector.detector, workers=self._workers,
            shard_by="transition",
        )
        with trace("service.parallel_batch", transitions=len(batch),
                   workers=self._workers):
            scored = engine.score_sequence(graph)
        return [
            detector.ingest_scored(snapshot, scores)
            for snapshot, scores in zip(batch, scored)
        ]

    def _acquire_ingest(self, count: int) -> None:
        """Claim ``count`` slots of the global ingest budget or 429."""
        if count > self._max_queue:
            raise CapacityError(
                f"batch of {count} snapshots exceeds the ingest budget "
                f"of {self._max_queue}; split the batch",
                retry_after=bounded_retry_after(1.0),
            )
        with self._table_lock:
            if self._in_flight + count > self._max_queue:
                add_counter("service_rejections_total",
                            reason="over_capacity")
                self._note_pressure_locked(1.0)
                raise CapacityError(
                    f"ingest budget exhausted ({self._in_flight} of "
                    f"{self._max_queue} snapshots in flight)",
                    retry_after=bounded_retry_after(
                        self._retry_after_locked()
                    ),
                )
            self._in_flight += count
            set_gauge("service_ingest_in_flight", self._in_flight)
            self._note_pressure_locked(
                self._in_flight / self._max_queue
            )

    def _release_ingest(self, count: int) -> None:
        with self._table_lock:
            self._in_flight = max(self._in_flight - count, 0)
            set_gauge("service_ingest_in_flight", self._in_flight)

    def _retry_after_locked(self) -> float:
        """Backpressure-derived ``Retry-After`` estimate (lock held):
        queue depth times the recent mean per-snapshot latency.
        Jitter and the hard [floor, cap] clamp are applied by
        :func:`~repro.service.errors.bounded_retry_after` at the
        raise site."""
        if self._latencies:
            mean = sum(self._latencies) / len(self._latencies)
        else:
            mean = 1.0
        return max(self._in_flight, 1) * mean

    def _observe_latency(self, elapsed: float, count: int) -> None:
        """Record a push's per-snapshot latency for the estimator."""
        with self._table_lock:
            self._latencies.append(
                max(elapsed, 0.0) / max(count, 1)
            )

    def _note_pressure_locked(self, utilization: float) -> None:
        """Track sustained budget pressure; flip degraded mode after
        ``degrade_after`` consecutive observations (lock held)."""
        if utilization >= self._degrade_pressure:
            self._pressure_high += 1
            self._pressure_low = 0
            if not self._degraded and \
                    self._pressure_high >= self._degrade_after:
                self._degraded = True
                set_gauge("service_degraded", 1)
                add_counter("service_degraded_entries_total")
                _logger.warning(
                    "sustained ingest pressure (utilization %.2f); "
                    "entering degraded mode", utilization,
                )
        elif utilization <= DEGRADE_RECOVER_UTILIZATION:
            self._pressure_low += 1
            self._pressure_high = 0
            if self._degraded and \
                    self._pressure_low >= self._degrade_after:
                self._degraded = False
                set_gauge("service_degraded", 0)
                _logger.info(
                    "ingest pressure relieved; leaving degraded mode"
                )
        else:
            self._pressure_high = 0
            self._pressure_low = 0

    # -- failure isolation ---------------------------------------------------

    @contextmanager
    def _session_lock(self, record: SessionRecord):
        """Acquire a session's lock, honoring the request deadline."""
        if self._request_deadline is None:
            acquired = record.lock.acquire()
        else:
            acquired = record.lock.acquire(
                timeout=self._request_deadline
            )
        if not acquired:
            add_counter("service_deadline_timeouts_total")
            raise DeadlineError(
                f"session {record.session_id} did not become "
                f"available within {self._request_deadline:g}s",
                retry_after=max(self._request_deadline, 1.0),
            )
        try:
            yield
        finally:
            record.lock.release()

    def _check_breaker(self, record: SessionRecord) -> None:
        """Reject the push while the session's breaker is open."""
        remaining = record.breaker_until - time.monotonic()
        if remaining > 0:
            raise CircuitOpenError(
                f"session {record.session_id} circuit breaker is "
                f"open ({record.breaker_reason})",
                retry_after=bounded_retry_after(max(remaining, 0.1)),
            )

    def _note_success(self, record: SessionRecord) -> None:
        """A successful push closes the breaker fully."""
        record.breaker_failures = 0
        record.breaker_until = 0.0

    def _note_failure(self, record: SessionRecord,
                      error: BaseException) -> None:
        if not self._counts_as_failure(error):
            return
        # A failure while the breaker was half-open (cooldown elapsed,
        # this push was the probe) re-trips immediately.
        failed_probe = 0.0 < record.breaker_until <= time.monotonic()
        record.breaker_failures += 1
        if failed_probe or \
                record.breaker_failures >= self._breaker_threshold:
            self._trip_breaker(record, error)

    @staticmethod
    def _counts_as_failure(error: BaseException) -> bool:
        """Only server-side faults count toward the breaker: client
        errors (4xx), flow-control rejections, and infrastructure
        transients (partitions, ownership moves) must not trip it."""
        if isinstance(error, (ShuttingDownError, CircuitOpenError,
                              DeadlineError, CapacityError,
                              NotOwnerError)):
            return False
        if isinstance(error, (FencedWriteError,
                              StoreUnavailableError)):
            return False  # infrastructure, not the session's fault
        if isinstance(error, ServiceError):
            return error.status >= 500
        if isinstance(error, (GraphConstructionError,
                              SanitizationError, DetectionError)):
            return False  # rendered as 400: the payload's fault
        return True

    def _trip_breaker(self, record: SessionRecord,
                      error: BaseException) -> None:
        cooldown = self._breaker_cooldown * \
            2 ** min(record.breaker_trips, 5)
        record.breaker_until = time.monotonic() + cooldown
        record.breaker_trips += 1
        record.breaker_reason = f"{type(error).__name__}: {error}"
        record.breaker_failures = 0
        add_counter("service_breaker_trips_total")
        _logger.warning(
            "session %s breaker tripped for %.1fs: %s",
            record.session_id, cooldown, record.breaker_reason,
        )

    # -- small helpers -------------------------------------------------------

    def _get(self, session_id: str) -> SessionRecord:
        with self._table_lock:
            record = self._sessions.get(session_id)
        if record is None:
            record = self._discover(session_id)
        if record is None:
            raise NotFoundError(f"no session {session_id!r}")
        return record

    def _discover(self, session_id: str) -> SessionRecord | None:
        """Adopt a session another replica left in the store.

        Raises:
            NotOwnerError: the session exists but its lease is held by
                a live replica; the client should retry (here or
                there) after the remaining TTL.
        """
        if not session_id or "/" in session_id:
            return None
        _, sidecar_key = self._session_keys(session_id)
        wal_key = self._wal_key(session_id)
        try:
            present = self._store.exists(sidecar_key) or \
                self._store.exists(wal_key)
        except StoreError:
            return None
        if not present:
            return None
        lease = None
        if self._leases is not None:
            lease = self._acquire_with_adoption(session_id)
            if lease is None:
                raise self._not_owner(session_id)
        record = self._record_from_store(session_id)
        if record is None:
            if lease is not None:
                self._leases.release(lease)
            return None
        record.lease = lease
        # Another request may have discovered it concurrently; the
        # first registration wins.
        with self._table_lock:
            existing = self._sessions.get(session_id)
            if existing is not None:
                return existing
            record.last_active = self._tick()
            self._sessions[session_id] = record
            self._update_gauges()
        _logger.info("discovered session %s in %s", session_id,
                     self._store.describe())
        return record

    def _require_resident(self, record: SessionRecord,
                          ) -> DetectionStream:
        """The session's live detector, resurrecting it if evicted."""
        if record.detector is not None:
            self._ensure_owner(record)
            return record.detector
        resumable = record.has_checkpoint or (
            record.wal is not None and record.wal.exists()
        )
        if not resumable:
            raise CheckpointError(
                f"session {record.session_id} lost its detector "
                "without a checkpoint or WAL"
            )
        self._resurrect(record)
        return record.detector

    def _touch(self, record: SessionRecord) -> None:
        with self._table_lock:
            record.last_active = self._tick()

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _session_keys(self, session_id: str) -> tuple[str, str]:
        return f"{session_id}.npz", f"{session_id}.json"

    def _wal_key(self, session_id: str) -> str:
        return f"{session_id}.wal"

    def _make_wal(self, session_id: str) -> SessionWal:
        return SessionWal(store=self._store,
                          key=self._wal_key(session_id))

    def _update_gauges(self) -> None:
        """Refresh session gauges (table lock held)."""
        resident = sum(
            r.resident for r in self._sessions.values()
        )
        set_gauge("service_sessions_resident", resident)
        set_gauge("service_sessions_total", len(self._sessions))

    def _info_document(self, record: SessionRecord) -> dict[str, Any]:
        detector = record.detector
        document = {
            "session": record.session_id,
            "config": record.config.to_document(),
            "resident": record.resident,
            "finalized": record.finalized,
            "pushes": record.pushes,
            "num_transitions": (
                detector.num_transitions if detector is not None else None
            ),
            "current_delta": (
                detector.current_delta if detector is not None else None
            ),
            "has_checkpoint": record.has_checkpoint,
            "wal": record.wal is not None,
            "degraded_pushes": record.degraded_pushes,
            "breaker": {
                "open": record.breaker_until > time.monotonic(),
                "trips": record.breaker_trips,
                "reason": record.breaker_reason or None,
            },
        }
        if self._leases is not None:
            lease = record.lease
            document["lease"] = {
                "owner": self._replica_id if lease is not None else None,
                "token": lease.token if lease is not None else None,
                "expires_in": (
                    round(lease.remaining(), 3)
                    if lease is not None else None
                ),
            }
        return document
