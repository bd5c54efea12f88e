"""Session lifecycle for the detection service.

A :class:`SessionManager` owns many concurrent
:class:`~repro.core.streaming.StreamingCadDetector` streams and their
durable state: it creates, pushes to, reports, finalizes, deletes,
evicts, resurrects, drains, adopts and quarantines sessions.

* **per-session locking** — pushes to one session serialise, pushes to
  distinct sessions run concurrently under the threading HTTP server;
* **LRU eviction** — at most ``max_sessions`` detectors stay resident;
  the least-recently-used idle session is checkpointed to the store
  (one npz whose header also carries the session's config and push
  watermark) and transparently resurrected on its next request;
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
* **quarantine** — corrupt checkpoints/WALs found at adoption are
  moved under the store's ``quarantine/`` prefix with a logged reason
  instead of crashing it.

The other decisions sit behind one small component each:
:mod:`~repro.service.ownership` (who may write a session: leases,
fencing, heartbeat, replica catalogue), :mod:`~repro.service.admission`
(the ingest budget, ``Retry-After`` and degraded mode) and
:mod:`~repro.service.breaker` (per-session circuit breakers).

Batch pushes can be routed through the parallel engine
(:class:`~repro.parallel.ParallelCadDetector`, ``workers > 1``) when
the configuration guarantees bit-for-bit parity with serial scoring;
anything else falls back to serial pushes.
"""

from __future__ import annotations

import dataclasses
import tempfile
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from ..core.streaming import DetectionStream, StreamingCadDetector
from ..detectors.streaming import StreamingDetector
from ..exceptions import CheckpointError
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
from ..store import (
    FencedWriteError,
    Lease,
    LocalDirStore,
    SessionStore,
    StoreError,
    StoreUnavailableError,
    resolve_store,
)
from .admission import Admission
from .breaker import Breaker
from .errors import (
    DeadlineError,
    NotFoundError,
    NotOwnerError,
    ServiceError,
    SessionStateError,
    ShuttingDownError,
)
from .ownership import default_replica_id, ownership_for
from .protocol import (
    SessionConfig,
    parse_session_config,
    push_response,
    snapshot_documents,
)
from .wal import (
    SessionHeader,
    SessionWal,
    WalContents,
    encode_checkpoint,
    load_checkpoint,
    read_session_header,
    session_id_of,
    session_keys,
)

_logger = get_logger("service.sessions")


def build_stream(config: SessionConfig,
                 checkpoint: dict[str, Any] | str | Path | None = None,
                 ) -> DetectionStream:
    """Construct the stream a session's config asks for, or restore it
    from a ``checkpoint`` (state dict or npz path).

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
        "wal", "wal_pending", "breaker", "degraded_pushes", "lease",
    )

    def __init__(self, session_id: str, config: SessionConfig,
                 breaker: Breaker):
        self.session_id = session_id
        self.config = config
        self.lock = threading.Lock()
        #: The live stream (None while evicted to the store).
        self.detector: DetectionStream | None = None
        self.universe: NodeUniverse | None = None
        self.last_active = 0
        self.finalized = False
        self.pushes = 0
        self.has_checkpoint = False
        #: Write-ahead log (None when WAL is disabled).
        self.wal: SessionWal | None = None
        #: Snapshot entries appended since the last WAL compaction.
        self.wal_pending = 0
        self.breaker = breaker
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

    Out-of-range options raise ``ValueError`` before any directory,
    thread or socket exists; :func:`~repro.service.make_server` and
    ``cad-detect serve`` forward them unchanged.

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
        store: durable backend for checkpoints, WALs, and lease
            records — a :class:`~repro.store.SessionStore` or a
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
        for name, value in (("max_sessions", max_sessions),
                            ("workers", workers),
                            ("breaker_threshold", breaker_threshold),
                            ("cache_budget_mb", cache_budget_mb)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name, value in (("request_deadline", request_deadline),
                            ("lease_ttl", lease_ttl),
                            ("catalog_ttl", catalog_ttl)):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if store is not None and checkpoint_dir is not None:
            raise ValueError(
                "store and checkpoint_dir are mutually exclusive"
            )
        self._admission = Admission(max_queue, degrade_pressure,
                                    degrade_after)
        self._max_sessions = int(max_sessions)
        self._workers = int(workers)
        self._wal = bool(wal)
        self._wal_compact_every = max(int(wal_compact_every), 1)
        self._request_deadline = request_deadline
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_cooldown = float(breaker_cooldown)
        self._factor_cache = bool(factor_cache)
        self._cache_budget_mb = cache_budget_mb
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
        self._ownership = ownership_for(self._store, self._replica_id,
                                        lease_ttl, catalog_ttl)
        self._sessions: dict[str, SessionRecord] = {}
        self._table_lock = threading.Lock()
        # Serializes store adoption so two concurrent requests for the
        # same unknown session don't both acquire its lease (the second
        # acquisition would bump the token and fence the first's
        # writes for nothing).
        self._adopt_lock = threading.Lock()
        self._clock = 0  # monotonic LRU counter, guarded by _table_lock
        self._draining = False
        self._adopt_stored()
        # The lease heartbeat starts only after startup adoption, so
        # it never races its acquisitions.
        self._ownership.start(self._records, self._drop)

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

    def advertise(self, url: str) -> None:
        """Publish this replica's address to the shared catalogue.

        Called once the HTTP server knows its bound address; the
        record is refreshed on a daemon thread at a third of the
        catalogue TTL, so a SIGKILLed replica ages out within one TTL
        while live ones stay listed.
        """
        self._ownership.advertise(url)

    def replica_catalogue(self) -> dict[str, Any]:
        """The live replica catalogue, for ``GET /replicas``."""
        return {
            "replica": self._replica_id,
            "url": self._ownership.url,
            "store": self._store.describe(),
            "replicas": self._ownership.live_replicas(),
        }

    @property
    def draining(self) -> bool:
        """Whether the manager stopped accepting new work."""
        return self._draining

    @property
    def degraded(self) -> bool:
        """Whether sustained pressure is shedding eligible sessions
        onto the approximate backend."""
        return self._admission.degraded

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
        record = self._new_record(session_id, config)
        record.detector = build_stream(config)
        try:
            record.lease = self._ownership.claim(session_id)
        except NotOwnerError as error:
            raise ServiceError(
                f"could not acquire the lease for new session "
                f"{session_id}"
            ) from error
        if self._wal:
            record.wal = self._make_wal(session_id)
            self._with_store_retries(
                lambda: record.wal.append_create(
                    session_id, config.to_document(),
                    guard=self._ownership.guard(record),
                )
            )
        self._register(record)
        self._evict_over_limit()
        add_counter("service_sessions_created_total")
        _logger.info("session %s created", session_id)
        return self._info_document(record)

    def _apply_cache_defaults(self, config: SessionConfig) -> SessionConfig:
        """Fold the manager's factor-cache defaults into a new session.

        Applied at creation (so the session block persists the
        *effective* setting and resurrection reproduces it), never on
        restore.
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
        record.breaker.check()
        self._admission.acquire(len(documents))
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
                    universe = record.universe
                    snapshots = self._parse_batch(record, documents)
                    degraded = self._should_degrade(record, detector)
                    results = self._ingest(record, detector, snapshots,
                                           degraded=degraded)
                    try:
                        self._wal_append(record, documents, degraded)
                    except Exception:
                        # The stream holds a batch the store never
                        # acknowledged: drop it, so the next request
                        # resurrects from the npz and WAL instead of
                        # scoring a resend twice.
                        record.detector, record.universe = None, universe
                        raise
                    record.pushes += len(documents)
                    record.breaker.success()
                    self._maybe_compact(record)
                except FencedWriteError as error:
                    raise self._fenced(record, error) from error
                except Exception as error:
                    record.breaker.failure(error)
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
            self._admission.observe(time.monotonic() - started,
                                    len(documents))
            self._admission.release(len(documents))
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
        further snapshots. With the WAL on, the seal is logged (fsynced)
        before it is acknowledged, so a hard kill cannot unseal it.
        """
        document = self.report(session_id, include_scores=include_scores)
        record = self._get(session_id)
        with record.lock:
            if not record.finalized and record.wal is not None:
                try:
                    self._with_store_retries(
                        lambda: record.wal.append_finalize(
                            token=self._ownership.token(record),
                            guard=self._ownership.guard(record),
                        )
                    )
                except FencedWriteError as error:
                    raise self._fenced(record, error) from error
            record.finalized = True
        document["finalized"] = True
        add_counter("service_sessions_finalized_total")
        return document

    def delete(self, session_id: str) -> None:
        """Drop a session, its stored state, and its lease.

        Requires ownership: a session leased to a live replica raises
        :class:`~repro.service.errors.NotOwnerError` and stays intact.
        """
        record = self._get(session_id)
        with record.lock:
            with self._table_lock:
                if self._sessions.get(session_id) is not record:
                    raise NotFoundError(f"no session {session_id!r}")
            self._ownership.ensure(record)
            for key in session_keys(session_id):
                self._store.delete(key)
            self._ownership.forget(session_id)
            record.detector = None
            self._drop(record)
        add_counter("service_sessions_deleted_total")
        _logger.info("session %s deleted", session_id)

    def session_info(self, session_id: str) -> dict[str, Any]:
        """One session's summary document."""
        return self._info_document(self._get(session_id))

    def list_sessions(self) -> dict[str, Any]:
        """Summaries of every known session."""
        records = self._records()
        return {
            "sessions": [self._info_document(r) for r in records],
            "resident": sum(r.resident for r in records),
            "draining": self._draining,
            "degraded": self.degraded,
            "replica": self._replica_id,
            "store": self._store.describe(),
        }

    # -- drain, eviction and dropping ----------------------------------------

    def drain(self) -> int:
        """Checkpoint every resident session to the store; return how
        many held stream state. Held leases are released afterwards so
        another replica adopts the sessions without waiting out the TTL.

        Called after the HTTP server stopped accepting connections and
        joined its in-flight handlers, so session locks are only held
        against stragglers — we still take them for safety.
        """
        self._draining = True
        self._ownership.stop(withdraw=True)
        records = self._records()
        drained = 0
        with trace("service.drain", sessions=len(records)):
            for record in records:
                with record.lock:
                    drained += self._checkpoint_and_release(record,
                                                            "drain")
        _logger.info("drained %d session(s) to %s", drained,
                     self._store.describe())
        return drained

    def abandon(self) -> None:
        """Chaos/test hook: die without cleanup.

        Stops lease heartbeats and forgets all in-memory state without
        checkpointing or releasing anything — exactly what a SIGKILLed
        replica leaves behind: unreleased leases (adoptable after the
        TTL), a catalogue record left to age out, and a WAL holding
        every acknowledged push.
        """
        self._ownership.stop(withdraw=False)
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
                with trace("service.evict", session=victim.session_id):
                    self._checkpoint_and_release(victim, "eviction")
            finally:
                victim.lock.release()
            add_counter("service_evictions_total")
            _logger.info("session %s evicted to the store",
                         victim.session_id)

    def _checkpoint_and_release(self, record: SessionRecord,
                                during: str) -> bool:
        """Checkpoint a resident session, drop its detector and release
        its lease so any replica (us included) can pick it up (lock
        held). Returns whether stream state was written."""
        written = False
        if record.detector is not None:
            try:
                self._checkpoint_record(record)
                written = record.detector.latest_snapshot is not None
            except FencedWriteError as error:
                # Ownership moved meanwhile; the new owner has the
                # authoritative state — just drop ours.
                _logger.warning("session %s fenced during %s: %s",
                                record.session_id, during, error)
                add_counter("service_fenced_writes_total")
            record.detector = None
        self._ownership.release(record.lease)
        record.lease = None
        with self._table_lock:
            self._update_gauges()
        return written

    def _fenced(self, record: SessionRecord,
                error: FencedWriteError) -> NotOwnerError:
        """Ownership moved mid-request: drop our stale state (lock
        held) and translate the rejection for the client."""
        record.detector = None
        self._drop(record)
        return self._ownership.fenced(record.session_id, error)

    def _drop(self, record: SessionRecord) -> None:
        """Forget a session locally: no lease, out of the table. An
        in-flight push on it is fenced at its next store write."""
        record.lease = None
        with self._table_lock:
            if self._sessions.get(record.session_id) is record:
                del self._sessions[record.session_id]
            self._update_gauges()

    def _checkpoint_record(self, record: SessionRecord) -> None:
        """Write one session's npz, then compact its WAL (lock held).

        The npz (stream state plus session block) is one atomic put, so
        the state and its replay watermark land together; a compaction
        that fails afterwards leaves only WAL entries replay skips.
        """
        npz_key, _, sidecar_key = session_keys(record.session_id)
        token = self._ownership.token(record)
        data = encode_checkpoint(
            record.detector.checkpoint(),
            SessionHeader(record.config.to_document(), record.pushes,
                          record.finalized),
        )
        self._with_store_retries(
            lambda: self._store.put(npz_key, data,
                                    guard=self._ownership.guard(record),
                                    token=token)
        )
        record.has_checkpoint = True
        # A legacy sidecar is superseded by the session block now.
        self._store.delete(sidecar_key)
        if record.wal is not None:
            self._with_store_retries(
                lambda: record.wal.compact(
                    record.session_id, record.config.to_document(),
                    record.pushes, token=token,
                    guard=self._ownership.guard(record),
                )
            )
            record.wal_pending = 0

    def _resurrect(self, record: SessionRecord) -> DetectionStream:
        """Rebuild an evicted session's detector from the store
        (lock and lease held): restore its npz if one was written, else
        start fresh, then replay the WAL past the restored watermark."""
        with trace("service.resurrect", session=record.session_id):
            state = load_checkpoint(self._store, record.session_id)
            detector = build_stream(record.config, state)
        if state is None:
            record.pushes = 0  # a fresh stream replays the whole log
        elif "session" in state:
            # The watermark of the state actually restored: under
            # leases another replica may have advanced the session.
            header = SessionHeader.from_block(state["session"])
            record.pushes = header.pushes
            record.finalized = record.finalized or header.finalized
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

    # -- adoption from the store ---------------------------------------------

    def _adopt_stored(self) -> None:
        """Adopt every session a previous (or sibling) process left in
        the store. Sessions leased to a live replica are skipped here
        and adopted on demand once their lease lapses."""
        try:
            keys = self._store.list()
        except StoreError as error:
            _logger.error("cannot list the session store: %s", error)
            return
        candidates = {session_id_of(key) for key in keys} - {None}
        for session_id in sorted(candidates):
            try:
                self._adopt_from_store(session_id, startup=True)
            except NotOwnerError:
                _logger.info("session %s is leased to another replica; "
                             "deferring adoption", session_id)

    def _adopt_from_store(self, session_id: str,
                          startup: bool = False) -> SessionRecord | None:
        """Adopt a session found in the store: at startup, or when a
        request names a session this replica does not know. ``None``
        when the store holds nothing adoptable for it.

        Raises:
            NotOwnerError: the session exists but its lease is held by
                a live replica; the client should retry (here or
                there) after the remaining TTL.
        """
        if not session_id or "/" in session_id:
            return None
        with self._adopt_lock:
            with self._table_lock:
                record = self._sessions.get(session_id)
            if record is not None:
                return record  # a concurrent request adopted it first
            try:
                if not any(self._store.exists(key)
                           for key in session_keys(session_id)):
                    return None
            except StoreError:
                return None
            lease = self._ownership.claim(session_id, startup)
            record = self._record_from_store(session_id)
            if record is None:
                self._ownership.release(lease)
                return None
            record.lease = lease
            self._register(record)
        _logger.info("adopted session %s from %s", session_id,
                     self._store.describe())
        return record

    def _record_from_store(self,
                           session_id: str) -> SessionRecord | None:
        """Build a lazy (non-resident) record from stored artifacts,
        quarantining anything unusable. ``None`` when the session has
        no adoptable state.

        One adoption rule: the session's config, push watermark and
        finalized flag come from the npz header if present, else from
        the WAL header — which can rebuild the session only while the
        log still holds its full history (never compacted).
        """
        npz_key, wal_key, sidecar_key = session_keys(session_id)
        wal = self._make_wal(session_id) if self._wal else None
        log = wal.read() if wal is not None else WalContents()
        try:
            header = read_session_header(self._store, session_id)
        except (CheckpointError, StoreError) as error:
            self._quarantine(f"unreadable checkpoint: {error}",
                             npz_key, sidecar_key)
            header = None
        has_checkpoint = header is not None
        if header is None:
            if wal is None or not wal.exists():
                return None  # nothing of ours (or a foreign file)
            if not log.valid or log.compacted_through > 0:
                self._quarantine(
                    "WAL cannot rebuild the session: "
                    + ("no valid header" if not log.valid else
                       "its watermark references a missing checkpoint"),
                    wal_key,
                )
                return None
            header = SessionHeader(log.config)
        try:
            config = parse_session_config(header.config)
        except ServiceError as error:
            self._quarantine(f"bad session config: {error}",
                             npz_key, sidecar_key, wal_key)
            return None
        record = self._new_record(session_id, config)
        record.pushes = header.pushes
        record.finalized = header.finalized or log.finalized
        record.has_checkpoint = has_checkpoint
        record.wal = wal
        record.wal_pending = len(log.entries)
        return record

    def _quarantine(self, reason: str, *keys: str) -> None:
        """Move corrupt artifacts aside instead of crashing adoption."""
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
        return (self._admission.degraded
                and record.config.method == "auto"
                and not detector.incremental)

    def _replay_wal(self, record: SessionRecord,
                    detector: DetectionStream) -> None:
        """Re-ingest WAL entries newer than the checkpointed state and
        honour a logged seal (called during resurrection, session lock
        held)."""
        if record.wal is None:
            return
        contents = record.wal.read()
        record.finalized = record.finalized or contents.finalized
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
        self._with_store_retries(
            lambda: wal.append_snapshots(
                documents, start_seq=record.pushes, degraded=degraded,
                token=self._ownership.token(record),
                guard=self._ownership.guard(record),
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

    # -- small helpers -------------------------------------------------------

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

    def _get(self, session_id: str) -> SessionRecord:
        with self._table_lock:
            record = self._sessions.get(session_id)
        if record is None:
            record = self._adopt_from_store(session_id)
        if record is None:
            raise NotFoundError(f"no session {session_id!r}")
        return record

    def _require_resident(self, record: SessionRecord,
                          ) -> DetectionStream:
        """The session's live detector (lock held), taking its lease
        and resurrecting it if evicted."""
        self._ownership.ensure(record)
        if record.detector is not None:
            return record.detector
        resumable = record.has_checkpoint or (
            record.wal is not None and record.wal.exists()
        )
        if not resumable:
            raise CheckpointError(
                f"session {record.session_id} lost its detector "
                "without a checkpoint or WAL"
            )
        return self._resurrect(record)

    def _new_record(self, session_id: str,
                    config: SessionConfig) -> SessionRecord:
        return SessionRecord(session_id, config, Breaker(
            session_id, self._breaker_threshold, self._breaker_cooldown,
        ))

    def _register(self, record: SessionRecord) -> None:
        with self._table_lock:
            record.last_active = self._tick()
            self._sessions[record.session_id] = record
            self._update_gauges()

    def _records(self) -> list[SessionRecord]:
        with self._table_lock:
            return list(self._sessions.values())

    def _touch(self, record: SessionRecord) -> None:
        with self._table_lock:
            record.last_active = self._tick()

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _make_wal(self, session_id: str) -> SessionWal:
        return SessionWal(self._store, session_keys(session_id)[1])

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
            "breaker": record.breaker.describe(),
        }
        document.update(self._ownership.describe(record))
        return document
