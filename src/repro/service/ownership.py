"""Who may write a session: the ownership component of the service.

:class:`Ownership` is the single-writer policy (``lease_ttl=None``):
this replica owns every session it sees, so every lease hook is a
no-op. :class:`LeasedOwnership` protects each session with a TTL lease
and a monotonic fencing token (:mod:`repro.store.lease`): a heartbeat
renews held leases, a session whose lease expired or was released is
adoptable by any replica, and every store write is guarded so a stale
owner's writes are rejected. Both advertise the replica in the store's
catalogue so peers can redirect clients to the owner.

The held lease lives on the session record (``record.lease``), so a
record dropped after a fence or a lost lease cannot borrow the lease a
newer record of the same session holds.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Any, Callable

from ..observability import add_counter, get_logger
from ..store import (
    FencedWriteError,
    Lease,
    LeaseManager,
    LeaseRecord,
    ReplicaCatalog,
    SessionStore,
    StoreError,
)
from .errors import NotOwnerError, bounded_retry_after

_logger = get_logger("service.ownership")


def default_replica_id() -> str:
    """``<hostname>-<pid>``: stable for the process's lifetime and
    distinguishable across replicas, so lease records and failover
    logs from different replicas never collide on a generic default."""
    return f"{socket.gethostname()}-{os.getpid()}"


class Periodic:
    """Run ``tick`` on a daemon thread every ``interval`` seconds
    (at least 50 ms) until :meth:`stop`."""

    def __init__(self, name: str, interval: float,
                 tick: Callable[[], None]):
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(max(interval, 0.05), tick),
            daemon=True, name=name,
        )
        self._thread.start()

    def _run(self, interval: float, tick: Callable[[], None]) -> None:
        while not self._stop.wait(interval):
            tick()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


class Ownership:
    """Single-writer ownership plus the replica catalogue.

    Args:
        store: the store holding catalogue (and lease) records.
        replica_id: this replica's identity.
        catalog_ttl: lifetime of the catalogue record; refreshed at a
            third of it once :meth:`advertise` has run.
    """

    def __init__(self, store: SessionStore, replica_id: str,
                 catalog_ttl: float):
        self.replica_id = replica_id
        self._catalog = ReplicaCatalog(store, replica_id,
                                       ttl=float(catalog_ttl))
        self._catalog_thread: Periodic | None = None

    # -- catalogue -----------------------------------------------------------

    @property
    def url(self) -> str | None:
        """This replica's advertised URL (``None`` until advertised)."""
        return self._catalog.url

    def advertise(self, url: str) -> None:
        """Publish this replica's address; a daemon thread refreshes
        it, so a SIGKILLed replica ages out within one TTL."""
        self._catalog.advertise(url)
        if self._catalog_thread is None:
            self._catalog_thread = Periodic(
                "replica-catalog", self._catalog.ttl / 3.0,
                self._catalog.refresh,
            )
        _logger.info("advertised %s in the replica catalogue", url)

    def live_replicas(self) -> list[dict[str, Any]]:
        return [record.describe() for record in self._catalog.live()]

    def owner_url(self, owner: str) -> str | None:
        """The owning replica's advertised address, if catalogued."""
        if owner == self.replica_id:
            return None
        record = self._catalog.lookup(owner)
        return None if record is None else record.url

    # -- lifecycle -----------------------------------------------------------

    def start(self, records: Callable[[], list[Any]],
              on_lost: Callable[[Any], None]) -> None:
        """Begin renewing the leases of ``records()``; ``on_lost`` gets
        each record whose lease another replica took."""

    def stop_heartbeat(self) -> None:
        """Stop renewing leases (they lapse after the TTL)."""

    def stop(self, withdraw: bool) -> None:
        """Stop every background thread; ``withdraw`` also removes the
        catalogue record (a SIGKILLed replica leaves it to age out)."""
        self.stop_heartbeat()
        if self._catalog_thread is not None:
            self._catalog_thread.stop()
            self._catalog_thread = None
        if withdraw:
            self._catalog.withdraw()

    # -- per-session hooks ---------------------------------------------------

    def claim(self, session_id: str, startup: bool = False
              ) -> Lease | None:
        """Take ownership of a session before touching its state.

        Returns the lease to keep on the record (``None`` when no
        lease is needed).

        Raises:
            NotOwnerError: a live replica holds the session.
        """
        return None

    def ensure(self, record: Any) -> None:
        """Hold (or take) ``record``'s lease before touching state."""
        if record.lease is None:
            record.lease = self.claim(record.session_id)

    def release(self, lease: Lease | None) -> None:
        """Give a held lease up so any replica may adopt at once."""

    def forget(self, session_id: str) -> None:
        """Delete the session's lease record (session deletion)."""

    def holder(self, session_id: str) -> LeaseRecord | None:
        """The session's current lease record, if any."""
        return None

    def guard(self, record: Any) -> Callable[[], None] | None:
        """The fencing guard stamped onto every store write."""
        return None

    @staticmethod
    def token(record: Any) -> int | None:
        return None if record.lease is None else record.lease.token

    def describe(self, record: Any) -> dict[str, Any]:
        """Extra fields for the session's info document."""
        return {}

    def fenced(self, session_id: str,
               error: FencedWriteError) -> NotOwnerError:
        """Ownership moved mid-request: count it and translate the
        rejection for the client (the caller drops local state)."""
        add_counter("service_fenced_writes_total")
        _logger.warning("session %s: write fenced (%s); dropping "
                        "local state", session_id, error)
        holder = self.holder(session_id)
        return NotOwnerError(
            f"session {session_id} moved to another replica: {error}",
            retry_after=bounded_retry_after(1.0),
            owner=None if holder is None else holder.owner,
            owner_url=None if holder is None
            else self.owner_url(holder.owner),
        )


class LeasedOwnership(Ownership):
    """Per-session TTL leases with fencing tokens.

    Args:
        lease_ttl: lease duration in seconds; held leases are renewed
            at a third of it.
    """

    def __init__(self, store: SessionStore, replica_id: str,
                 catalog_ttl: float, lease_ttl: float):
        super().__init__(store, replica_id, catalog_ttl)
        self._leases = LeaseManager(store, replica_id, float(lease_ttl))
        self._heartbeat: Periodic | None = None

    def start(self, records: Callable[[], list[Any]],
              on_lost: Callable[[Any], None]) -> None:
        self._records, self._on_lost = records, on_lost
        self._heartbeat = Periodic("lease-heartbeat",
                                   self._leases.ttl / 3.0, self._renew)

    def stop_heartbeat(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.stop()
            self._heartbeat = None

    def _renew(self) -> None:
        for record in self._records():
            lease = record.lease
            if lease is None:
                continue
            try:
                renewed = self._leases.renew(lease)
            except StoreError:
                # Partitioned from the store: keep local state; write
                # guards fence us if ownership moves meanwhile.
                continue
            if renewed is not None:
                record.lease = renewed
                continue
            add_counter("service_lease_expiries_total")
            _logger.warning("lost the lease on session %s; dropping "
                            "local state", record.session_id)
            record.lease = None
            self._on_lost(record)

    def claim(self, session_id: str, startup: bool = False
              ) -> Lease | None:
        previous = self._leases.peek(session_id)
        lease = self._leases.acquire(session_id)
        if lease is None:
            raise self._not_owner(session_id)
        if previous is not None and previous.owner != self.replica_id:
            add_counter("service_failover_adoptions_total")
            _logger.warning(
                "adopted session %s from replica %s (%s, token %d)",
                session_id, previous.owner,
                "startup" if startup else "failover", lease.token,
            )
        return lease

    def _not_owner(self, session_id: str) -> NotOwnerError:
        holder = self._leases.peek(session_id)
        if holder is None:
            return NotOwnerError(
                f"session {session_id} could not be leased (contention)",
                retry_after=bounded_retry_after(0.5),
            )
        return NotOwnerError(
            f"session {session_id} is leased to {holder.owner} "
            f"(token {holder.token})",
            retry_after=bounded_retry_after(max(holder.remaining(), 0.5)),
            owner=holder.owner,
            owner_url=self.owner_url(holder.owner),
        )

    def release(self, lease: Lease | None) -> None:
        if lease is not None:
            self._leases.release(lease)

    def forget(self, session_id: str) -> None:
        self._leases.forget(session_id)

    def holder(self, session_id: str) -> LeaseRecord | None:
        return self._leases.peek(session_id)

    def guard(self, record: Any) -> Callable[[], None]:
        lease = record.lease
        if lease is not None:
            return self._leases.guard(record.session_id, lease.token)
        message = (f"replica {self.replica_id} holds no lease on "
                   f"session {record.session_id}")

        def rejected() -> None:
            raise FencedWriteError(message)

        return rejected

    def describe(self, record: Any) -> dict[str, Any]:
        lease = record.lease
        return {"lease": {
            "owner": self.replica_id if lease is not None else None,
            "token": lease.token if lease is not None else None,
            "expires_in": (
                round(lease.remaining(), 3) if lease is not None else None
            ),
        }}


def ownership_for(store: SessionStore, replica_id: str,
                  lease_ttl: float | None,
                  catalog_ttl: float) -> Ownership:
    """Leased ownership when ``lease_ttl`` is set, else single-writer."""
    if lease_ttl is None:
        return Ownership(store, replica_id, catalog_ttl)
    return LeasedOwnership(store, replica_id, catalog_ttl, lease_ttl)
