"""How the detection service stores a session: one npz plus its WAL.

* ``<session>.npz`` — the stream checkpoint
  (:mod:`repro.resilience.checkpoint`), its header carrying the
  **session block**: config document, the push count it holds (the
  replay watermark) and the finalized flag. One atomic ``put`` lands
  state and watermark together, so a store failing mid-checkpoint can
  never make replay apply a push twice.
* ``<session>.wal`` — every **accepted** snapshot payload appended as
  one JSON line (fsynced by the store) right after ingest, plus a
  ``finalize`` record before a seal is acknowledged. On adoption,
  entries above the restored npz's watermark are **replayed** through
  the ordinary ingest path — deterministic scoring rebuilds the exact
  pre-crash state — and after each checkpoint the log is **compacted**
  to its header + a ``compacted`` watermark.

The log is torn-write tolerant: a crash can leave at most one partial
trailing line, which :meth:`SessionWal.read` drops (that push was never
acknowledged, so at-least-once clients resend it); other unparseable
lines surface as ``corrupt_lines``. Under session leases every record
carries the writer's **fencing token** and every write takes a *guard*
(see :mod:`repro.store.lease`), so a replica that lost its lease
cannot extend the new owner's log.

Stores written before the session block kept it in a JSON sidecar,
``<session>.json``; :func:`read_session_header` still reads it, and
the session's next checkpoint deletes it.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..exceptions import CheckpointError
from ..resilience.checkpoint import (
    FORMAT as CHECKPOINT_FORMAT,
    read_checkpoint,
    read_npz_document,
    require_checkpoint_format,
    write_checkpoint,
)
from ..store import SessionStore, StoreKeyError

#: Format marker on the WAL's header line.
WAL_FORMAT = "repro-session-wal"
WAL_VERSION = 1

#: Suffixes of the store keys a session owns: its checkpoint, its WAL
#: and (stores written before the session block) its legacy sidecar.
SESSION_SUFFIXES = (".npz", ".wal", ".json")

#: Format marker of the legacy JSON sidecar (read-only).
SIDECAR_FORMAT = "repro-service-session"


def session_keys(session_id: str) -> tuple[str, ...]:
    """The checkpoint, WAL and legacy-sidecar keys of one session."""
    return tuple(session_id + suffix for suffix in SESSION_SUFFIXES)


def session_id_of(key: str) -> str | None:
    """The session a top-level store key belongs to, if any."""
    if "/" in key:
        return None  # leases/, quarantine/, foreign prefixes
    for suffix in SESSION_SUFFIXES:
        if key.endswith(suffix) and len(key) > len(suffix):
            return key[:-len(suffix)]
    return None


@dataclass(frozen=True)
class SessionHeader:
    """The session block: what the store records about a session
    beyond its stream state."""

    config: dict[str, Any]
    #: Pushes the accompanying stream state holds (the replay
    #: watermark: WAL entries at or below it are already applied).
    pushes: int = 0
    finalized: bool = False

    @classmethod
    def from_block(cls, block: Any) -> SessionHeader:
        """Decode a session block (or a legacy sidecar document).

        Raises:
            CheckpointError: when the block is malformed.
        """
        try:
            if not isinstance(block.get("config"), dict):
                raise TypeError("config is not an object")
            return cls(block["config"], int(block.get("pushes", 0)),
                       bool(block.get("finalized", False)))
        except (AttributeError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed session block: {exc}") \
                from exc

    def block(self) -> dict[str, Any]:
        return {"config": self.config, "pushes": self.pushes,
                "finalized": self.finalized}


def encode_checkpoint(state: dict[str, Any],
                      header: SessionHeader) -> bytes:
    """The npz bytes of a stream checkpoint ``state`` carrying
    ``header`` as its session block."""
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as temp:
        path = Path(temp) / "checkpoint.npz"
        write_checkpoint({**state, "session": header.block()}, path)
        return path.read_bytes()


def load_checkpoint(store: SessionStore,
                    session_id: str) -> dict[str, Any] | None:
    """The session's full checkpoint state (``None``: never written).

    Raises:
        CheckpointError: when the stored npz is unreadable.
    """
    npz_key = session_keys(session_id)[0]
    try:
        with store.local_copy(npz_key, suffix=".npz") as local:
            return read_checkpoint(local)
    except StoreKeyError:
        return None


def read_session_header(store: SessionStore,
                        session_id: str) -> SessionHeader | None:
    """The session block from the npz header alone (no arrays read).

    A checkpoint written before the block existed falls back to the
    legacy sidecar, as does a legacy session stored before its first
    snapshot (sidecar, no npz). ``None`` when neither exists, or the
    ``.json`` under the session's name is someone else's file.

    Raises:
        CheckpointError: on an unreadable npz or sidecar, a malformed
            block, or a pre-block npz whose sidecar is missing.
        StoreError: when the store cannot serve the objects.
    """
    npz_key, _, sidecar_key = session_keys(session_id)

    def header_block(meta: Any, _archive) -> Any:
        require_checkpoint_format(meta)
        return meta.get("session")

    try:
        with store.local_copy(npz_key, suffix=".npz") as local:
            block = read_npz_document(local, CHECKPOINT_FORMAT,
                                      header_block, "checkpoint")
    except StoreKeyError:
        return _read_legacy_sidecar(store, sidecar_key)
    if block is not None:
        return SessionHeader.from_block(block)
    header = _read_legacy_sidecar(store, sidecar_key)
    if header is None:
        raise CheckpointError(
            "checkpoint has no session block and no legacy sidecar"
        )
    return header


def _read_legacy_sidecar(store: SessionStore,
                         key: str) -> SessionHeader | None:
    try:
        raw = store.get(key)
    except StoreKeyError:
        return None
    try:
        document = json.loads(raw)
    except ValueError as exc:
        raise CheckpointError(f"unreadable legacy sidecar: {exc}") \
            from exc
    if isinstance(document, dict) and \
            document.get("format") != SIDECAR_FORMAT:
        return None  # someone else's file; leave it alone
    return SessionHeader.from_block(document)


@dataclass
class WalContents:
    """Decoded state of one session's WAL."""

    session_id: str | None = None
    config: dict[str, Any] | None = None
    compacted_through: int = 0
    #: ``(seq, payload, degraded)`` snapshot entries, ascending,
    #: already filtered to ``seq > compacted_through``. ``degraded``
    #: records whether the push was scored on the shed (approximate)
    #: backend, so replay reproduces the exact pre-crash state.
    entries: list[tuple[int, dict[str, Any], bool]] = field(
        default_factory=list
    )
    #: Whether a ``finalize`` record was logged.
    finalized: bool = False
    #: Whether a partial trailing line was dropped (torn write).
    truncated: bool = False
    #: Unparseable non-trailing lines (corruption, not a torn tail).
    corrupt_lines: int = 0

    @property
    def valid(self) -> bool:
        """Whether the log carried a usable header."""
        return self.session_id is not None


class SessionWal:
    """Append-only JSONL log of one session's accepted snapshots.

    Args:
        store: the durable store holding the log; its appends are
            fsynced and its puts atomic.
        key: the store key of the log (``<session>.wal``).
    """

    def __init__(self, store: SessionStore, key: str):
        self._store = store
        self._key = key

    def exists(self) -> bool:
        return self._store.exists(self._key)

    # -- writing -------------------------------------------------------------

    @staticmethod
    def _header(session_id: str,
                config_document: dict[str, Any]) -> dict[str, Any]:
        return {
            "wal": WAL_FORMAT,
            "version": WAL_VERSION,
            "kind": "create",
            "session": session_id,
            "config": config_document,
        }

    def append_create(self, session_id: str,
                      config_document: dict[str, Any],
                      guard=None) -> None:
        """Write the header line (once, at session creation)."""
        self._append_lines([self._header(session_id, config_document)],
                           guard=guard)

    def append_snapshots(self, documents: list[dict[str, Any]],
                         start_seq: int,
                         degraded: bool = False,
                         token: int | None = None,
                         guard=None) -> int:
        """Log accepted snapshot payloads; returns the last seq used.

        ``start_seq`` is the session's push count *before* this batch,
        so entries get sequence numbers ``start_seq+1 ..``, aligning
        seq with the push watermark in the npz's session block.
        ``degraded`` marks entries scored on the shed (approximate)
        backend so replay re-applies the same override. ``token``
        stamps the writer's fencing token into each record, and
        ``guard`` (lease verification) runs just before the append
        lands — see :mod:`repro.store.lease`.
        """
        lines = []
        for offset, document in enumerate(documents):
            line: dict[str, Any] = {
                "kind": "snapshot", "seq": start_seq + offset + 1,
                "payload": document,
            }
            if degraded:
                line["degraded"] = True
            if token is not None:
                line["token"] = int(token)
            lines.append(line)
        self._append_lines(lines, guard=guard)
        return start_seq + len(documents)

    def append_finalize(self, token: int | None = None,
                        guard=None) -> None:
        """Log that the session was sealed (before acknowledging it)."""
        line: dict[str, Any] = {"kind": "finalize"}
        if token is not None:
            line["token"] = int(token)
        self._append_lines([line], guard=guard)

    def compact(self, session_id: str,
                config_document: dict[str, Any],
                through_seq: int,
                token: int | None = None,
                guard=None) -> None:
        """Atomically shrink the log to header + watermark.

        Called right after an npz checkpoint captured the detector
        state through push ``through_seq`` — replay will skip
        everything at or below the watermark.
        """
        watermark: dict[str, Any] = {
            "kind": "compacted", "through": int(through_seq),
        }
        if token is not None:
            watermark["token"] = int(token)
        rewritten = "".join(
            json.dumps(line) + "\n"
            for line in (self._header(session_id, config_document),
                         watermark)
        )
        self._store.put(self._key, rewritten.encode(), guard=guard,
                        token=token)

    def delete(self) -> None:
        self._store.delete(self._key)

    def _append_lines(self, documents: list[dict[str, Any]],
                      guard=None) -> None:
        data = "".join(
            json.dumps(document) + "\n" for document in documents
        )
        self._store.append(self._key, data.encode(), guard=guard)

    # -- reading -------------------------------------------------------------

    def read(self) -> WalContents:
        """Decode the log, tolerating a torn trailing line."""
        contents = WalContents()
        try:
            raw = self._store.get(self._key)
        except StoreKeyError:
            return contents
        lines = raw.split(b"\n")
        # A complete log ends with a newline, leaving a final empty
        # chunk; anything non-empty there is a torn trailing write.
        if lines and lines[-1] != b"":
            contents.truncated = True
        body = [line for line in lines[:-1] if line.strip()]
        tail = lines[-1] if contents.truncated else None
        entries: dict[int, tuple[dict[str, Any], bool]] = {}
        for line in body:
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except (ValueError, UnicodeDecodeError):
                contents.corrupt_lines += 1
                continue
            kind = record.get("kind")
            if kind == "create":
                if record.get("wal") == WAL_FORMAT:
                    contents.session_id = str(
                        record.get("session", "")
                    ) or None
                    contents.config = record.get("config")
                else:
                    contents.corrupt_lines += 1
            elif kind == "snapshot":
                try:
                    seq = int(record["seq"])
                    payload = record["payload"]
                    if not isinstance(payload, dict):
                        raise TypeError
                except (KeyError, TypeError, ValueError):
                    contents.corrupt_lines += 1
                    continue
                entries[seq] = (payload, bool(record.get("degraded")))
            elif kind == "finalize":
                contents.finalized = True
            elif kind == "compacted":
                try:
                    watermark = int(record["through"])
                except (KeyError, TypeError, ValueError):
                    contents.corrupt_lines += 1
                    continue
                contents.compacted_through = max(
                    contents.compacted_through, watermark
                )
            else:
                contents.corrupt_lines += 1
        if tail is not None and tail.strip():
            # Salvage the tail if it happens to parse (kill landed
            # exactly between the payload and its newline).
            try:
                record = json.loads(tail.decode("utf-8"))
                if record.get("kind") == "snapshot":
                    entries[int(record["seq"])] = (
                        record["payload"], bool(record.get("degraded"))
                    )
            except Exception:
                pass
        contents.entries = sorted(
            (seq, payload, degraded)
            for seq, (payload, degraded) in entries.items()
            if seq > contents.compacted_through
        )
        return contents
