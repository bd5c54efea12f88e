"""Shared-prefix store: an object-store stand-in on a shared filesystem.

Several service replicas mount one prefix (NFS, a fuse-mounted bucket,
a shared volume) and coordinate through it. The layout is designed so
no crash, at any instant, can surface a torn object to a reader:

* **blob objects** (checkpoints, lease records) are written
  as immutable *generation* files — ``objects/<key>.g<N>`` — and a
  small JSON **manifest** (``manifest/<key>``) naming the live
  generation with its size and BLAKE2b checksum. A put writes the new
  generation first (temp + fsync + rename), then atomically replaces
  the manifest, then garbage-collects the old generation. A crash
  between the two leaves the manifest pointing at the previous,
  complete generation — readers never see the half-written new one.
  Reads verify the checksum and raise
  :class:`~repro.store.base.StoreCorruptError` on bit rot.
* **log objects** (keys ending ``.wal``) live under ``logs/`` as plain
  fsynced append files: object stores don't append, real deployments
  put logs on a log-structured service, and the WAL format is
  torn-tail tolerant by design, so logs trade the manifest for append
  support. A put on a log key is an atomic whole-file replace (WAL
  compaction).

Key names are percent-encoded into flat filenames, so arbitrary keys
(slashes included) need no directory bookkeeping.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from urllib.parse import quote, unquote

from .base import (
    SessionStore,
    StoreCorruptError,
    StoreError,
    StoreKeyError,
    atomic_writer,
    check_key,
    fsync_dir,
    fsync_file,
)

#: Manifest format marker.
MANIFEST_FORMAT = "repro-store-manifest"
MANIFEST_VERSION = 1

#: Key suffix classifying an object as an append-able log.
LOG_SUFFIX = ".wal"


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class SharedStore(SessionStore):
    """Crash-consistent multi-replica store on one shared prefix.

    Args:
        root: the shared prefix (created if missing).
        fsync: fsync data, manifests, and directories (disable only in
            tests).

    Attributes:
        hooks: test-only fault points — ``hooks["before_manifest"]``
            (called between the generation write and the manifest
            update) lets the chaos harness simulate a crash that tears
            a put in half; see
            :class:`repro.resilience.chaos.ChaosStore`.
    """

    scheme = "shared"

    def __init__(self, root: str | Path, fsync: bool = True):
        self._root = Path(root)
        self._fsync = bool(fsync)
        for name in ("objects", "manifest", "logs", "locks"):
            (self._root / name).mkdir(parents=True, exist_ok=True)
        self.hooks: dict[str, object] = {}

    @property
    def root(self) -> Path:
        """The shared prefix."""
        return self._root

    def describe(self) -> str:
        return f"{self.scheme}:{self._root}"

    def _lock_dir(self) -> Path:
        return self._root / "locks"

    def _fire(self, hook: str, key: str) -> None:
        callback = self.hooks.get(hook)
        if callback is not None:
            callback(key)  # type: ignore[operator]

    @staticmethod
    def _quoted(key: str) -> str:
        return quote(check_key(key), safe="")

    def _manifest_path(self, key: str) -> Path:
        return self._root / "manifest" / self._quoted(key)

    def _object_path(self, key: str, generation: int) -> Path:
        return self._root / "objects" / \
            f"{self._quoted(key)}.g{int(generation)}"

    def _log_path(self, key: str) -> Path:
        return self._root / "logs" / self._quoted(key)

    @staticmethod
    def _is_log(key: str) -> bool:
        return check_key(key).endswith(LOG_SUFFIX)

    def _read_manifest(self, key: str) -> dict:
        path = self._manifest_path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise StoreKeyError(f"no object {key!r}") from None
        try:
            manifest = json.loads(raw)
            if manifest.get("format") != MANIFEST_FORMAT:
                raise ValueError("foreign manifest")
            int(manifest["generation"])
        except (ValueError, KeyError, TypeError) as error:
            raise StoreCorruptError(
                f"unreadable manifest for {key!r}: {error}"
            ) from error
        return manifest

    # -- SessionStore --------------------------------------------------------

    def put(self, key: str, data: bytes, guard=None,
            token: int | None = None) -> None:
        if self._is_log(key):
            # Whole-log replace (WAL compaction): atomic, no manifest.
            path = self._log_path(key)
            with atomic_writer(path, fsync=self._fsync) as temp:
                temp.write_bytes(data)
                if guard is not None:
                    guard()
            return
        try:
            generation = int(self._read_manifest(key)["generation"]) + 1
        except (StoreKeyError, StoreCorruptError):
            generation = 1
        object_path = self._object_path(key, generation)
        with atomic_writer(object_path, fsync=self._fsync) as temp:
            temp.write_bytes(data)
        try:
            if guard is not None:
                guard()
            self._fire("before_manifest", key)
            manifest = {
                "format": MANIFEST_FORMAT,
                "version": MANIFEST_VERSION,
                "key": key,
                "generation": generation,
                "size": len(data),
                "blake2b": _digest(data),
            }
            if token is not None:
                manifest["token"] = int(token)
            with atomic_writer(self._manifest_path(key),
                               fsync=self._fsync) as temp:
                temp.write_bytes(
                    json.dumps(manifest, sort_keys=True).encode()
                )
        except BaseException:
            # The guard or a chaos hook aborted the put after the new
            # generation landed: the manifest still names the old one,
            # so readers are unaffected; drop the orphan generation.
            object_path.unlink(missing_ok=True)
            raise
        # Garbage-collect superseded generations (best effort; an
        # orphan generation is invisible to readers either way).
        for stale in (self._root / "objects").glob(
                f"{self._quoted(key)}.g*"):
            if stale != object_path:
                stale.unlink(missing_ok=True)

    def get(self, key: str) -> bytes:
        if self._is_log(key):
            try:
                return self._log_path(key).read_bytes()
            except FileNotFoundError:
                raise StoreKeyError(f"no object {key!r}") from None
        manifest = self._read_manifest(key)
        object_path = self._object_path(key, manifest["generation"])
        try:
            data = object_path.read_bytes()
        except FileNotFoundError:
            raise StoreCorruptError(
                f"manifest for {key!r} names generation "
                f"{manifest['generation']} but the object is missing"
            ) from None
        if len(data) != int(manifest.get("size", -1)) or \
                _digest(data) != manifest.get("blake2b"):
            raise StoreCorruptError(
                f"checksum mismatch for {key!r} (generation "
                f"{manifest['generation']})"
            )
        return data

    def list(self, prefix: str = "") -> list[str]:
        keys = set()
        for path in (self._root / "manifest").iterdir():
            if path.is_file() and not path.name.startswith(".tmp-"):
                keys.add(unquote(path.name))
        for path in (self._root / "logs").iterdir():
            if path.is_file() and not path.name.startswith(".tmp-"):
                keys.add(unquote(path.name))
        return sorted(k for k in keys if k.startswith(prefix))

    def delete(self, key: str) -> None:
        # Manifest first: once it is gone the key no longer resolves,
        # and leftover generations are invisible orphans.
        self._manifest_path(key).unlink(missing_ok=True)
        for stale in (self._root / "objects").glob(
                f"{self._quoted(key)}.g*"):
            stale.unlink(missing_ok=True)
        self._log_path(key).unlink(missing_ok=True)

    def exists(self, key: str) -> bool:
        if self._is_log(key):
            return self._log_path(key).is_file()
        return self._manifest_path(key).is_file()

    def append(self, key: str, data: bytes, guard=None) -> None:
        if not self._is_log(key):
            raise StoreError(
                f"append is only supported on log objects "
                f"(*{LOG_SUFFIX}), not {key!r}"
            )
        path = self._log_path(key)
        with open(path, "ab") as handle:
            if guard is not None:
                guard()
            handle.write(data)
            if self._fsync:
                fsync_file(handle)

    def move(self, key: str, destination: str) -> None:
        """Raw move, corrupt objects included (the quarantine path).

        Generation files and the manifest are renamed without
        verification; the manifest's embedded ``key`` field becomes
        stale, which quarantined objects never read back.
        """
        moved = False
        source_quoted = self._quoted(key)
        dest_quoted = self._quoted(destination)
        manifest = self._manifest_path(key)
        if manifest.is_file():
            manifest.replace(self._root / "manifest" / dest_quoted)
            moved = True
        for generation in (self._root / "objects").glob(
                f"{source_quoted}.g*"):
            suffix = generation.name[len(source_quoted):]
            generation.replace(
                self._root / "objects" / f"{dest_quoted}{suffix}"
            )
            moved = True
        log = self._log_path(key)
        if log.is_file():
            log.replace(self._root / "logs" / dest_quoted)
            moved = True
        if not moved:
            raise StoreKeyError(f"no object {key!r}")
        if self._fsync:
            fsync_dir(self._root / "manifest")
            fsync_dir(self._root / "objects")
            fsync_dir(self._root / "logs")
