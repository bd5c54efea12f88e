"""Durable checkpoints for streaming detection.

A crashed stream should resume exactly where it died.
:meth:`~repro.core.streaming.StreamingCadDetector.checkpoint` captures
the detector's whole life as a *plain-data* dictionary — scalars, lists,
and numpy arrays, no library objects — and this module round-trips that
dictionary through a single compressed ``.npz`` file (arrays stored
natively, everything else in one JSON header).

Node labels and time labels must survive a JSON round-trip (strings,
ints, floats, booleans, ``None``); checkpointing a stream with richer
labels raises :class:`~repro.exceptions.CheckpointError` rather than
silently mangling identity.
"""

from __future__ import annotations

import json
import zipfile
from collections.abc import Callable
from pathlib import Path
from typing import Any, TypeVar

import numpy as np

from ..exceptions import CheckpointError
from ..observability import trace
from ..store import atomic_writer

#: Document format marker for forwards compatibility.
FORMAT = "repro-streaming-checkpoint"
VERSION = 1

_SNAPSHOT_ARRAYS = ("data", "indices", "indptr")
_SCORED_ARRAYS = ("edge_rows", "edge_cols", "edge_scores", "node_scores")

T = TypeVar("T")


def require_checkpoint_format(state: dict[str, Any]) -> None:
    """Validate a checkpoint state's format marker and version.

    Raises:
        CheckpointError: on a foreign or wrong-version document.
    """
    if not isinstance(state, dict) or state.get("format") != FORMAT:
        raise CheckpointError(f"not a {FORMAT} document")
    if state.get("version") != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {state.get('version')!r} "
            f"(expected {VERSION})"
        )


def write_npz_document(path: str | Path, meta: dict[str, Any],
                       arrays: dict[str, np.ndarray], what: str) -> None:
    """Atomically write ``arrays`` plus ``meta`` as one ``.npz``.

    ``meta`` travels JSON-encoded in the ``meta_json`` entry. The write
    goes through a temp file, fsync and rename, so a crash mid-write
    leaves the previous document intact instead of a torn archive.

    Args:
        path: destination file (conventionally ``*.npz``).
        meta: the JSON header.
        arrays: named arrays stored natively.
        what: document name for error messages.

    Raises:
        CheckpointError: when ``meta`` is not JSON-serialisable.
    """
    try:
        encoded = json.dumps(meta)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{what} state is not JSON-serialisable; node labels and "
            f"time labels must be plain scalars ({exc})"
        ) from exc
    arrays = {**arrays, "meta_json": np.array(encoded)}
    with trace("checkpoint.write", arrays=len(arrays)):
        with atomic_writer(Path(path)) as temp:
            with open(temp, "wb") as handle:
                np.savez_compressed(handle, **arrays)


def read_npz_document(path: str | Path, format_name: str,
                      load: Callable[[Any, Any], T], what: str) -> T:
    """Open a document written by :func:`write_npz_document`.

    ``load(meta, archive)`` validates the decoded header and pulls the
    arrays it needs while the archive is open. Any read or decode
    failure, including a missing key, becomes a
    :class:`~repro.exceptions.CheckpointError`.

    Raises:
        CheckpointError: on a missing, corrupt or foreign file, or
            whatever ``load`` rejects.
    """
    try:
        with trace("checkpoint.read"), \
                np.load(Path(path), allow_pickle=False) as archive:
            if "meta_json" not in archive:
                raise CheckpointError(
                    f"{path}: not a {format_name} archive"
                )
            return load(json.loads(str(archive["meta_json"])), archive)
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, zipfile.BadZipFile,
            json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read {what} {path}: {exc}") from exc


def write_checkpoint(state: dict[str, Any], path: str | Path) -> None:
    """Write a checkpoint state dictionary as one ``.npz`` archive.

    Args:
        state: dictionary produced by
            :meth:`~repro.core.streaming.StreamingCadDetector.checkpoint`.
        path: destination file (conventionally ``*.npz``).

    Raises:
        CheckpointError: when the state is not a checkpoint document or
            contains labels/times that JSON cannot represent.
    """
    require_checkpoint_format(state)
    arrays: dict[str, np.ndarray] = {}
    snapshots_meta = []
    for position, snapshot in enumerate(state["snapshots"]):
        for name in _SNAPSHOT_ARRAYS:
            arrays[f"snapshot_{position}_{name}"] = np.asarray(
                snapshot[name]
            )
        snapshots_meta.append({"time": snapshot["time"]})
    scored_meta = []
    for position, scores in enumerate(state["scored"]):
        for name in _SCORED_ARRAYS:
            arrays[f"scored_{position}_{name}"] = np.asarray(scores[name])
        for extra_name, extra in scores["extras"].items():
            arrays[f"scored_{position}_extra_{extra_name}"] = np.asarray(
                extra
            )
        scored_meta.append({
            "detector": scores["detector"],
            "extras": sorted(scores["extras"]),
        })
    # Optional detector-private state (generic streaming wrapper):
    # plain named arrays, absent entirely for CAD streams.
    detector_state = state.get("detector_state") or {}
    for name, value in detector_state.items():
        arrays[f"detector_{name}"] = np.asarray(value)
    meta = {
        "format": FORMAT,
        "version": VERSION,
        "config": state["config"],
        "universe": state["universe"],
        "num_nodes": state["num_nodes"],
        "snapshots": snapshots_meta,
        "scored": scored_meta,
        "push_count": state["push_count"],
        "health": state["health"],
        "rng_state": state["rng_state"],
        "detector_state": sorted(detector_state),
    }
    write_npz_document(path, meta, arrays, "checkpoint")


def read_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read a checkpoint written by :func:`write_checkpoint`.

    Returns:
        The reconstructed plain-data state dictionary, validated and
        ready for
        :meth:`~repro.core.streaming.StreamingCadDetector.restore`.

    Raises:
        CheckpointError: on a missing, corrupt, foreign, or
            wrong-version file.
    """
    def load(meta: Any, archive) -> dict[str, Any]:
        require_checkpoint_format(meta)
        snapshots = []
        for position, entry in enumerate(meta["snapshots"]):
            snapshot = {"time": entry["time"]}
            for name in _SNAPSHOT_ARRAYS:
                snapshot[name] = archive[f"snapshot_{position}_{name}"]
            snapshots.append(snapshot)
        scored = []
        for position, entry in enumerate(meta["scored"]):
            scores: dict[str, Any] = {"detector": entry["detector"]}
            for name in _SCORED_ARRAYS:
                scores[name] = archive[f"scored_{position}_{name}"]
            scores["extras"] = {
                extra_name: archive[f"scored_{position}_extra_{extra_name}"]
                for extra_name in entry["extras"]
            }
            scored.append(scores)
        return {
            "format": FORMAT,
            "version": VERSION,
            "config": meta["config"],
            "universe": meta["universe"],
            "num_nodes": meta["num_nodes"],
            "snapshots": snapshots,
            "scored": scored,
            "push_count": meta["push_count"],
            "health": meta["health"],
            "rng_state": meta["rng_state"],
            "detector_state": {
                name: archive[f"detector_{name}"]
                for name in meta.get("detector_state", [])
            },
        }

    return read_npz_document(path, FORMAT, load, "checkpoint")
