"""Durable checkpoints for partially completed parallel runs.

A parallel run over a long sequence should survive being killed: the
engine can write the merged payloads of every *fully completed*
transition (plus each worker's cumulative health state) to a single
compressed ``.npz`` document, and a later run over the same input
resumes by scoring only the missing transitions.

"Same input" is enforced, not assumed: the checkpoint stores a
fingerprint derived from every snapshot's
:meth:`~repro.graphs.snapshot.GraphSnapshot.content_digest`, and
restoring against a sequence with a different fingerprint raises
:class:`~repro.exceptions.CheckpointError` instead of silently merging
scores of one dataset into another.

Written and read through the same ``.npz`` + ``meta_json`` document
code as :mod:`repro.resilience.checkpoint`; time labels must survive a
JSON round-trip.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

import numpy as np

from ..exceptions import CheckpointError
from ..graphs.dynamic import DynamicGraph
from ..resilience.checkpoint import read_npz_document, write_npz_document
from .worker import PAYLOAD_ARRAYS

#: Document format marker for forwards compatibility.
FORMAT = "repro-parallel-checkpoint"
VERSION = 1


def sequence_fingerprint(graph: DynamicGraph) -> str:
    """Hex fingerprint of a dynamic graph's full content.

    Stable across processes, platforms, and CSR index dtypes (each
    snapshot digest canonicalises those), so a checkpoint written on
    one machine resumes on another.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.int64(len(graph)).tobytes())
    for snapshot in graph:
        digest.update(snapshot.content_digest())
    return digest.hexdigest()


def write_parallel_checkpoint(path: str | Path,
                              fingerprint: str,
                              payloads: dict[int, dict[str, np.ndarray]],
                              worker_health: dict[str, dict[str, Any]],
                              ) -> None:
    """Write completed-transition payloads as one ``.npz`` archive.

    Args:
        path: destination file (conventionally ``*.npz``).
        fingerprint: :func:`sequence_fingerprint` of the input graph.
        payloads: merged payload per completed transition index.
        worker_health: cumulative health state per worker id.

    Raises:
        CheckpointError: when health states carry time labels JSON
            cannot represent.
    """
    arrays: dict[str, np.ndarray] = {}
    for transition in sorted(payloads):
        for name in PAYLOAD_ARRAYS:
            arrays[f"transition_{transition}_{name}"] = np.asarray(
                payloads[transition][name]
            )
    meta = {
        "format": FORMAT,
        "version": VERSION,
        "fingerprint": fingerprint,
        "transitions": sorted(int(t) for t in payloads),
        "worker_health": worker_health,
    }
    write_npz_document(path, meta, arrays, "parallel checkpoint")


def read_parallel_checkpoint(path: str | Path,
                             fingerprint: str | None = None,
                             ) -> tuple[dict[int, dict[str, np.ndarray]],
                                        dict[str, dict[str, Any]]]:
    """Read a checkpoint written by :func:`write_parallel_checkpoint`.

    Args:
        path: checkpoint file.
        fingerprint: when given, the expected
            :func:`sequence_fingerprint` of the resuming input.

    Returns:
        ``(payloads, worker_health)`` ready to seed a resumed run.

    Raises:
        CheckpointError: on a missing, corrupt, foreign, wrong-version,
            or wrong-fingerprint document.
    """
    def load(meta: Any, archive) -> tuple[dict, dict]:
        if not isinstance(meta, dict) or meta.get("format") != FORMAT:
            raise CheckpointError(f"{path}: not a {FORMAT} document")
        if meta.get("version") != VERSION:
            raise CheckpointError(
                f"unsupported parallel checkpoint version "
                f"{meta.get('version')!r} (expected {VERSION})"
            )
        if fingerprint is not None and meta["fingerprint"] != fingerprint:
            raise CheckpointError(
                f"{path} was written for a different input sequence "
                f"(fingerprint {meta['fingerprint']}, expected "
                f"{fingerprint})"
            )
        payloads = {
            int(transition): {
                name: archive[f"transition_{transition}_{name}"]
                for name in PAYLOAD_ARRAYS
            }
            for transition in meta["transitions"]
        }
        worker_health = {
            str(worker): state
            for worker, state in meta["worker_health"].items()
        }
        return payloads, worker_health

    return read_npz_document(path, FORMAT, load, "parallel checkpoint")
