"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer listed in
:data:`TRACE_POINTS`. A function is replaced in every ``repro`` module
that holds a reference to it, so callers that imported the name see
the wrapper; a method is replaced on its class. Nothing inside
``src/`` changes.

Each wrapped call becomes one span ``(name, pid, start, end, self)``
kept in memory and written out by :func:`dump` when the process ends.
*busy* is the wall time inside the call; *self* is busy minus the time
spent in wrapped calls nested inside it on the same thread. A call
into a layer already open on the thread (``report_to_dict`` calling
``transition_to_entry``) is not a new span.

``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so spans from
the server and worker subprocesses share one time base with the
benchmark's own request windows.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

#: ``(module, attribute path, span name, kind)``. ``kind`` is
#: ``"span"`` (timed), ``"count"`` (calls counted only, for hot
#: inner functions), ``"useful"`` (timed; records whether the call
#: returned a backend) or ``"bytes"`` (timed; records payload size).
TRACE_POINTS = (
    ("repro.linalg.pseudoinverse", "laplacian_pseudoinverse",
     "linalg.pinv", "span"),
    ("repro.linalg.embedding", "CommuteTimeEmbedding.__init__",
     "linalg.embedding", "span"),
    ("repro.linalg.factorcache", "updated_pseudoinverse",
     "linalg.delta_update", "useful"),
    ("repro.linalg.pseudoinverse", "commute_times_for_pairs",
     "linalg.pairs", "span"),
    ("repro.linalg.embedding", "CommuteTimeEmbedding.commute_times",
     "linalg.pairs", "span"),
    ("repro.core.thresholds", "select_global_threshold",
     "core.threshold", "span"),
    ("repro.core.thresholds", "minimal_edge_set",
     "core.threshold.edge_set", "count"),
    ("repro.core.scores", "cad_edge_scores", "core.scores", "span"),
    ("repro.core.commute", "CommuteTimeCalculator.pairwise",
     "core.commute", "span"),
    ("repro.core.streaming", "StreamingCadDetector.push",
     "core.stream.push", "span"),
    ("repro.graphs.snapshot", "GraphSnapshot.content_digest",
     "graphs.digest", "span"),
    ("repro.pipeline.serialize", "snapshot_from_payload",
     "pipeline.parse", "span"),
    ("repro.pipeline.serialize", "report_to_dict",
     "pipeline.render", "span"),
    ("repro.pipeline.serialize", "transition_to_entry",
     "pipeline.render", "span"),
    ("repro.service.sessions", "SessionManager.push",
     "service.push", "span"),
    ("repro.service.sessions", "SessionManager.report",
     "service.report", "span"),
    ("repro.service.wal", "SessionWal.append_snapshots",
     "service.wal", "span"),
    ("repro.store.local", "LocalDirStore.append", "store.append", "span"),
    ("repro.store.local", "LocalDirStore.put", "store.put", "bytes"),
    ("repro.parallel.worker", "score_transition_chunk",
     "parallel.shard", "span"),
    ("repro.parallel.merge", "assemble_transition_scores",
     "parallel.merge", "span"),
    ("repro.parallel.merge", "merge_worker_health",
     "parallel.merge", "span"),
    ("repro.cluster.protocol", "encode_payload",
     "cluster.codec.encode", "span"),
    ("repro.cluster.protocol", "decode_payload",
     "cluster.codec.decode", "span"),
)

#: Finished spans: ``[name, pid, start, end, self_s, depth, extra]``.
SPANS: list = []
#: Call counts of ``"count"`` trace points.
COUNTS: dict = {}
_local = threading.local()
_lock = threading.Lock()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _extra(kind: str, args: tuple, kwargs: dict, result) -> dict | None:
    if kind == "useful":
        return {"useful": result is not None and result[0] is not None}
    if kind == "bytes":
        data = args[2] if len(args) > 2 else kwargs.get("data", b"")
        return {"bytes": len(data)}
    return None


def wrap(function, name: str, kind: str = "span"):
    """A recording wrapper around ``function`` (see module doc)."""
    if kind == "count":
        @functools.wraps(function)
        def counted(*args, **kwargs):
            with _lock:
                COUNTS[name] = COUNTS.get(name, 0) + 1
            return function(*args, **kwargs)
        counted.__wrapped_by_perfbench__ = True
        return counted

    pid = os.getpid()

    @functools.wraps(function)
    def spanned(*args, **kwargs):
        stack = _stack()
        if name in (frame[0] for frame in stack):
            return function(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        started = time.perf_counter()
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            ended = time.perf_counter()
            stack.pop()
            busy = ended - started
            if stack:
                stack[-1][1] += busy
            record = [name, pid, started, ended, busy - frame[1],
                      len(stack), _extra(kind, args, kwargs, result)]
            with _lock:
                SPANS.append(record)
    spanned.__wrapped_by_perfbench__ = True
    return spanned


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install() -> int:
    """Wrap every trace point; returns the number of names patched."""
    patched = 0
    for module_name, path, name, kind in TRACE_POINTS:
        owner, attribute = _resolve(module_name, path)
        original = owner.__dict__[attribute]
        if getattr(original, "__wrapped_by_perfbench__", False):
            continue
        wrapper = wrap(original, name, kind)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapper)
            patched += 1
            continue
        # A module-level function: rebind it wherever it was imported.
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and \
                    not module_name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    patched += 1
    return patched


def clear() -> None:
    with _lock:
        SPANS.clear()
        COUNTS.clear()


def dump(path: str) -> None:
    """Write this process's spans and counts as JSON."""
    with _lock:
        document = {"pid": os.getpid(), "spans": list(SPANS),
                    "counts": dict(COUNTS)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def load(path: str) -> tuple[list, dict]:
    """Spans and counts written by :func:`dump` (empty when the file
    was never written)."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return [], {}
    return document["spans"], document["counts"]


def layer_table(spans) -> dict:
    """``{span name: {"count", "busy_s", "self_s"}}``."""
    table: dict = {}
    for name, _pid, start, end, self_s, _depth, _extra in spans:
        row = table.setdefault(name, {"count": 0, "busy_s": 0.0,
                                      "self_s": 0.0})
        row["count"] += 1
        row["busy_s"] += end - start
        row["self_s"] += self_s
    return table


def _union(intervals) -> list:
    merged: list = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def unattributed_share(windows, spans) -> float:
    """Share of the union of request ``windows`` during which no
    top-level span of any process was open."""
    request = _union(windows)
    total = sum(end - start for start, end in request)
    if total <= 0:
        return 0.0
    covered_spans = _union((span[2], span[3]) for span in spans
                           if span[5] == 0)
    covered = 0.0
    index = 0
    for start, end in request:
        while index < len(covered_spans) and \
                covered_spans[index][1] <= start:
            index += 1
        probe = index
        while probe < len(covered_spans) and \
                covered_spans[probe][0] < end:
            low = max(start, covered_spans[probe][0])
            high = min(end, covered_spans[probe][1])
            covered += max(0.0, high - low)
            probe += 1
    return max(0.0, 1.0 - covered / total)
