"""Per-layer metrics of a traced run.

Combines three sources: the spans recorded by :mod:`tracing` (in the
benchmark process and in every traced subprocess), the counters the
program already exports (``/metrics`` of a server, or the in-process
``MetricsRegistry``) and the client-side request timings.
"""

from __future__ import annotations

import re

from measure import median
from tracing import layer_table, unattributed_share

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("linalg.pinv.calls", "count"),
    ("linalg.pinv.busy_s", "s"),
    ("linalg.embedding.calls", "count"),
    ("linalg.embedding.busy_s", "s"),
    ("linalg.cg.iterations", "count"),
    ("linalg.delta_update.calls", "count"),
    ("linalg.delta_update.busy_s", "s"),
    ("linalg.delta_update.useful_ratio", "ratio"),
    ("linalg.factor_cache.hit_ratio", "ratio"),
    ("linalg.pairs.busy_s", "s"),
    ("core.threshold.calls", "count"),
    ("core.threshold.busy_s", "s"),
    ("core.threshold.edge_set_evals", "count"),
    ("core.scores.self_s", "s"),
    ("core.commute.self_s", "s"),
    ("core.stream.push.self_s", "s"),
    ("graphs.digest.calls", "count"),
    ("graphs.digest.busy_s", "s"),
    ("pipeline.parse.busy_s", "s"),
    ("pipeline.render.busy_s", "s"),
    ("service.push.self_s", "s"),
    ("service.http.overhead_ms", "ms"),
    ("service.wal.appends", "count"),
    ("service.wal.busy_s", "s"),
    ("service.wal.compactions", "count"),
    ("service.wal.compact_busy_s", "s"),
    ("service.report.busy_s", "s"),
    ("service.report.client_p50_ms", "ms"),
    ("service.rejections", "count"),
    ("store.append.busy_s", "s"),
    ("store.put.busy_s", "s"),
    ("store.put.bytes", "bytes"),
    ("parallel.shards", "count"),
    ("parallel.shard_retries", "count"),
    ("parallel.shard.max_s", "s"),
    ("parallel.shard.p50_s", "s"),
    ("parallel.merge.busy_s", "s"),
    ("cluster.codec.encode_s", "s"),
    ("cluster.codec.decode_s", "s"),
    ("cluster.bytes_sent", "bytes"),
    ("cluster.round_trips", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
)

_LINE = re.compile(r'^repro_([A-Za-z0-9_]+)(\{[^}]*\})?\s+(\S+)$')
_SPAN_LABEL = re.compile(r'span="([^"]*)"')


def parse_prometheus(text: str) -> dict:
    """Counter totals by name, summed over label sets. Span aggregates
    are keyed ``span_count[<span>]`` / ``span_wall_seconds_total[...]``."""
    totals: dict = {}
    for line in text.splitlines():
        match = _LINE.match(line.strip())
        if not match:
            continue
        name, labels, value = match.groups()
        if name.startswith("span_") and labels:
            span = _SPAN_LABEL.search(labels)
            if span:
                name = f"{name}[{span.group(1)}]"
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def registry_counters(registry) -> dict:
    """:func:`parse_prometheus` over an in-process registry."""
    from repro.observability import (
        build_metrics_document,
        render_prometheus,
    )

    return parse_prometheus(render_prometheus(
        build_metrics_document(registry)
    ))


def layer_metrics(spans, counts: dict, counters: dict, *,
                  windows, untraced_p50_s: float, traced_p50_s: float,
                  http_push_s=(), http_report_s=()) -> dict:
    """Every :data:`PER_LAYER` metric as ``{name: (value, unit)}``.

    Args:
        spans / counts: merged :mod:`tracing` output of all processes.
        counters: program counters (:func:`parse_prometheus` form).
        windows: ``(start, end)`` of each traced request.
        untraced_p50_s / traced_p50_s: median request latency of the
            untraced and the traced pass over the same inputs.
        http_push_s / http_report_s: client-side HTTP latencies.
    """
    table = layer_table(spans)

    def row(name: str) -> dict:
        return table.get(name, {"count": 0, "busy_s": 0.0, "self_s": 0.0})

    def durations(name: str) -> list:
        return [span[3] - span[2] for span in spans if span[0] == name]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    delta = [span for span in spans if span[0] == "linalg.delta_update"]
    useful = sum(1 for span in delta if span[6] and span[6]["useful"])
    hits = counters.get("factor_cache_hits_total", 0.0)
    misses = counters.get("factor_cache_misses_total", 0.0)
    put_bytes = sum(span[6]["bytes"] for span in spans
                    if span[0] == "store.put" and span[6])
    shards = durations("parallel.shard")
    server_push = durations("service.push")
    overhead_ms = 0.0
    if http_push_s and server_push:
        overhead_ms = (median(http_push_s) - median(server_push)) * 1e3

    values = {
        "linalg.pinv.calls": row("linalg.pinv")["count"],
        "linalg.pinv.busy_s": row("linalg.pinv")["busy_s"],
        "linalg.embedding.calls": row("linalg.embedding")["count"],
        "linalg.embedding.busy_s": row("linalg.embedding")["busy_s"],
        "linalg.cg.iterations": counters.get("cg_iterations_total", 0.0),
        "linalg.delta_update.calls": len(delta),
        "linalg.delta_update.busy_s": row("linalg.delta_update")["busy_s"],
        "linalg.delta_update.useful_ratio": ratio(useful, len(delta)),
        "linalg.factor_cache.hit_ratio": ratio(hits, hits + misses),
        "linalg.pairs.busy_s": row("linalg.pairs")["busy_s"],
        "core.threshold.calls": row("core.threshold")["count"],
        "core.threshold.busy_s": row("core.threshold")["busy_s"],
        "core.threshold.edge_set_evals":
            counts.get("core.threshold.edge_set", 0),
        "core.scores.self_s": row("core.scores")["self_s"],
        "core.commute.self_s": row("core.commute")["self_s"],
        "core.stream.push.self_s": row("core.stream.push")["self_s"],
        "graphs.digest.calls": row("graphs.digest")["count"],
        "graphs.digest.busy_s": row("graphs.digest")["busy_s"],
        "pipeline.parse.busy_s": row("pipeline.parse")["busy_s"],
        "pipeline.render.busy_s": row("pipeline.render")["busy_s"],
        "service.push.self_s": row("service.push")["self_s"],
        "service.http.overhead_ms": overhead_ms,
        "service.wal.appends": row("service.wal")["count"],
        "service.wal.busy_s": row("service.wal")["busy_s"],
        "service.wal.compactions":
            counters.get("span_count[service.wal_compact]", 0.0),
        "service.wal.compact_busy_s":
            counters.get("span_wall_seconds_total[service.wal_compact]",
                         0.0),
        "service.report.busy_s": row("service.report")["busy_s"],
        "service.report.client_p50_ms":
            median(http_report_s) * 1e3 if http_report_s else 0.0,
        "service.rejections": counters.get("service_rejections_total", 0.0),
        "store.append.busy_s": row("store.append")["busy_s"],
        "store.put.busy_s": row("store.put")["busy_s"],
        "store.put.bytes": put_bytes,
        "parallel.shards": len(shards),
        "parallel.shard_retries":
            counters.get("parallel_shard_retries_total", 0.0),
        "parallel.shard.max_s": max(shards) if shards else 0.0,
        "parallel.shard.p50_s": median(shards) if shards else 0.0,
        "parallel.merge.busy_s": row("parallel.merge")["busy_s"],
        "cluster.codec.encode_s": row("cluster.codec.encode")["busy_s"],
        "cluster.codec.decode_s": row("cluster.codec.decode")["busy_s"],
        "cluster.bytes_sent": counters.get("cluster_bytes_sent_total", 0.0),
        "cluster.round_trips": counters.get("cluster_round_trips_total", 0.0),
        "trace.overhead_pct":
            (traced_p50_s / untraced_p50_s - 1.0) * 100.0,
        "trace.unattributed_pct":
            unattributed_share(windows, spans) * 100.0,
    }
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER}
