"""Self-tests of the benchmark harness (not of the program).

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from inputs import PLANTED_WEIGHT, generate_sequence  # noqa: E402
from measure import (  # noqa: E402
    OpLog,
    has_tail,
    percentile,
    samples_beyond,
)


# -- tail rule ---------------------------------------------------------------

@pytest.mark.parametrize("count, q, expected", [
    (1, 90, False), (99, 90, False), (100, 90, True),
    (999, 99, False), (1000, 99, True), (19, 50, False), (20, 50, True),
])
def test_tail_needs_ten_samples_beyond(count, q, expected):
    assert has_tail(count, q) == expected
    assert (samples_beyond(count, q) >= 10) == expected


def _pass_of(latencies) -> workloads.Pass:
    run = workloads.Pass()
    for seconds in latencies:
        run.ops.ok(seconds)
    run.sequence_done(sum(latencies), len(latencies))
    run.recall = [1.0]
    run.rss_mb = 100.0
    run.checks.append(lambda: None)
    return run


def test_run_too_short_for_its_tail_fails():
    latencies = [0.001 * (i + 1) for i in range(100)]
    short = workloads.e2e_outcome([1.0], _pass_of(latencies[:99]), [],
                                  tail_q=90)
    enough = workloads.e2e_outcome([1.0], _pass_of(latencies), [],
                                   tail_q=90)
    assert not short.correct and short.metrics == {}
    assert enough.correct
    assert enough.metrics["request_tail_ms"][0] == pytest.approx(90.0)
    median_only = workloads.e2e_outcome([1.0], _pass_of(latencies[:9]),
                                        [], tail_q=None)
    assert median_only.metrics["request_tail_ms"][0] == pytest.approx(5.0)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert samples_beyond(100, 90) == sum(v > 90 for v in values)


# -- generators --------------------------------------------------------------

def _same(a, b) -> bool:
    return all(np.array_equal(x.indptr, y.indptr)
               and np.array_equal(x.indices, y.indices)
               and np.array_equal(x.data, y.data)
               for x, y in zip(a.matrices, b.matrices))


@pytest.mark.parametrize("options", [
    {"drift": 0.05}, {"edits": 8}, {"drift": 0.05, "edits": 3},
])
def test_generator_is_seed_deterministic(options):
    first = generate_sequence(7, 120, 6, **options)
    again = generate_sequence(7, 120, 6, **options)
    other = generate_sequence(8, 120, 6, **options)
    assert _same(first, again)
    assert first.planted_nodes == again.planted_nodes
    assert not _same(first, other)


def test_generator_plants_a_connected_anomaly():
    sequence = generate_sequence(3, 200, 8, edits=8)
    step = sequence.planted_transition
    ring = list(sequence.planted_nodes) + [sequence.planted_nodes[0]]
    before = sequence.matrices[step]
    after = sequence.matrices[step + 1]
    for u, v in zip(ring, ring[1:]):
        assert after[u, v] == PLANTED_WEIGHT
        assert before[u, v] != PLANTED_WEIGHT
    for matrix in sequence.matrices:
        assert connected_components(matrix, directed=False)[0] == 1
        assert (matrix != matrix.T).nnz == 0


def test_workload_inputs_follow_the_seed():
    assert _same(workloads.serve_sequence(5, 0),
                 workloads.serve_sequence(5, 0))
    assert not _same(workloads.serve_sequence(5, 0),
                     workloads.serve_sequence(6, 0))
    assert workloads.sub_seed(5, 1) == workloads.sub_seed(5, 1)
    assert workloads.sub_seed(5, 1) != workloads.sub_seed(5, 2)


# -- failed-op accounting ----------------------------------------------------

def test_exception_counts_as_failed_without_latency():
    log = OpLog()
    log.timed(lambda: None)

    def broken():
        raise RuntimeError("boom")

    ok, error = log.timed(broken)
    assert not ok and isinstance(error, RuntimeError)
    assert (log.attempted, log.failed, len(log.latencies)) == (2, 1, 1)


class _Refusing(BaseHTTPRequestHandler):
    """Answers 200 on ``/ok``, 429 + Retry-After elsewhere."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        status = 200 if self.path == "/ok" else 429
        body = json.dumps({"status": status}).encode()
        self.send_response(status)
        if status == 429:
            self.send_header("Retry-After", "0.1")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def refusing_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Refusing)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()


def test_refused_request_counts_as_failed_without_latency(refusing_server):
    client = workloads.Client(refusing_server)
    log = OpLog()
    windows: list = []
    document, _ = client.call(log, "POST", "/ok", {"x": 1}, windows)
    assert document == {"status": 200}
    document, retry_after = client.call(log, "POST", "/busy", {"x": 1},
                                        windows)
    client.close()
    assert document is None and retry_after == "0.1"
    assert (log.attempted, log.failed) == (2, 1)
    assert len(log.latencies) == 1 and len(windows) == 1


def test_run_with_no_output_checked_fails():
    run = _pass_of([0.1] * 5)
    run.checks.clear()
    assert not workloads.e2e_outcome([1.0], run, [], tail_q=None).correct


def test_check_follows_the_first_completed_unit(monkeypatch, tmp_path):
    import repro

    original = repro.CadDetector.detect
    calls = []

    def first_call_fails(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("first detect fails")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(workloads, "OFFLINE_NODES", 60)
    monkeypatch.setattr(repro.CadDetector, "detect", first_call_fails)
    ctx = workloads.Context(seed=3, seconds=0, trace=False, out=tmp_path)
    run = workloads.offline_pass(ctx, 2)
    assert (run.ops.attempted, run.ops.failed) == (2, 1)
    assert len(run.checks) == 2
    run.run_checks()
    assert run.problems == []


def test_untraced_run_fills_its_seconds_traced_run_counts(tmp_path):
    calls = []

    def unit(index):
        calls.append(index)
        time.sleep(0.01)

    ctx = workloads.Context(seed=0, seconds=0.2, trace=False, out=tmp_path)
    workloads.run_units(ctx, unit, 2)
    assert 5 <= len(calls) <= 20 and calls == list(range(len(calls)))
    for seconds, trace in ((0.0, False), (0.2, True)):
        calls.clear()
        workloads.run_units(workloads.Context(seed=0, seconds=seconds,
                                              trace=trace, out=tmp_path),
                            unit, 2)
        assert calls == [0, 1]


def test_refused_connection_counts_as_failed():
    client = workloads.Client(1)  # nothing listens on port 1
    log = OpLog()
    document, _ = client.call(log, "POST", "/ok", {})
    assert document is None
    assert (log.attempted, log.failed, log.latencies) == (1, 1, [])


# -- tracing -----------------------------------------------------------------

def test_self_time_excludes_nested_spans():
    tracing.clear()

    def inner():
        time.sleep(0.02)

    traced_inner = tracing.wrap(inner, "t.inner")

    def outer():
        traced_inner()
        time.sleep(0.01)
        traced_inner()

    tracing.wrap(outer, "t.outer")()
    table = tracing.layer_table(tracing.SPANS)
    assert table["t.inner"]["count"] == 2
    assert table["t.outer"]["busy_s"] >= table["t.inner"]["busy_s"]
    assert table["t.outer"]["self_s"] == pytest.approx(
        table["t.outer"]["busy_s"] - table["t.inner"]["busy_s"])
    windows = [(span[2], span[3]) for span in tracing.SPANS
               if span[0] == "t.outer"]
    assert tracing.unattributed_share(windows, tracing.SPANS) == \
        pytest.approx(0.0, abs=1e-9)
    tracing.clear()


def test_reentry_into_a_layer_is_one_span():
    tracing.clear()

    def render(depth):
        return render_traced(depth - 1) if depth else 0

    render_traced = tracing.wrap(render, "t.render")
    render_traced(3)
    assert tracing.layer_table(tracing.SPANS)["t.render"]["count"] == 1
    tracing.clear()


def test_unattributed_share_counts_uncovered_time():
    spans = [["a", 0, 1.0, 2.0, 1.0, 0, None],
             ["b", 0, 1.5, 3.0, 1.5, 0, None],
             ["c", 0, 1.2, 1.4, 0.2, 1, None]]
    assert tracing.unattributed_share([(0.0, 4.0)], spans) == \
        pytest.approx(0.5)


def test_parse_prometheus_sums_labels_and_keys_spans():
    text = "\n".join([
        "repro_cg_iterations_total 5",
        'repro_commute_backend_builds_total{method="exact"} 2',
        'repro_commute_backend_builds_total{method="approx"} 3',
        'repro_span_count{span="service.wal_compact"} 4',
        "# comment",
    ])
    totals = layers.parse_prometheus(text)
    assert totals["cg_iterations_total"] == 5
    assert totals["commute_backend_builds_total"] == 5
    assert totals["span_count[service.wal_compact]"] == 4


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
