"""The four workloads and their output checks.

Each workload runs *units* of work (one detect, one streaming session,
one HTTP session) back to back for ``--seconds``, each on a fresh input
drawn from the seed, and reports medians over the units. A traced run
instead runs a fixed number of units twice over the same inputs,
untraced then traced, so that layer counts are comparable between
commits and the tracing overhead is measured.
"""

from __future__ import annotations

import functools
import http.client
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import procs
import tracing
from inputs import generate_sequence
from layers import layer_metrics, parse_prometheus, registry_counters
from measure import (
    MIN_BEYOND,
    OpLog,
    has_tail,
    median,
    percentile,
    self_peak_rss_mb,
)

#: CAD's per-transition anomaly budget ``l`` in every workload.
ANOMALIES = 6
#: Online δ warm-up (transitions) for the streaming workloads.
WARMUP = 3
#: Times each set-up is repeated; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Edges re-weighted, added or removed per step in the edit workloads.
EDITS_PER_STEP = 8

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("detect_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("snapshots_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ops_ok_ratio", "ratio"),
    ("planted_node_recall", "ratio"),
)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    out: Path


@dataclass
class Pass:
    """What one measurement pass observed."""

    ops: OpLog = field(default_factory=OpLog)        # unit requests
    side_ops: OpLog = field(default_factory=OpLog)   # create, finalize...
    reports: OpLog = field(default_factory=OpLog)    # HTTP report reads
    sequence_s: list = field(default_factory=list)   # per whole sequence
    rates: list = field(default_factory=list)        # its snapshots/s
    recall: list = field(default_factory=list)
    rss_mb: float = 0.0
    windows: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    checks: list = field(default_factory=list)      # deferred checks

    def run_checks(self) -> None:
        """Run the output checks, once, outside any timed or traced
        part. A pass that queued none (no unit completed) fails too."""
        if not self.checks:
            self.problems.append("no unit completed: no output checked")
        for check in self.checks:
            problem = check()
            if problem:
                self.problems.append(problem)

    def sequence_done(self, seconds: float, snapshots: int) -> None:
        self.sequence_s.append(seconds)
        self.rates.append(snapshots / seconds)

    @property
    def attempted(self) -> int:
        return (self.ops.attempted + self.side_ops.attempted
                + self.reports.attempted)

    @property
    def failed(self) -> int:
        return self.ops.failed + self.side_ops.failed + self.reports.failed


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    notes: list


def sub_seed(seed: int, index: int) -> int:
    """A per-unit seed derived from the run seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def recall_of(nodes, planted) -> float:
    return len(set(nodes) & set(planted)) / len(planted)


def run_units(ctx: Context, unit, count: int) -> None:
    """Call ``unit(0)``, ``unit(1)``, ... back to back. A traced run
    makes exactly ``count`` calls. An untraced run makes at least
    ``count`` and goes on until the next call, taking the median time
    of those so far, would end after ``--seconds``. The host's speed
    drifts over seconds, so many units spread over the whole run give
    steadier medians than a few long ones."""
    if ctx.trace:
        for index in range(count):
            unit(index)
        return
    began = time.perf_counter()
    took = []
    while True:
        started = time.perf_counter()
        unit(len(took))
        took.append(time.perf_counter() - started)
        now = time.perf_counter()
        if len(took) >= count and now - began + median(took) > ctx.seconds:
            return


def cold_import_s() -> float:
    """Wall time of a fresh interpreter importing ``repro``."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro"],
                   env=procs.child_env(), check=True, timeout=60)
    return time.perf_counter() - started


# -- result assembly ---------------------------------------------------------

def e2e_outcome(setup: list, run: Pass, notes: list,
                tail_q: int | None) -> Outcome:
    """The end-to-end metrics of ``run``. ``request_tail_ms`` is the
    ``tail_q`` percentile of the requests, or their median when
    ``tail_q`` is ``None`` (a workload of too few requests for a tail);
    a run too short for its tail fails."""
    run.run_checks()
    latencies = run.ops.latencies
    notes = list(notes)
    errors = run.ops.errors + run.side_ops.errors + run.reports.errors
    if errors:
        notes.append(f"errors: {errors}")
    if not latencies or not run.sequence_s:
        return Outcome(False, max(run.attempted, 1), run.failed, {},
                       notes + run.problems + ["no request completed"])
    if tail_q is not None and not has_tail(len(latencies), tail_q):
        return Outcome(False, run.attempted, run.failed, {},
                       notes + run.problems + [
                           f"{len(latencies)} requests support no "
                           f"p{tail_q} tail ({MIN_BEYOND} must lie "
                           "beyond it)"])
    if tail_q is None:
        tail = median(latencies)
    else:
        tail = percentile(latencies, tail_q)
    notes.append(
        f"requests={len(latencies)} sequences={len(run.sequence_s)} "
        + (f"tail=p{tail_q}" if tail_q else "tail=median (no tail)")
        + f" busy_s={sum(run.sequence_s):.2f} setup_samples="
        + ",".join(f"{value:.3f}" for value in setup)
    )
    values = {
        "setup_s": median(setup),
        "detect_s": median(run.sequence_s),
        "request_p50_ms": median(latencies) * 1e3,
        "request_tail_ms": tail * 1e3,
        "snapshots_per_s": median(run.rates),
        "peak_rss_mb": run.rss_mb,
        "ops_ok_ratio": 1.0 - run.failed / run.attempted,
        "planted_node_recall": sum(run.recall) / len(run.recall),
    }
    metrics = {name: (float(values[name]), unit)
               for name, unit in END_TO_END}
    return Outcome(not run.problems, run.attempted, run.failed, metrics,
                   notes + run.problems)


def traced_outcome(plain: Pass, traced: Pass, notes: list,
                   http_push_s=(), http_report_s=()) -> Outcome:
    plain.run_checks()
    traced.run_checks()
    problems = plain.problems + traced.problems
    if not plain.ops.latencies or not traced.ops.latencies:
        return Outcome(False, max(plain.attempted + traced.attempted, 1),
                       plain.failed + traced.failed, {},
                       notes + problems + ["no request completed"])
    spans = traced.spans
    metrics = layer_metrics(
        spans, traced.counts, traced.counters, windows=traced.windows,
        untraced_p50_s=median(plain.ops.latencies),
        traced_p50_s=median(traced.ops.latencies),
        http_push_s=http_push_s, http_report_s=http_report_s,
    )
    notes = list(notes)
    for name, row in sorted(tracing.layer_table(spans).items()):
        notes.append(f"layer {name:24s} count={row['count']:6d} "
                     f"busy_s={row['busy_s']:9.4f} "
                     f"self_s={row['self_s']:9.4f}")
    for name, value in sorted(traced.counts.items()):
        notes.append(f"layer {name:24s} count={value:6d}")
    return Outcome(not problems, plain.attempted + traced.attempted,
                   plain.failed + traced.failed, metrics, notes + problems)


class InProcessTrace:
    """Wrappers plus a program registry around an in-process pass."""

    def __enter__(self):
        from repro.observability import MetricsRegistry, enable

        tracing.install()
        tracing.clear()
        self.registry = MetricsRegistry()
        enable(self.registry)
        return self

    def __exit__(self, *exc_info):
        from repro.observability import disable

        disable()

    def collect(self, run: Pass) -> None:
        run.spans = list(tracing.SPANS)
        run.counts = dict(tracing.COUNTS)
        run.counters = registry_counters(self.registry)


# -- offline-exact -----------------------------------------------------------

OFFLINE_NODES = 500
OFFLINE_STEPS = 6
OFFLINE_TRACE_UNITS = 3


def offline_sequence(seed: int, index: int):
    return generate_sequence(sub_seed(seed, index), OFFLINE_NODES,
                             OFFLINE_STEPS, mean_degree=6.0, drift=0.05)


def check_exact_commute(matrix: sp.csr_matrix, seed: int) -> str | None:
    """The program's exact commute times on sampled pairs against an
    independent sparse solve of the grounded Laplacian."""
    from repro.core import CommuteTimeCalculator
    from repro.graphs import GraphSnapshot

    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, 32)
    cols = (rows + rng.integers(1, n, 32)) % n
    ours = CommuteTimeCalculator(method="exact").pairwise(
        GraphSnapshot(matrix), rows, cols
    )
    degree = np.asarray(matrix.sum(axis=1)).ravel()
    laplacian = (sp.diags(degree) - matrix).tocsc()
    grounded = spla.splu(laplacian[1:, 1:].tocsc())
    rhs = np.zeros((n, rows.size))
    rhs[rows, np.arange(rows.size)] += 1.0
    rhs[cols, np.arange(rows.size)] -= 1.0
    potentials = np.vstack([np.zeros(rows.size),
                            grounded.solve(rhs[1:])])
    reference = degree.sum() * (
        potentials[rows, np.arange(rows.size)]
        - potentials[cols, np.arange(rows.size)]
    )
    error = float(np.max(np.abs(ours - reference) / np.abs(reference)))
    if error > 1e-8:
        return f"exact commute times deviate by {error:.3g} (> 1e-8)"
    return None


def offline_pass(ctx: Context, count: int) -> Pass:
    import repro

    run = Pass()

    def unit(index: int) -> None:
        sequence = offline_sequence(ctx.seed, index)
        graph = sequence.graph()
        detector = repro.CadDetector(method="exact")
        started = time.perf_counter()
        ok, report = run.ops.timed(detector.detect, graph,
                                   anomalies_per_transition=ANOMALIES)
        run.windows.append((started, time.perf_counter()))
        if not ok:
            return
        run.sequence_done(run.ops.latencies[-1], len(sequence.matrices))
        planted = report.transitions[sequence.planted_transition]
        run.recall.append(recall_of(planted.anomalous_nodes,
                                    sequence.planted_nodes))
        if not run.checks:  # the first unit that completed
            for step in (0, len(sequence.matrices) - 1):
                run.checks.append(functools.partial(
                    check_exact_commute, sequence.matrices[step],
                    ctx.seed + step))

    run_units(ctx, unit, count)
    run.rss_mb = self_peak_rss_mb()
    return run


def offline_setup(ctx: Context) -> list:
    samples = []
    for repeat in range(SETUP_REPEATS):
        cold = cold_import_s()
        sequence = offline_sequence(ctx.seed, 10_000 + repeat)
        started = time.perf_counter()
        sequence.graph()
        samples.append(cold + time.perf_counter() - started)
    return samples


def offline_exact(ctx: Context) -> Outcome:
    notes = [f"n={OFFLINE_NODES} snapshots={OFFLINE_STEPS} method=exact "
             "drift=5% request=detect()"]
    if ctx.trace:
        plain = offline_pass(ctx, OFFLINE_TRACE_UNITS)
        with InProcessTrace() as trace:
            traced = offline_pass(ctx, OFFLINE_TRACE_UNITS)
            trace.collect(traced)
        return traced_outcome(plain, traced, notes)
    setup = offline_setup(ctx)
    run = offline_pass(ctx, 1)
    return e2e_outcome(setup, run, notes, tail_q=None)


# -- stream-approx -----------------------------------------------------------

STREAM_NODES = 1500
STREAM_STEPS = 50
STREAM_TRACE_UNITS = 1
#: Sessions an untraced run needs for a p90 push tail (100 pushes).
STREAM_MIN_UNITS = 2


def stream_sequence(seed: int, index: int):
    return generate_sequence(sub_seed(seed, index), STREAM_NODES,
                             STREAM_STEPS, mean_degree=6.0,
                             edits=EDITS_PER_STEP)


def stream_detector(seed: int):
    import repro

    return repro.StreamingCadDetector(
        anomalies_per_transition=ANOMALIES, warmup=WARMUP,
        method="approx", seed=seed, seed_mode="content",
        factor_cache="private",
    )


def check_stream_vs_offline(graph, report, seed: int) -> str | None:
    """Streaming ``finalize()`` against offline ``detect()``."""
    import repro

    offline = repro.CadDetector(method="approx", seed=seed,
                                seed_mode="content").detect(
        graph, anomalies_per_transition=ANOMALIES)
    for ours, theirs in zip(report.transitions, offline.transitions):
        if sorted(ours.anomalous_nodes) != sorted(theirs.anomalous_nodes):
            return f"transition {ours.index}: anomalous nodes differ"
        if not np.allclose(ours.scores.node_scores,
                           theirs.scores.node_scores,
                           rtol=1e-6, atol=1e-9):
            return f"transition {ours.index}: node scores differ"
    if len(report.transitions) != len(offline.transitions):
        return "transition counts differ"
    return None


def stream_pass(ctx: Context, count: int) -> Pass:
    run = Pass()

    def unit(index: int) -> None:
        sequence = stream_sequence(ctx.seed, index)
        snapshots = sequence.snapshots()
        detector = stream_detector(ctx.seed)
        started = time.perf_counter()
        for snapshot in snapshots:
            begin = time.perf_counter()
            ok, _ = run.ops.timed(detector.push, snapshot)
            run.windows.append((begin, time.perf_counter()))
            if not ok:
                return
        ok, report = run.side_ops.timed(detector.finalize)
        if not ok:
            return
        run.sequence_done(time.perf_counter() - started, len(snapshots))
        planted = report.transitions[sequence.planted_transition]
        run.recall.append(recall_of(planted.anomalous_nodes,
                                    sequence.planted_nodes))
        if not run.checks:  # the first unit that completed
            run.checks.append(functools.partial(
                check_stream_vs_offline, sequence.graph(), report,
                ctx.seed))

    run_units(ctx, unit, count)
    run.rss_mb = self_peak_rss_mb()
    return run


def stream_setup(ctx: Context) -> list:
    from repro.graphs import GraphSnapshot

    samples = []
    for repeat in range(SETUP_REPEATS):
        cold = cold_import_s()
        sequence = stream_sequence(ctx.seed, 10_000 + repeat)
        matrix = sequence.matrices[0]
        started = time.perf_counter()
        stream_detector(ctx.seed).push(GraphSnapshot(matrix))
        samples.append(cold + time.perf_counter() - started)
    return samples


def stream_approx(ctx: Context) -> Outcome:
    notes = [f"n={STREAM_NODES} pushes/session={STREAM_STEPS} "
             f"edits/step={EDITS_PER_STEP} method=approx "
             "request=StreamingCadDetector.push()"]
    if ctx.trace:
        plain = stream_pass(ctx, STREAM_TRACE_UNITS)
        with InProcessTrace() as trace:
            traced = stream_pass(ctx, STREAM_TRACE_UNITS)
            trace.collect(traced)
        return traced_outcome(plain, traced, notes)
    setup = stream_setup(ctx)
    run = stream_pass(ctx, STREAM_MIN_UNITS)
    return e2e_outcome(setup, run, notes, tail_q=90)


# -- serve-exact -------------------------------------------------------------

SERVE_NODES = 200
SERVE_DEGREE = 4.0
SERVE_STEPS = 66
SERVE_REPORT_EVERY = 10
SERVE_TRACE_UNITS = 2
#: Sessions an untraced run needs for a p90 push tail (100 pushes).
SERVE_MIN_UNITS = 2
PUSH_ATTEMPTS = 3


def serve_sequence(seed: int, index: int):
    return generate_sequence(sub_seed(seed, index), SERVE_NODES,
                             SERVE_STEPS, mean_degree=SERVE_DEGREE,
                             edits=EDITS_PER_STEP)


def session_config(seed: int) -> dict:
    return {"method": "exact", "seed": seed, "warmup": WARMUP,
            "anomalies_per_transition": ANOMALIES}


class Client:
    """One keep-alive HTTP connection; every call is one operation."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=60)

    def call(self, log: OpLog, method: str, path: str, body=None,
             windows: list | None = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        started = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=60)
            log.fail(f"{method} {path}: {type(error).__name__}: {error}")
            return None, None
        elapsed = time.perf_counter() - started
        if response.status >= 400:
            log.fail(f"{method} {path}: HTTP {response.status}")
            return None, response.getheader("Retry-After")
        log.ok(elapsed)
        if windows is not None:
            windows.append((started, started + elapsed))
        return json.loads(raw) if raw else {}, None

    def close(self) -> None:
        self.conn.close()


def run_http_session(client: Client, run: Pass, payloads: list,
                     seed: int) -> tuple[str | None, dict | None]:
    """Create a session, push ``payloads``, finalize; returns the
    session id (``None`` if never created) and the final report
    (``None`` on failure)."""
    created, _ = client.call(run.side_ops, "POST", "/sessions",
                             session_config(seed))
    if created is None:
        return None, None
    session = created["session"]
    for position, payload in enumerate(payloads):
        for _attempt in range(PUSH_ATTEMPTS):
            document, retry_after = client.call(
                run.ops, "POST", f"/sessions/{session}/snapshots",
                payload, run.windows)
            if document is not None:
                break
            time.sleep(min(float(retry_after or 0.2), 1.0))
        else:
            return session, None
        if (position + 1) % SERVE_REPORT_EVERY == 0:
            client.call(run.reports, "GET",
                        f"/sessions/{session}/report", None, run.windows)
    final, _ = client.call(run.side_ops, "POST",
                           f"/sessions/{session}/finalize?include_scores=1")
    return session, final


def check_http_vs_replay(payloads: list, document: dict,
                         seed: int) -> str | None:
    """The HTTP ``finalize`` report against an in-process replay of the
    same payloads."""
    from repro import StreamingCadDetector
    from repro.pipeline.serialize import report_to_dict, snapshot_from_payload

    detector = StreamingCadDetector(
        anomalies_per_transition=ANOMALIES, warmup=WARMUP,
        method="exact", seed=seed,
    )
    universe = None
    for payload in payloads:
        snapshot = snapshot_from_payload(payload, universe)
        universe = snapshot.universe
        detector.push(snapshot)
    replay = report_to_dict(detector.finalize(), include_scores=True)
    if not np.isclose(replay["threshold"], document["threshold"],
                      rtol=1e-8):
        return (f"threshold {document['threshold']} != replay "
                f"{replay['threshold']}")
    if len(replay["transitions"]) != len(document["transitions"]):
        return "transition counts differ from the replay"
    for ours, theirs in zip(document["transitions"],
                            replay["transitions"]):
        if sorted(ours["nodes"]) != sorted(theirs["nodes"]):
            return f"transition {ours['index']}: nodes differ from replay"
        if not np.allclose(ours["node_scores"], theirs["node_scores"],
                           rtol=1e-8, atol=1e-10):
            return f"transition {ours['index']}: scores differ from replay"
    return None


class Server:
    """A ``cad-detect serve`` subprocess with WAL and factor cache."""

    def __init__(self, ctx: Context, tag: str, traced: bool):
        self.dir = ctx.out / f"serve-{tag}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.spans = self.dir / "spans.json" if traced else None
        self.log = self.dir / "server.log"
        self.proc = procs.start(
            ["serve", "--host", "127.0.0.1", "--port", "0",
             "--checkpoint-dir", str(self.dir / "checkpoints"),
             "--factor-cache", "--max-sessions", "16"],
            self.log, self.spans,
        )
        line = procs.wait_for_line(self.log, "serving on http://",
                                   self.proc)
        self.port = int(line.split("serving on http://")[1]
                        .split()[0].rsplit(":", 1)[1])
        deadline = time.monotonic() + 30
        while True:
            probe = Client(self.port)
            ok, _ = probe.call(OpLog(), "GET", "/readyz")
            probe.close()
            if ok is not None:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.02)

    def metrics(self) -> dict:
        client = Client(self.port)
        client.conn.request("GET", "/metrics")
        text = client.conn.getresponse().read().decode()
        client.close()
        return parse_prometheus(text)

    def stop(self) -> tuple[list, dict]:
        code = procs.stop(self.proc)
        if code != 0:
            raise RuntimeError(f"server exited with {code}")
        if self.spans is None:
            return [], {}
        return tracing.load(str(self.spans))


def start_server(ctx: Context, tag: str, traced: bool,
                 seed: int) -> Server:
    """Server up to ``/readyz`` 200 plus one session created with its
    first (cold) push — the service's set-up."""
    server = Server(ctx, tag, traced)
    client = Client(server.port)
    log = OpLog()
    created, _ = client.call(log, "POST", "/sessions", session_config(seed))
    payload = serve_sequence(seed, 20_000).payloads()[0]
    if created is not None:
        client.call(log, "POST", f"/sessions/{created['session']}/snapshots",
                    payload)
    client.close()
    if log.failed:
        raise RuntimeError(f"server set-up failed: {log.errors}")
    return server


def serve_pass(ctx: Context, server: Server, count: int) -> Pass:
    """Sessions one after another on one keep-alive connection."""
    run = Pass()
    client = Client(server.port)

    def unit(index: int) -> None:
        sequence = serve_sequence(ctx.seed, index)
        payloads = sequence.payloads()
        begin = time.perf_counter()
        session, final = run_http_session(client, run, payloads, ctx.seed)
        seconds = time.perf_counter() - begin
        if session is not None:
            # Deleted, so that the server's memory does not grow with
            # the number of sessions a run happens to fit.
            client.call(run.side_ops, "DELETE", f"/sessions/{session}")
        if final is None:
            run.problems.append(f"session {index} failed")
            return
        run.sequence_done(seconds, len(payloads))
        planted = final["transitions"][sequence.planted_transition]
        run.recall.append(recall_of(planted["nodes"], sequence.planted_nodes))
        if not run.checks:  # the first unit that completed
            run.checks.append(functools.partial(
                check_http_vs_replay, payloads, final, ctx.seed))

    try:
        run_units(ctx, unit, count)
    finally:
        client.close()
    run.rss_mb = self_peak_rss_mb() + procs.peak_rss_mb([server.proc])
    return run


def serve_exact(ctx: Context) -> Outcome:
    notes = [f"n={SERVE_NODES} pushes/session={SERVE_STEPS} "
             "clients=1 (closed loop) method=exact WAL on "
             f"factor cache on report every {SERVE_REPORT_EVERY} pushes "
             "request=HTTP push"]
    if ctx.trace:
        server = start_server(ctx, "plain", False, ctx.seed)
        plain = serve_pass(ctx, server, SERVE_TRACE_UNITS)
        server.stop()
        server = start_server(ctx, "traced", True, ctx.seed)
        traced = serve_pass(ctx, server, SERVE_TRACE_UNITS)
        traced.counters = server.metrics()
        traced.spans, traced.counts = server.stop()
        return traced_outcome(
            plain, traced, notes,
            http_push_s=traced.ops.latencies,
            http_report_s=traced.reports.latencies,
        )
    setup = []
    server = None
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        server = start_server(ctx, f"setup{repeat}", False, ctx.seed)
        setup.append(time.perf_counter() - started)
    run = serve_pass(ctx, server, SERVE_MIN_UNITS)
    server.stop()
    return e2e_outcome(setup, run, notes, tail_q=90)


# -- cluster-sharded ---------------------------------------------------------

CLUSTER_NODES = 3000
CLUSTER_STEPS = 16
CLUSTER_WORKERS = 2
CLUSTER_TRACE_UNITS = 2


def cluster_sequence(seed: int, index: int):
    return generate_sequence(sub_seed(seed, index), CLUSTER_NODES,
                             CLUSTER_STEPS, mean_degree=6.0,
                             edits=EDITS_PER_STEP)


class Cluster:
    """A coordinator in this process plus worker subprocesses."""

    def __init__(self, ctx: Context, tag: str, traced: bool):
        from repro.cluster import ClusterCoordinator

        self.dir = ctx.out / f"cluster-{tag}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.coordinator = ClusterCoordinator()
        self.spans = []
        self.procs = []
        for slot in range(CLUSTER_WORKERS):
            spans = self.dir / f"worker{slot}.json" if traced else None
            self.spans.append(spans)
            self.procs.append(procs.start(
                ["cluster-worker", self.coordinator.host,
                 str(self.coordinator.port), "--worker-id",
                 f"bench-{slot}"],
                self.dir / f"worker{slot}.log", spans,
            ))
        self.coordinator.wait_for_workers(CLUSTER_WORKERS, timeout=60)

    def engine(self, seed: int):
        from repro.cluster import ClusterEngine

        return ClusterEngine(self.coordinator, workers=CLUSTER_WORKERS,
                             min_workers=CLUSTER_WORKERS,
                             shard_by="transition", method="approx",
                             seed=seed)

    def stop(self) -> tuple[list, dict]:
        self.coordinator.close()
        spans: list = []
        counts: dict = {}
        for proc, path in zip(self.procs, self.spans):
            code = procs.wait_exit(proc)
            if code != 0:
                raise RuntimeError(f"cluster worker exited with {code}")
            if path is not None:
                more, more_counts = tracing.load(str(path))
                spans.extend(more)
                for name, value in more_counts.items():
                    counts[name] = counts.get(name, 0) + value
        return spans, counts


def check_cluster_vs_serial(graph, report, seed: int) -> str | None:
    """Sharded threshold and node scores bit-for-bit against serial
    content-seeded ``detect()``."""
    import repro

    serial = repro.CadDetector(method="approx", seed=seed,
                               seed_mode="content").detect(
        graph, anomalies_per_transition=ANOMALIES)
    if report.threshold != serial.threshold:
        return (f"threshold {report.threshold!r} != serial "
                f"{serial.threshold!r}")
    for ours, theirs in zip(report.transitions, serial.transitions):
        if not np.array_equal(ours.scores.node_scores,
                              theirs.scores.node_scores):
            return f"transition {ours.index}: node scores not bit-equal"
    return None


def cluster_pass(ctx: Context, cluster: Cluster, count: int) -> Pass:
    run = Pass()

    def unit(index: int) -> None:
        sequence = cluster_sequence(ctx.seed, index)
        graph = sequence.graph()
        engine = cluster.engine(ctx.seed)
        started = time.perf_counter()
        ok, report = run.ops.timed(engine.detect, graph,
                                   anomalies_per_transition=ANOMALIES)
        run.windows.append((started, time.perf_counter()))
        if not ok:
            return
        run.sequence_done(run.ops.latencies[-1], len(sequence.matrices))
        planted = report.transitions[sequence.planted_transition]
        run.recall.append(recall_of(planted.anomalous_nodes,
                                    sequence.planted_nodes))
        if not run.checks:  # the first unit that completed
            run.checks.append(functools.partial(
                check_cluster_vs_serial, graph, report, ctx.seed))

    run_units(ctx, unit, count)
    run.rss_mb = self_peak_rss_mb() + procs.peak_rss_mb(cluster.procs)
    return run


def cluster_sharded(ctx: Context) -> Outcome:
    notes = [f"n={CLUSTER_NODES} snapshots={CLUSTER_STEPS} "
             f"workers={CLUSTER_WORKERS} shard_by=transition method=approx "
             "request=ClusterEngine.detect()"]
    if ctx.trace:
        cluster = Cluster(ctx, "plain", False)
        plain = cluster_pass(ctx, cluster, CLUSTER_TRACE_UNITS)
        cluster.stop()
        with InProcessTrace() as trace:
            cluster = Cluster(ctx, "traced", True)
            traced = cluster_pass(ctx, cluster, CLUSTER_TRACE_UNITS)
            spans, counts = cluster.stop()
            trace.collect(traced)
        traced.spans += spans
        for name, value in counts.items():
            traced.counts[name] = traced.counts.get(name, 0) + value
        return traced_outcome(plain, traced, notes)
    setup = []
    cluster = None
    for repeat in range(SETUP_REPEATS):
        if cluster is not None:
            cluster.stop()
        started = time.perf_counter()
        cluster = Cluster(ctx, f"setup{repeat}", False)
        setup.append(time.perf_counter() - started)
    run = cluster_pass(ctx, cluster, 1)
    cluster.stop()
    return e2e_outcome(setup, run, notes, tail_q=None)


WORKLOADS = {
    "offline-exact": offline_exact,
    "stream-approx": stream_approx,
    "serve-exact": serve_exact,
    "cluster-sharded": cluster_sharded,
}


def cleanup(out: Path) -> None:
    procs.stop_all()
    shutil.rmtree(out, ignore_errors=True)
    try:
        out.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass
