"""Streaming with the incrementally maintained exact backend."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.streaming import StreamingCadDetector
from repro.exceptions import DetectionError
from repro.graphs.snapshot import GraphSnapshot, NodeUniverse
from repro.observability import collecting


def random_stream(n=16, steps=10, seed=5, edits=3):
    rng = np.random.default_rng(seed)
    universe = NodeUniverse.of_size(n)
    weights = np.triu(
        (rng.random((n, n)) < 0.4)
        * rng.integers(1, 5, (n, n)), 1
    ).astype(float)
    snapshots = []
    for t in range(steps):
        w = weights.copy()
        for _ in range(edits):
            i, j = rng.integers(0, n, 2)
            if i != j:
                w[min(i, j), max(i, j)] = float(rng.integers(0, 8))
        weights = w
        snapshots.append(
            GraphSnapshot(sp.csr_matrix(w + w.T), universe, time=t)
        )
    return snapshots


def exact_builds(registry):
    """Full pseudoinverse computations recorded in ``registry``."""
    return registry.counter_value("commute_backend_builds_total",
                                  {"method": "exact"})


def result_sets(result):
    if result is None:
        return None
    return (
        sorted((u, v) for u, v, _ in result.anomalous_edges),
        sorted(result.anomalous_nodes),
    )


class TestIncrementalParity:
    def test_push_results_match_full_recompute(self):
        snapshots = random_stream()
        plain = StreamingCadDetector(anomalies_per_transition=2,
                                     warmup=2, method="exact")
        incremental = StreamingCadDetector(anomalies_per_transition=2,
                                           warmup=2, method="exact",
                                           incremental=True)
        for snapshot in snapshots:
            expected = plain.push(snapshot)
            actual = incremental.push(snapshot)
            assert result_sets(actual) == result_sets(expected)
            if expected is not None:
                np.testing.assert_allclose(
                    actual.scores.edge_scores,
                    expected.scores.edge_scores,
                    rtol=1e-8, atol=1e-10,
                )
        plain_report = plain.finalize()
        inc_report = incremental.finalize()
        assert [result_sets(r) for r in inc_report.transitions] == \
            [result_sets(r) for r in plain_report.transitions]

    def test_only_initial_build_recomputes_on_smooth_stream(self):
        snapshots = random_stream(seed=9)
        detector = StreamingCadDetector(method="exact", incremental=True)
        with collecting() as registry:
            assert exact_builds(registry) == 0
            for snapshot in snapshots:
                detector.push(snapshot)
        assert exact_builds(registry) == 1


class TestComponentChanges:
    def test_split_falls_back_to_full_recompute(self):
        universe = NodeUniverse.of_size(6)

        def path(weights):
            matrix = np.zeros((6, 6))
            for (i, j), w in weights.items():
                matrix[i, j] = matrix[j, i] = w
            return GraphSnapshot(sp.csr_matrix(matrix), universe)

        base = {(i, i + 1): 1.0 for i in range(5)}
        connected = path(base)
        # Cutting the middle edge splits the path into two components.
        split = path({**base, (2, 3): 0.0})
        plain = StreamingCadDetector(anomalies_per_transition=1,
                                     warmup=1, method="exact")
        incremental = StreamingCadDetector(anomalies_per_transition=1,
                                           warmup=1, method="exact",
                                           incremental=True)
        streams = [connected, split, connected]
        builds = 0
        for snapshot in streams:
            expected = plain.push(snapshot)
            with collecting() as registry:
                actual = incremental.push(snapshot)
            builds += exact_builds(registry)
            assert result_sets(actual) == result_sets(expected)
        # initial build + split fallback (+ possibly the merge back)
        assert builds >= 2


class TestCheckpointRoundTrip:
    def test_restore_preserves_incremental_mode(self, tmp_path):
        snapshots = random_stream(seed=13)
        detector = StreamingCadDetector(anomalies_per_transition=2,
                                        warmup=2, method="exact",
                                        incremental=True)
        for snapshot in snapshots[:5]:
            detector.push(snapshot)
        path = tmp_path / "stream.npz"
        detector.checkpoint(path)

        restored = StreamingCadDetector.restore(path, method="exact")
        assert restored.incremental
        reference = StreamingCadDetector(anomalies_per_transition=2,
                                         warmup=2, method="exact",
                                         incremental=True)
        for snapshot in snapshots:
            expected = reference.push(snapshot)
        for snapshot in snapshots[5:]:
            actual = restored.push(snapshot)
        assert result_sets(actual) == result_sets(expected)
        assert [result_sets(r) for r in restored.finalize().transitions] \
            == [result_sets(r) for r in reference.finalize().transitions]


class TestGuards:
    def test_incremental_requires_exact_backend(self):
        snapshots = random_stream(n=12, steps=2)
        detector = StreamingCadDetector(method="approx", k=8,
                                        incremental=True, seed=1)
        with pytest.raises(DetectionError, match="exact"):
            detector.push(snapshots[0])

    def test_auto_resolving_to_approx_rejected(self):
        snapshots = random_stream(n=12, steps=2)
        detector = StreamingCadDetector(method="auto", exact_limit=4,
                                        incremental=True, seed=1)
        with pytest.raises(DetectionError, match="exact"):
            detector.push(snapshots[0])

    def test_ingest_scored_needs_previous_snapshot(self):
        snapshots = random_stream(steps=2)
        detector = StreamingCadDetector(method="exact")
        scorer = StreamingCadDetector(method="exact")
        scorer.push(snapshots[0])
        scorer.push(snapshots[1])
        with pytest.raises(DetectionError, match="previous snapshot"):
            detector.ingest_scored(snapshots[1], scorer._scored[0])

    def test_ingest_scored_under_incremental_matches_push(self):
        # The delta tier diffs against the last solved adjacency, so an
        # externally scored transition leaves nothing stale.
        snapshots = random_stream(seed=19)
        scorer = StreamingCadDetector(anomalies_per_transition=2,
                                      warmup=2, method="exact")
        pusher = StreamingCadDetector(anomalies_per_transition=2,
                                      warmup=2, method="exact")
        detector = StreamingCadDetector(anomalies_per_transition=2,
                                        warmup=2, method="exact",
                                        incremental=True)
        for snapshot in snapshots:
            scorer.push(snapshot)
        for position, snapshot in enumerate(snapshots):
            expected = pusher.push(snapshot)
            if position in (3, 4):
                actual = detector.ingest_scored(
                    snapshot, scorer._scored[position - 1]
                )
            else:
                actual = detector.push(snapshot)
            assert result_sets(actual) == result_sets(expected)
            if expected is not None:
                np.testing.assert_allclose(
                    actual.scores.edge_scores,
                    expected.scores.edge_scores,
                    rtol=1e-8, atol=1e-10,
                )

    def test_ingest_scored_matches_push(self):
        snapshots = random_stream(seed=17)
        pusher = StreamingCadDetector(anomalies_per_transition=2,
                                      warmup=2, method="exact")
        ingester = StreamingCadDetector(anomalies_per_transition=2,
                                        warmup=2, method="exact")
        scorer = StreamingCadDetector(anomalies_per_transition=2,
                                      warmup=2, method="exact")
        ingester.push(snapshots[0])
        previous = snapshots[0]
        for snapshot in snapshots:
            scorer.push(snapshot)
        for position, snapshot in enumerate(snapshots):
            expected = pusher.push(snapshot)
            if position == 0:
                continue
            actual = ingester.ingest_scored(
                snapshot, scorer._scored[position - 1]
            )
            assert result_sets(actual) == result_sets(expected)
            previous = snapshot
        assert previous is snapshots[-1]
