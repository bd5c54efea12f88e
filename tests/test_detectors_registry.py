"""Registry-driven conformance: every method through the same plumbing.

Three layers of uniformity checks:

* the registry itself (lookup, catalogue, error messages);
* batch conformance — every registered detector runs the same toy
  sequence end-to-end through ``repro.detect`` with finite scores;
* streaming conformance — every streaming-capable registry method
  round-trips a mid-stream checkpoint bit-for-bit, and ``method=lad``
  / ``method=fusion`` service sessions survive evict/resume with
  score parity against an uninterrupted session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import StreamingCadDetector
from repro.detectors import (
    StreamingDetector,
    create_detector,
    get_method,
    list_methods,
    method_names,
    streaming_method_names,
)
from repro.detectors.registry import DetectorMethod, register_method
from repro.exceptions import CheckpointError, DetectionError
from repro.graphs import (
    DynamicGraph,
    GraphSnapshot,
    community_pair_graph,
    perturb_weights,
)
from repro.pipeline import detect
from repro.pipeline.serialize import snapshot_to_payload
from repro.service import BadRequestError, SessionManager

ALL_METHODS = sorted(method_names())
#: Streaming methods the wrapper serves (CAD has its own stream class).
WRAPPED_METHODS = sorted(set(streaming_method_names()) - {"cad"})


def drifting_sequence(steps=8, community_size=12, seed=7):
    """Community-pair sequence with one heavy cross-community event."""
    base = community_pair_graph(community_size=community_size,
                                p_in=0.5, p_out=0.05, seed=seed)
    snapshots = [base]
    for t in range(1, steps):
        snapshots.append(perturb_weights(snapshots[-1],
                                         relative_noise=0.03,
                                         seed=seed + t))
    n = 2 * community_size
    matrix = snapshots[5].adjacency.tolil()
    for offset in range(3):
        i, j = offset, n - 1 - offset
        matrix[i, j] = matrix[j, i] = 4.0
    snapshots[5] = GraphSnapshot(matrix.tocsr(), base.universe)
    for t, snapshot in enumerate(snapshots):
        snapshots[t] = GraphSnapshot(snapshot.adjacency,
                                     base.universe, time=t)
    return DynamicGraph(snapshots)


@pytest.fixture(scope="module")
def sequence():
    return drifting_sequence()


class TestRegistry:
    def test_catalogue_is_complete(self):
        assert set(ALL_METHODS) == {
            "act", "adj", "afm", "cad", "clc", "com",
            "fusion", "invariant", "lad",
            "dist-mcs", "dist-edit", "dist-modality", "dist-spectral",
        }

    def test_streaming_subset(self):
        streaming = set(streaming_method_names())
        assert {"cad", "act", "lad", "invariant", "fusion"} <= streaming
        assert streaming <= set(ALL_METHODS)

    def test_graph_distances_are_event_only(self):
        """The 2.4.2 distances register as non-streaming node-only
        methods (the paper's point: they detect events, not edges)."""
        for name in ("dist-mcs", "dist-edit", "dist-modality",
                     "dist-spectral"):
            entry = get_method(name)
            assert entry.family == "distances"
            assert not entry.streaming
            assert entry.node_only

    def test_graph_distance_factory_binds_measure(self):
        detector = create_detector("dist-edit")
        assert detector.distance == "edit"
        assert detector.name == "DIST-EDIT"

    def test_entries_are_described(self):
        for entry in list_methods():
            assert entry.name and entry.family and entry.description
            assert entry.factory is not None

    def test_get_method_unknown_lists_names(self):
        with pytest.raises(DetectionError) as excinfo:
            get_method("wavelet")
        message = str(excinfo.value)
        for name in ALL_METHODS:
            assert name in message

    def test_create_detector_forwards_kwargs(self):
        detector = create_detector("lad", rank=4)
        assert detector.rank == 4

    def test_register_rejects_duplicates(self):
        with pytest.raises(DetectionError):
            register_method(DetectorMethod(
                name="lad", family="x", description="dup",
                factory=lambda **kw: None,
            ))


class TestBatchConformance:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_detect_end_to_end(self, name, sequence):
        report = detect(sequence, detector=name,
                        anomalies_per_transition=4)
        assert len(report.transitions) == len(sequence) - 1
        assert np.isfinite(report.threshold)
        for transition in report.transitions:
            scores = transition.scores
            assert np.all(np.isfinite(scores.node_scores))
            assert np.all(np.isfinite(scores.edge_scores))
            assert scores.edge_scores.dtype != object

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_detect_is_deterministic(self, name, sequence):
        kwargs = {"detector": name, "anomalies_per_transition": 4}
        if name in ("cad", "com", "act", "lad", "invariant", "fusion"):
            kwargs["seed"] = 3
        first = detect(sequence, **kwargs)
        second = detect(sequence, **kwargs)
        for a, b in zip(first.transitions, second.transitions):
            np.testing.assert_array_equal(a.scores.node_scores,
                                          b.scores.node_scores)
            np.testing.assert_array_equal(a.scores.edge_scores,
                                          b.scores.edge_scores)


class TestStreamingConformance:
    @pytest.mark.parametrize("name", WRAPPED_METHODS)
    def test_checkpoint_restore_bit_for_bit(self, name, sequence):
        interrupted = StreamingDetector(name, warmup=2)
        uninterrupted = StreamingDetector(name, warmup=2)
        snapshots = list(sequence)
        for snapshot in snapshots[:5]:
            interrupted.push(snapshot)
            uninterrupted.push(snapshot)
        restored = StreamingDetector.restore(interrupted.checkpoint())
        for snapshot in snapshots[5:]:
            restored.push(snapshot)
            uninterrupted.push(snapshot)
        left = restored.finalize()
        right = uninterrupted.finalize()
        assert left.threshold == right.threshold
        for a, b in zip(left.transitions, right.transitions):
            np.testing.assert_array_equal(a.scores.node_scores,
                                          b.scores.node_scores)
            assert a.anomalous_nodes == b.anomalous_nodes

    @pytest.mark.parametrize("name", WRAPPED_METHODS)
    def test_checkpoint_file_round_trip(self, name, sequence, tmp_path):
        stream = StreamingDetector(name, warmup=2)
        for snapshot in list(sequence)[:5]:
            stream.push(snapshot)
        path = tmp_path / "stream.npz"
        stream.checkpoint(path)
        restored = StreamingDetector.restore(path)
        assert restored.method == name
        assert restored.num_transitions == stream.num_transitions
        assert restored.current_delta == stream.current_delta

    @pytest.mark.parametrize("name", WRAPPED_METHODS)
    def test_streaming_matches_batch(self, name, sequence):
        stream = StreamingDetector(name, warmup=2,
                                   anomalies_per_transition=4)
        for snapshot in sequence:
            stream.push(snapshot)
        streamed = stream.finalize()
        batch = detect(sequence, detector=name,
                       anomalies_per_transition=4)
        assert streamed.threshold == batch.threshold
        assert [t.anomalous_nodes for t in streamed.transitions] == \
            [t.anomalous_nodes for t in batch.transitions]

    def test_cad_restore_names_kind_mismatch(self, sequence):
        stream = StreamingDetector("lad", warmup=2)
        for snapshot in list(sequence)[:3]:
            stream.push(snapshot)
        with pytest.raises(CheckpointError, match="kind mismatch.*"
                           "'detector-stream'.*StreamingCadDetector"):
            StreamingCadDetector.restore(stream.checkpoint())

    def test_wrapper_restore_names_kind_mismatch(self, sequence):
        stream = StreamingCadDetector(warmup=2, method="exact")
        for snapshot in list(sequence)[:3]:
            stream.push(snapshot)
        with pytest.raises(CheckpointError, match="kind mismatch.*CAD"
                           ".*StreamingDetector"):
            StreamingDetector.restore(stream.checkpoint())

    def test_cad_method_rejected_by_wrapper(self):
        with pytest.raises(DetectionError):
            StreamingDetector("cad")

    def test_non_streaming_method_rejected(self):
        with pytest.raises(DetectionError):
            StreamingDetector("adj")

    @pytest.mark.parametrize(
        "name", ["dist-mcs", "dist-edit", "dist-modality",
                 "dist-spectral"])
    def test_graph_distances_rejected_by_wrapper(self, name):
        with pytest.raises(DetectionError):
            StreamingDetector(name)


class TestServiceParity:
    """``method=lad|fusion`` sessions behave exactly like CAD sessions
    under the service's evict/resume machinery."""

    @pytest.mark.parametrize("method", ["lad", "fusion"])
    def test_evict_resume_score_parity(self, method, sequence,
                                       tmp_path):
        config = {"method": method, "warmup": 2, "seed": 3}
        payloads = [snapshot_to_payload(s) for s in sequence]

        interrupted = SessionManager(max_sessions=1,
                                     checkpoint_dir=tmp_path / "a")
        sid = interrupted.create_session(config)["session"]
        for payload in payloads[:5]:
            interrupted.push(sid, payload)
        # A second session forces the first out of memory (LRU).
        other = interrupted.create_session({"seed": 99})["session"]
        interrupted.push(other, payloads[0])
        assert not interrupted.session_info(sid)["resident"]
        for payload in payloads[5:]:
            interrupted.push(sid, payload)

        reference = SessionManager(checkpoint_dir=tmp_path / "b")
        ref = reference.create_session(config)["session"]
        for payload in payloads:
            reference.push(ref, payload)

        left = interrupted.report(sid, include_scores=True)
        right = reference.report(ref, include_scores=True)
        left.pop("session")
        right.pop("session")
        assert left == right

    @pytest.mark.parametrize("method", WRAPPED_METHODS)
    def test_session_runs_wrapped_stream(self, method, sequence,
                                         tmp_path):
        manager = SessionManager(checkpoint_dir=tmp_path)
        options = {"detector_options": {"rank": 6}} \
            if method == "lad" else {}
        sid = manager.create_session(
            {"method": method, "warmup": 2, **options}
        )["session"]
        for snapshot in sequence:
            manager.push(sid, snapshot_to_payload(snapshot))
        report = manager.finalize(sid)
        assert report["detector"].lower().startswith(method)
        assert np.isfinite(report["threshold"])

    def test_unknown_method_rejected_with_catalogue(self, tmp_path):
        manager = SessionManager(checkpoint_dir=tmp_path)
        with pytest.raises(BadRequestError) as excinfo:
            manager.create_session({"method": "wavelet"})
        message = str(excinfo.value)
        for name in ("auto", "exact", "approx", "cad",
                     "act", "lad", "invariant", "fusion"):
            assert name in message

    def test_event_only_distance_rejected_with_catalogue(self,
                                                         tmp_path):
        """dist-* methods are registered but not streaming-capable, so
        a session asking for one gets the regular 400 catalogue."""
        manager = SessionManager(checkpoint_dir=tmp_path)
        with pytest.raises(BadRequestError) as excinfo:
            manager.create_session({"method": "dist-spectral"})
        message = str(excinfo.value)
        assert "dist-spectral" in message
        for name in ("cad", "act", "lad", "invariant", "fusion"):
            assert name in message

    def test_bad_detector_options_rejected_at_create(self, tmp_path):
        manager = SessionManager(checkpoint_dir=tmp_path)
        with pytest.raises(BadRequestError):
            manager.create_session({
                "method": "lad",
                "detector_options": {"no_such_knob": 1},
            })

    def test_detector_options_rejected_for_cad(self, tmp_path):
        manager = SessionManager(checkpoint_dir=tmp_path)
        with pytest.raises(BadRequestError):
            manager.create_session({
                "method": "auto",
                "detector_options": {"rank": 6},
            })

    def test_incremental_rejected_for_wrapped(self, tmp_path):
        manager = SessionManager(checkpoint_dir=tmp_path)
        with pytest.raises(BadRequestError):
            manager.create_session({"method": "lad",
                                    "incremental": True})

    def test_cad_sessions_unchanged(self, sequence, tmp_path):
        manager = SessionManager(checkpoint_dir=tmp_path)
        sid = manager.create_session({"seed": 3})["session"]
        record = manager._sessions[sid]
        assert isinstance(record.detector, StreamingCadDetector)
        for snapshot in list(sequence)[:5]:
            manager.push(sid, snapshot_to_payload(snapshot))
        assert manager.report(sid)["detector"] == "CAD-streaming"
