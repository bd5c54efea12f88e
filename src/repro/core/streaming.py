"""Streaming detection: process snapshots as they arrive.

The paper's threshold-selection procedure is offline (one δ for the
whole sequence) but notes it "can be suitably modified in an online
setting by aggregating scores up to the current graph instance and
updating the threshold". :class:`StreamingCadDetector` implements that
mode end to end:

* snapshots are pushed one at a time (:meth:`~DetectionStream.push`);
* each push scores the newest transition against the previous
  snapshot, reusing the previous snapshot's commute backend via the
  calculator cache;
* δ is re-derived from all scores seen so far with the same global-`l`
  procedure (via :class:`~repro.core.thresholds.OnlineThresholdSelector`)
  and the freshly scored transition is cut at the *current* δ;
* :meth:`~DetectionStream.finalize` optionally re-cuts every past
  transition at the final δ, converging to exactly the offline result.

On top of the paper's online mode the detector is *resilient*: with a
``sanitize`` policy set, dirty raw matrices can be pushed directly
(:meth:`~DetectionStream.push_raw`), defective snapshots are
repaired or quarantined-and-skipped (scoring resumes against the last
good snapshot), a solve that exhausts its fallback chain quarantines
the offending snapshot instead of killing the stream, and the whole
detector state round-trips through
:meth:`~DetectionStream.checkpoint` /
:meth:`~DetectionStream.restore`.

That lifecycle lives once, in :class:`DetectionStream`; the registry
detectors' :class:`~repro.detectors.StreamingDetector` shares it and
differs only in how a transition is scored and thresholded.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_int
from ..exceptions import CheckpointError, DetectionError, SolverError
from ..graphs.dynamic import DynamicGraph
from ..graphs.sanitize import SANITIZE_POLICIES, sanitize_snapshot
from ..graphs.snapshot import GraphSnapshot, NodeUniverse
from ..linalg.factorcache import DEFAULT_DELTA_BUDGET
from ..resilience.checkpoint import (
    FORMAT as CHECKPOINT_FORMAT,
    VERSION as CHECKPOINT_VERSION,
    read_checkpoint,
    require_checkpoint_format,
    write_checkpoint,
)
from ..resilience.health import HealthMonitor, HealthReport
from .cad import CadDetector, build_report
from .results import DetectionReport, TransitionResult, TransitionScores
from .thresholds import OnlineThresholdSelector, anomaly_sets_at


def _kind_label(kind: str | None) -> str:
    return repr(kind) if kind else "CAD"


class DetectionStream:
    """The online push/finalize/checkpoint/restore lifecycle.

    Subclasses supply what differs by method: how a transition is
    scored (:meth:`_score`), how the online threshold absorbs it
    (:meth:`_observe`, :attr:`current_delta`), the per-transition cut
    (:meth:`_cut`), the final report (:meth:`_report`), and their
    checkpoint config and private state.

    Args:
        anomalies_per_transition: the per-transition budget ``l``.
        warmup: transitions to absorb before emitting anomalies.
        sanitize: optional resilience policy (``"raise"``, ``"repair"``
            or ``"quarantine"``) governing :meth:`push_raw` and
            solver-failure handling. ``None`` keeps the strict
            behaviour: every error propagates.
        health: the monitor recording repairs and quarantines.
    """

    #: ``config.kind`` marker of this flavour's checkpoints (``None``:
    #: CAD streams, whose checkpoints predate the marker).
    KIND: str | None = None

    def __init__(self, anomalies_per_transition: int, warmup: int,
                 sanitize: str | None, health: HealthMonitor):
        if sanitize is not None and sanitize not in SANITIZE_POLICIES:
            raise DetectionError(
                f"sanitize must be None or one of {SANITIZE_POLICIES}, "
                f"got {sanitize!r}"
            )
        self._l = check_positive_int(
            anomalies_per_transition, "anomalies_per_transition"
        )
        self._warmup = check_positive_int(warmup, "warmup")
        self._sanitize = sanitize
        self._health = health
        self._previous: GraphSnapshot | None = None
        self._snapshots: list[GraphSnapshot] = []
        self._scored: list[TransitionScores] = []
        self._push_count = 0

    # -- what differs by method ----------------------------------------

    def _score(self, previous: GraphSnapshot,
               snapshot: GraphSnapshot) -> TransitionScores:
        raise NotImplementedError

    def _observe(self, scores: TransitionScores) -> None:
        """Fold one transition's scores into the online threshold."""

    @property
    def current_delta(self) -> float | None:
        """The current online threshold (``None`` during warmup)."""
        raise NotImplementedError

    def _cut(self, index: int, scores: TransitionScores,
             threshold: float) -> TransitionResult:
        raise NotImplementedError

    def _report(self, health: HealthReport | None) -> DetectionReport:
        raise NotImplementedError

    def _config(self) -> dict[str, Any]:
        """Flavour-specific checkpoint config entries."""
        return {}

    @classmethod
    def _config_kwargs(cls, config: dict[str, Any]) -> dict[str, Any]:
        """Constructor arguments recovered from :meth:`_config`."""
        return {}

    def _private_state(self) -> dict[str, Any]:
        """Top-level checkpoint entries beyond the shared history."""
        return {}

    def _load_private_state(self, state: dict[str, Any]) -> None:
        pass

    # -- the shared lifecycle ------------------------------------------

    @property
    def num_transitions(self) -> int:
        """Transitions scored so far."""
        return len(self._scored)

    @property
    def health(self) -> HealthMonitor:
        """The stream's :class:`~repro.resilience.health.HealthMonitor`."""
        return self._health

    @property
    def latest_snapshot(self) -> GraphSnapshot | None:
        """The last accepted snapshot (``None`` before the first push)."""
        return self._previous

    @property
    def sanitize_policy(self) -> str | None:
        """The configured sanitize policy (``None`` = strict)."""
        return self._sanitize

    @property
    def incremental(self) -> bool:
        """Whether exact solves advance the previous ``L^+`` by
        rank-one updates (only CAD streams can)."""
        return False

    def push(self, snapshot: GraphSnapshot) -> TransitionResult | None:
        """Ingest the next snapshot; return the newest transition's
        result cut at the current online threshold.

        Returns ``None`` for the very first snapshot and while the
        threshold is still warming up. With ``sanitize`` set, a
        snapshot whose transition cannot be scored (the solver chain
        was exhausted) is quarantined — recorded in :attr:`health`,
        skipped, and the next push scores against the last good
        snapshot. Without a policy the
        :class:`~repro.exceptions.SolverError` propagates.
        """
        if self._previous is not None:
            self._previous.require_same_universe(snapshot)
        position = self._push_count
        self._push_count += 1
        if self._previous is None:
            self._snapshots.append(snapshot)
            self._previous = snapshot
            return None
        try:
            scores = self._score(self._previous, snapshot)
        except SolverError as error:
            if self._sanitize is None:
                raise
            self._health.record_quarantine(
                position, snapshot.time, f"unscorable transition: {error}"
            )
            return None
        return self._accept(snapshot, scores)

    def ingest_scored(self, snapshot: GraphSnapshot,
                      scores: TransitionScores) -> TransitionResult | None:
        """Ingest a snapshot whose transition was scored externally.

        The batch-ingest primitive behind :mod:`repro.service`: a batch
        of snapshots can be scored by the parallel engine
        (:class:`~repro.parallel.ParallelCadDetector`) and folded into
        the stream one at a time with exactly the bookkeeping
        :meth:`push` performs — threshold update, history append,
        online cut — minus the scoring itself. ``scores`` must be the
        scores of the transition ``previous -> snapshot``.

        Raises:
            DetectionError: before any snapshot was pushed.
        """
        if self._previous is None:
            raise DetectionError(
                "ingest_scored needs a previous snapshot; push the "
                "first snapshot before ingesting scored transitions"
            )
        self._previous.require_same_universe(snapshot)
        self._push_count += 1
        return self._accept(snapshot, scores)

    def _accept(self, snapshot: GraphSnapshot,
                scores: TransitionScores) -> TransitionResult | None:
        self._snapshots.append(snapshot)
        self._scored.append(scores)
        self._observe(scores)
        self._previous = snapshot
        threshold = self.current_delta
        if threshold is None:
            return None
        return self._cut(len(self._scored) - 1, scores, threshold)

    def push_raw(self, adjacency: sp.spmatrix | np.ndarray,
                 time: Any = None,
                 universe: NodeUniverse | None = None,
                 ) -> TransitionResult | None:
        """Sanitize a raw adjacency matrix and push the result.

        The stream-facing ingest point: accepts matrices that may carry
        NaN/inf weights, negative weights, asymmetry, or self-loops and
        resolves them under the stream's ``sanitize`` policy
        (``"repair"`` when none was configured). A repaired snapshot is
        recorded in :attr:`health` and pushed; a quarantined one is
        recorded and skipped entirely — the stream continues and the
        next good snapshot is scored against the last good one.

        Args:
            adjacency: the raw (possibly dirty) adjacency matrix.
            time: the snapshot's time label.
            universe: node universe for the *first* snapshot (labelled
                streams lose their labels without it); later pushes
                reuse the stream's universe.

        Returns:
            The newest transition's result, or ``None`` for the first
            snapshot, during warmup, or when this snapshot was
            quarantined.

        Raises:
            SanitizationError: under ``sanitize="raise"`` on any defect.
        """
        policy = self._sanitize if self._sanitize is not None else "repair"
        if self._previous is not None:
            universe = self._previous.universe
        snapshot, report = sanitize_snapshot(
            adjacency, universe, time=time, policy=policy
        )
        if snapshot is None:
            self._health.record_quarantine(
                self._push_count, time, report.describe()
            )
            self._push_count += 1
            return None
        if report.repaired:
            self._health.record_repair(report.entries_fixed)
        return self.push(snapshot)

    def finalize(self) -> DetectionReport:
        """Re-cut the whole history at the final threshold
        (offline-equivalent).

        The report carries the run's
        :class:`~repro.resilience.health.HealthReport` when any
        degradation (fallbacks, repairs, quarantines) occurred.

        Raises:
            DetectionError: before any transition has been scored.
        """
        if not self._scored:
            raise DetectionError("no transitions have been scored yet")
        health = self._health.report()
        return self._report(None if health.is_empty() else health)

    def checkpoint(self, path: str | Path | None = None) -> dict[str, Any]:
        """Capture the stream's full state as plain data.

        The state holds everything needed to resume the stream:
        snapshots (CSR components), scored transitions, push count,
        health totals, and the flavour's private state (the embedding
        rng state for CAD, the wrapped detector's ``detector_state``
        arrays otherwise). Feed it to :meth:`restore`, or persist it
        with :func:`~repro.resilience.checkpoint.write_checkpoint`
        (done automatically when ``path`` is given).

        An empty stream checkpoints too: its state holds no snapshots
        and restores to a fresh stream with the same config.

        Args:
            path: optional file to also write the checkpoint to.

        Raises:
            CheckpointError: when writing to ``path`` and labels/times
                are not JSON-friendly.
        """
        universe = self._snapshots[0].universe if self._snapshots else ()
        state: dict[str, Any] = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": {
                "anomalies_per_transition": self._l,
                "warmup": self._warmup,
                "sanitize": self._sanitize,
                **self._config(),
            },
            "universe": list(universe),
            "num_nodes": len(universe),
            "snapshots": [
                {
                    "time": snapshot.time,
                    "data": snapshot.adjacency.data,
                    "indices": snapshot.adjacency.indices,
                    "indptr": snapshot.adjacency.indptr,
                }
                for snapshot in self._snapshots
            ],
            "scored": [
                {
                    "detector": scores.detector,
                    "edge_rows": scores.edge_rows,
                    "edge_cols": scores.edge_cols,
                    "edge_scores": scores.edge_scores,
                    "node_scores": scores.node_scores,
                    "extras": dict(scores.extras),
                }
                for scores in self._scored
            ],
            "push_count": self._push_count,
            "health": self._health.state(),
            **self._private_state(),
        }
        if path is not None:
            write_checkpoint(state, path)
        return state

    @classmethod
    def restore(cls, state: dict[str, Any] | str | Path,
                **overrides) -> DetectionStream:
        """Rebuild a stream from a checkpoint (dict or file path).

        Budget, warmup, sanitize policy and the flavour's own config
        come from the checkpoint; ``overrides`` are merged on top.
        Arguments the checkpoint cannot hold (a CAD stream's
        ``method``, ``k``, ``solver``, ...) must be re-supplied there —
        pass the same values as the original run. The online threshold
        is replayed deterministically from the stored scores.

        Raises:
            CheckpointError: on a foreign, corrupt, or wrong-version
                checkpoint, or one written by the other stream flavour.
        """
        if not isinstance(state, dict):
            state = read_checkpoint(state)
        require_checkpoint_format(state)
        try:
            config = state["config"]
            kind = config.get("kind")
            if kind != cls.KIND:
                raise CheckpointError(
                    f"checkpoint kind mismatch: it holds a "
                    f"{_kind_label(kind)} stream, but {cls.__name__} "
                    f"restores {_kind_label(cls.KIND)} streams"
                )
            stream = cls(**{
                "anomalies_per_transition":
                    config["anomalies_per_transition"],
                "warmup": config["warmup"],
                "sanitize": config.get("sanitize"),
                **cls._config_kwargs(config),
                **overrides,
            })
            universe = (NodeUniverse(state["universe"])
                        if state["snapshots"] else None)
            n = int(state["num_nodes"])
            for entry in state["snapshots"]:
                matrix = sp.csr_matrix(
                    (
                        np.asarray(entry["data"], dtype=np.float64),
                        np.asarray(entry["indices"]),
                        np.asarray(entry["indptr"]),
                    ),
                    shape=(n, n),
                )
                stream._snapshots.append(
                    GraphSnapshot(matrix, universe, entry["time"])
                )
            for entry in state["scored"]:
                scores = TransitionScores(
                    universe=universe,
                    edge_rows=np.asarray(entry["edge_rows"], dtype=np.int64),
                    edge_cols=np.asarray(entry["edge_cols"], dtype=np.int64),
                    edge_scores=np.asarray(entry["edge_scores"],
                                           dtype=np.float64),
                    node_scores=np.asarray(entry["node_scores"],
                                           dtype=np.float64),
                    detector=entry["detector"],
                    extras={
                        name: np.asarray(extra)
                        for name, extra in entry["extras"].items()
                    },
                )
                stream._scored.append(scores)
                stream._observe(scores)
            stream._previous = (
                stream._snapshots[-1] if stream._snapshots else None
            )
            stream._push_count = int(state["push_count"])
            stream._health.load_state(state["health"])
            stream._load_private_state(state)
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint state: {exc}"
            ) from exc
        return stream


class StreamingCadDetector(DetectionStream):
    """Online CAD over an unbounded snapshot stream.

    Args:
        anomalies_per_transition: the δ-selection budget ``l``.
        warmup: transitions to absorb before emitting anomalies
            (early δ estimates are noisy; during warmup pushes return
            ``None``).
        sanitize: optional resilience policy (``"raise"``, ``"repair"``
            or ``"quarantine"``) governing :meth:`push_raw` and
            solver-failure handling. ``None`` (default) keeps the
            strict behaviour: every error propagates.
        incremental: turn on the commute calculator's delta tier for
            this stream (``delta_budget`` defaults to
            :data:`~repro.linalg.factorcache.DEFAULT_DELTA_BUDGET`):
            each exact solve advances the previous snapshot's ``L^+``
            with one rank-one update per changed edge
            (:func:`~repro.linalg.factorcache.updated_pseudoinverse`),
            so a transition touching ``q`` edges costs O(q·n²) instead
            of O(n³); splits and over-budget transitions fall back to
            a full recompute. No factor cache is needed. Requires the
            exact backend (``method="exact"``, or ``"auto"`` resolving
            to exact); scores match the non-incremental stream up to
            roundoff.
        **cad_kwargs: forwarded to :class:`~repro.core.CadDetector`
            (``method``, ``k``, ``seed``, ``solver``, ...).
            ``factor_cache="shared"`` makes sessions share the
            process-wide factorization cache
            (:mod:`repro.linalg.factorcache`): a stream resumed from a
            checkpoint — or a second stream revisiting the same
            snapshot content — reuses the cached backend instead of
            re-factorizing.
    """

    def __init__(self, anomalies_per_transition: int = 5,
                 warmup: int = 3,
                 sanitize: str | None = None,
                 incremental: bool = False,
                 **cad_kwargs):
        self._incremental = bool(incremental)
        if self._incremental and cad_kwargs.get("delta_budget") is None:
            cad_kwargs["delta_budget"] = DEFAULT_DELTA_BUDGET
        self._detector = CadDetector(**cad_kwargs)
        super().__init__(anomalies_per_transition, warmup, sanitize,
                         self._detector.calculator.health)
        self._selector = OnlineThresholdSelector(self._l, warmup=self._warmup)

    @property
    def current_delta(self) -> float | None:
        """The current online δ (``None`` during warmup)."""
        return self._selector.current()

    @property
    def detector(self) -> CadDetector:
        """The inner per-transition detector (e.g. for building a
        parallel twin via
        :meth:`~repro.parallel.ParallelCadDetector.from_detector`)."""
        return self._detector

    @property
    def incremental(self) -> bool:
        """Whether exact solves advance the previous ``L^+`` by
        rank-one updates."""
        return self._incremental

    def push(self, snapshot: GraphSnapshot) -> TransitionResult | None:
        """Ingest the next snapshot (see :meth:`DetectionStream.push`).

        Raises:
            DetectionError: under ``incremental=True`` when the
                snapshot does not resolve to the exact backend.
        """
        calculator = self._detector.calculator
        if self._incremental and \
                calculator.resolve_method(snapshot.num_nodes) != "exact":
            raise DetectionError(
                "incremental=True requires the exact commute-time "
                "backend; construct the stream with method='exact' (or "
                "'auto' with the node count within exact_limit)"
            )
        return super().push(snapshot)

    def _score(self, previous: GraphSnapshot,
               snapshot: GraphSnapshot) -> TransitionScores:
        return self._detector.score_transition(previous, snapshot)

    def _observe(self, scores: TransitionScores) -> None:
        self._selector.update(scores)

    def _report(self, health: HealthReport | None) -> DetectionReport:
        delta = self._selector.current()
        if delta is None:
            raise DetectionError(
                "the online threshold never initialised (zero score "
                "mass so far)"
            )
        return build_report(DynamicGraph(self._snapshots), self._scored,
                            delta, "CAD-streaming", health=health)

    def _config(self) -> dict[str, Any]:
        return {"incremental": self._incremental}

    @classmethod
    def _config_kwargs(cls, config: dict[str, Any]) -> dict[str, Any]:
        return {"incremental": bool(config.get("incremental", False))}

    def _private_state(self) -> dict[str, Any]:
        return {"rng_state": self._detector.calculator.rng_state()}

    def _load_private_state(self, state: dict[str, Any]) -> None:
        self._detector.calculator.set_rng_state(state["rng_state"])

    def _cut(self, index: int, scores: TransitionScores,
             delta: float) -> TransitionResult:
        edge_mask, node_indices, _node_scores = anomaly_sets_at(
            scores, delta
        )
        label = scores.universe.label_of
        members = np.flatnonzero(edge_mask)
        order = members[np.argsort(-scores.edge_scores[members])]
        return TransitionResult(
            index=index,
            time_from=self._snapshots[index].time,
            time_to=self._snapshots[index + 1].time,
            anomalous_edges=[
                (label(int(scores.edge_rows[p])),
                 label(int(scores.edge_cols[p])),
                 float(scores.edge_scores[p]))
                for p in order
            ],
            anomalous_nodes=[label(int(i)) for i in node_indices],
            scores=scores,
        )
