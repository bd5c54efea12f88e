"""Commute-time computation with automatic exact/approximate dispatch.

CAD needs commute times ``c_t(i, j)`` for the node pairs on the union
support of consecutive snapshots. Small graphs use the exact
pseudoinverse (the paper does exactly this for the 151-node Enron
data); large graphs use the approximate embedding with the paper's
``k = 50`` default.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_rng, check_positive_int
from ..exceptions import DetectionError
from ..graphs.snapshot import GraphSnapshot
from ..linalg.embedding import CommuteTimeEmbedding
from ..linalg.factorcache import (
    DEFAULT_DELTA_BUDGET,
    FactorCache,
    backend_nbytes,
    resolve_factor_cache,
    updated_pseudoinverse,
)
from ..linalg.pseudoinverse import (
    commute_times_for_pairs,
    laplacian_pseudoinverse,
)
from ..observability import add_counter, trace
from ..resilience.health import HealthMonitor, HealthReport

#: Above this node count ``method="auto"`` switches from the exact
#: O(n^3) pseudoinverse to the approximate embedding.
DEFAULT_EXACT_LIMIT = 1500

#: Recognised randomness-derivation modes for the approximate backend.
SEED_MODES = ("stream", "content")


def snapshot_seed_sequence(root_entropy,
                           snapshot: GraphSnapshot) -> np.random.SeedSequence:
    """Content-keyed seed for one snapshot's JL projection.

    Mixes a run-level root entropy with the snapshot's
    :meth:`~repro.graphs.snapshot.GraphSnapshot.content_digest`, so the
    derived randomness depends only on *what* is being embedded — not
    on scoring order, process boundaries, or which worker picked the
    task. This is the determinism keystone of :mod:`repro.parallel`.
    """
    digest = snapshot.content_digest()
    words = [
        int.from_bytes(digest[offset:offset + 8], "little")
        for offset in range(0, len(digest), 8)
    ]
    return np.random.SeedSequence([int(root_entropy), *words])


class CommuteTimeCalculator:
    """Computes commute times for node pairs of a snapshot.

    Args:
        method: ``"exact"``, ``"approx"``, or ``"auto"`` (exact up to
            ``exact_limit`` nodes, approximate beyond).
        k: embedding dimension for the approximate path (paper default
            50; results are stable for k > 10, see Figure 5).
        seed: randomness for the JL projection. An integer seed yields
            run-to-run reproducible scores.
        solver: Laplacian solve backend for the embedding: ``"cg"``,
            ``"direct"``, ``"fallback"`` (CG → relaxed CG → LU → dense
            escalation), or a
            :class:`~repro.resilience.fallback.FallbackPolicy`.
        exact_limit: node-count crossover for ``method="auto"``.
        tol: solver tolerance for the embedding path.
        seed_mode: how the approximate backend derives per-snapshot
            randomness. ``"stream"`` (default, the historical
            behaviour) consumes one shared rng stream in scoring
            order; ``"content"`` derives each snapshot's projection
            from the seed and the snapshot's content digest, making
            approximate scores independent of scoring order and
            process boundaries — the mode :mod:`repro.parallel`
            relies on for bit-for-bit reproducibility.
        factor_cache: cross-snapshot solve cache (see
            :mod:`repro.linalg.factorcache`): ``None``/``False``
            (disabled, the default), ``True``/``"shared"`` (the
            process-wide cache shared by sessions, service and
            workers), ``"private"``, or a ready
            :class:`~repro.linalg.factorcache.FactorCache`. Identity
            hits return the cached backend verbatim (bit-for-bit).
        cache_budget_mb: byte budget for the factor cache (resizes
            the shared cache when that is selected).
        delta_budget: maximum edge-delta absorbed by rank-one factor
            updates. An exact solve within ``delta_budget`` edited
            edges of the previously solved snapshot advances that
            ``L^+`` (Sherman–Morrison, Meyer merges) instead of
            refactorizing, matching cold solves to ~1e-10; the result
            enters the factor cache at ``"updated"`` grade when a
            cache is configured. ``0`` disables the delta tier.
            Default: ``DEFAULT_DELTA_BUDGET`` with a factor cache, 0
            without one, so plain calculators only ever cold-solve.
    """

    def __init__(self, method: str = "auto",
                 k: int = 50,
                 seed=None,
                 solver="cg",
                 exact_limit: int = DEFAULT_EXACT_LIMIT,
                 tol: float = 1e-8,
                 seed_mode: str = "stream",
                 factor_cache=None,
                 cache_budget_mb: float | None = None,
                 delta_budget: int | None = None):
        if method not in ("exact", "approx", "auto"):
            raise DetectionError(
                f"method must be 'exact', 'approx' or 'auto', got {method!r}"
            )
        if seed_mode not in SEED_MODES:
            raise DetectionError(
                f"seed_mode must be one of {SEED_MODES}, got {seed_mode!r}"
            )
        if delta_budget is not None and delta_budget < 0:
            raise DetectionError(
                f"delta_budget must be >= 0, got {delta_budget}"
            )
        self._method = method
        self._k = check_positive_int(k, "k")
        self._rng = as_rng(seed)
        self._solver = solver
        self._exact_limit = check_positive_int(exact_limit, "exact_limit")
        self._tol = tol
        self._seed_mode = seed_mode
        self._seed = seed
        self._method_override: str | None = None
        self._cached_root_entropy: int | None = None
        self._health = HealthMonitor()
        # Spec-able form of the factor_cache argument (instances are
        # per-process and reported as "private" to remote workers).
        if isinstance(factor_cache, FactorCache):
            self._factor_cache_mode: str | None = "private"
        elif factor_cache in (True, "shared"):
            self._factor_cache_mode = "shared"
        elif factor_cache == "private":
            self._factor_cache_mode = "private"
        else:
            self._factor_cache_mode = None
        self._factor_cache = resolve_factor_cache(factor_cache,
                                                  cache_budget_mb)
        self._cache_budget_mb = cache_budget_mb
        if delta_budget is None:
            delta_budget = (DEFAULT_DELTA_BUDGET
                            if self._factor_cache is not None else 0)
        self._delta_budget = int(delta_budget)
        # Most recent exact solve, the anchor for delta updates:
        # (adjacency, pseudoinverse) of the last snapshot whose L^+
        # this calculator produced or fetched.
        self._delta_parent: tuple[object, np.ndarray] | None = None
        # Per-snapshot backend cache (pseudoinverse or embedding),
        # keyed by content digest so content-equal snapshots — a
        # checkpoint-restored session re-pushing the same graph, or a
        # rebuilt snapshot object — hit instead of rebuilding (and so
        # a recycled id() after GC can never alias a stale entry).
        # Sequence scoring visits each snapshot twice — as G_{t+1} of
        # one transition and G_t of the next — so keeping the two most
        # recent backends halves the dominant cost.
        self._cache: dict[tuple[bytes, str], object] = {}
        self._cache_order: list[tuple[bytes, str]] = []

    @property
    def k(self) -> int:
        """Embedding dimension used on the approximate path."""
        return self._k

    @property
    def seed_mode(self) -> str:
        """Randomness-derivation mode (``"stream"`` or ``"content"``)."""
        return self._seed_mode

    def root_entropy(self) -> int:
        """The run-level entropy anchoring content-keyed randomness.

        Equal to the integer seed when one was given; drawn once (and
        cached) from the generator/fresh entropy otherwise, so the
        value is stable for the calculator's lifetime and can be
        shipped to worker processes.
        """
        if self._cached_root_entropy is None:
            if isinstance(self._seed, np.random.Generator):
                self._cached_root_entropy = int(
                    self._seed.integers(0, 2 ** 63)
                )
            elif self._seed is None:
                self._cached_root_entropy = int(
                    np.random.SeedSequence().generate_state(
                        1, np.uint64
                    )[0]
                )
            else:
                self._cached_root_entropy = int(self._seed)
        return self._cached_root_entropy

    def spec(self) -> dict:
        """Picklable constructor arguments reproducing this calculator.

        The returned dictionary can be fed back to
        :class:`CommuteTimeCalculator` (or shipped to another process)
        to build a calculator that scores identically under
        ``seed_mode="content"``. The live rng *stream* is deliberately
        not captured — content mode does not depend on it.
        """
        return {
            "method": self._method,
            "k": self._k,
            "seed": self.root_entropy(),
            "solver": self._solver,
            "exact_limit": self._exact_limit,
            "tol": self._tol,
            "seed_mode": self._seed_mode,
            "factor_cache": self._factor_cache_mode,
            "cache_budget_mb": self._cache_budget_mb,
            "delta_budget": self._delta_budget,
        }

    @property
    def factor_cache(self):
        """The resolved factor cache (``None`` when disabled)."""
        return self._factor_cache

    @property
    def delta_budget(self) -> int:
        """Maximum edge-delta absorbed by rank-one factor updates."""
        return self._delta_budget

    @property
    def health(self) -> HealthMonitor:
        """The monitor accumulating this calculator's solve records."""
        return self._health

    def health_report(self) -> HealthReport:
        """Immutable snapshot of the health accounting so far."""
        return self._health.report()

    def rng_state(self) -> dict:
        """JL-projection rng state, for checkpointing (plain data)."""
        return self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore the JL-projection rng from :meth:`rng_state`."""
        self._rng.bit_generator.state = state

    @property
    def method_override(self) -> str | None:
        """Transient backend override (``None``/``"exact"``/``"approx"``).

        Set by operational layers (e.g. the service's degraded mode)
        to force a backend for the overridden calls only. Deliberately
        excluded from :meth:`spec` — it describes a momentary
        operating condition, not the calculator's configuration.
        """
        return self._method_override

    @method_override.setter
    def method_override(self, value: str | None) -> None:
        if value not in (None, "exact", "approx"):
            raise DetectionError(
                "method_override must be None, 'exact' or 'approx', "
                f"got {value!r}"
            )
        self._method_override = value

    def resolve_method(self, num_nodes: int) -> str:
        """The concrete method (``"exact"``/``"approx"``) for a size."""
        if self._method_override is not None:
            return self._method_override
        if self._method != "auto":
            return self._method
        return "exact" if num_nodes <= self._exact_limit else "approx"

    def pairwise(self, snapshot: GraphSnapshot,
                 rows: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
        """Commute times ``c(rows[p], cols[p])`` for the given pairs.

        Edgeless snapshots are a legal degenerate case (a silent month
        in an interaction network): every commute time is reported as
        0, so CAD scores reduce to pure adjacency change there.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size == 0:
            return np.zeros(0)
        if snapshot.volume() <= 0:
            return np.zeros(rows.size)
        method = self.resolve_method(snapshot.num_nodes)
        with trace("commute.pairwise", method=method, pairs=rows.size):
            backend = self._backend_for(snapshot, method)
            if method == "exact":
                return commute_times_for_pairs(
                    snapshot.adjacency, rows, cols, pseudoinverse=backend
                )
            return backend.commute_times(rows, cols)

    def _shared_key(self, digest: bytes, method: str) -> tuple | None:
        """Cross-session cache key, or ``None`` when not cacheable.

        Exact backends depend only on the graph, so the digest and
        method suffice. Approximate embeddings additionally depend on
        the JL projection: they are shareable only under
        ``seed_mode="content"`` (content-derived randomness), and the
        key then pins every input of the projection and solve — so a
        degraded-mode ``method_override`` can never be served an
        entry built for the other backend or other parameters.
        """
        if method == "exact":
            return (digest, "exact")
        if self._seed_mode != "content" or not isinstance(self._solver,
                                                          str):
            return None
        return (digest, "approx", self._k, self.root_entropy(),
                self._solver, float(self._tol))

    def _backend_for(self, snapshot: GraphSnapshot, method: str):
        """Pseudoinverse or embedding for a snapshot, cached.

        Lookup order: the calculator's two-deep content-keyed cache,
        then the cross-session factor cache (identity hit, bit-for-bit),
        then — exact method only, within ``delta_budget`` — a rank-one
        factor update from the last exact solve, and finally a cold
        build. The key includes ``method``: a degraded-mode override
        can re-score the same snapshot on the other backend, and an
        exact pseudoinverse must never be handed out as an embedding.
        """
        digest = snapshot.content_digest()
        cached = self._cache.get((digest, method))
        if cached is not None:
            add_counter("commute_backend_cache_hits_total")
            return cached
        shared_key = None
        if self._factor_cache is not None:
            shared_key = self._shared_key(digest, method)
        if shared_key is not None:
            entry = self._factor_cache.get(
                shared_key, allow_updated=self._delta_budget > 0
            )
            if entry is not None:
                backend = entry.backend
                self._remember(digest, method, backend)
                if method == "exact":
                    parent_adjacency = (
                        entry.adjacency if entry.adjacency is not None
                        else snapshot.adjacency
                    )
                    self._delta_parent = (parent_adjacency, backend)
                return backend
        if (method == "exact" and self._delta_budget > 0
                and self._delta_parent is not None):
            backend = self._delta_updated_backend(snapshot, digest,
                                                  shared_key)
            if backend is not None:
                return backend
        add_counter("commute_backend_builds_total", method=method)
        if method == "exact":
            with trace("commute.backend_build", method=method,
                       n=snapshot.num_nodes):
                backend = laplacian_pseudoinverse(snapshot.adjacency)
        else:
            if self._seed_mode == "content":
                seed = np.random.default_rng(
                    snapshot_seed_sequence(self.root_entropy(), snapshot)
                )
            else:
                seed = self._rng
            with trace("commute.backend_build", method=method,
                       n=snapshot.num_nodes):
                backend = CommuteTimeEmbedding(
                    snapshot.adjacency, k=self._k, seed=seed,
                    solver=self._solver, tol=self._tol,
                    health=self._health,
                )
        self._remember(digest, method, backend)
        if method == "exact":
            self._delta_parent = (snapshot.adjacency, backend)
        if shared_key is not None:
            self._factor_cache.put(
                shared_key, backend,
                nbytes=backend_nbytes(
                    backend,
                    snapshot.adjacency if method == "exact" else None,
                ),
                exactness="cold",
                adjacency=(snapshot.adjacency if method == "exact"
                           else None),
            )
        return backend

    def _delta_updated_backend(self, snapshot: GraphSnapshot,
                               digest: bytes, shared_key: tuple | None):
        """Try advancing the last exact ``L^+`` by rank-one updates.

        Returns the updated backend (remembered locally, stored in the
        factor cache at "updated" grade when ``shared_key`` is given,
        and adopted as the new delta parent), or ``None`` when the
        transition is out of budget or changes structure in a way the
        identities cannot absorb — the caller then factorizes from
        scratch.
        """
        parent_adjacency, parent_pinv = self._delta_parent
        backend, edits = updated_pseudoinverse(
            parent_adjacency, parent_pinv, snapshot.adjacency,
            self._delta_budget,
        )
        if backend is None:
            return None
        add_counter("commute_backend_delta_updates_total")
        self._remember(digest, "exact", backend)
        self._delta_parent = (snapshot.adjacency, backend)
        if shared_key is not None:
            self._factor_cache.put(
                shared_key, backend,
                nbytes=backend_nbytes(backend, snapshot.adjacency),
                exactness="updated", adjacency=snapshot.adjacency,
            )
        return backend

    def _remember(self, digest: bytes, method: str, backend) -> None:
        """Insert one backend into the two-deep content-keyed cache."""
        key = (digest, method)
        if key not in self._cache:
            self._cache_order.append(key)
        self._cache[key] = backend
        while len(self._cache_order) > 2:
            evicted = self._cache_order.pop(0)
            self._cache.pop(evicted, None)
