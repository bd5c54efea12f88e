"""Wire protocol of the detection service: config and payload serde.

Everything the HTTP layer exchanges is defined here as plain-data
documents, so the session layer never touches raw request bodies and
the formats can be tested without a socket:

* :class:`SessionConfig` — a validated session configuration parsed
  from the ``POST /sessions`` body;
* push payloads — one snapshot document
  (:func:`~repro.pipeline.serialize.snapshot_from_payload` format:
  ``edges`` or ``csr``) or a batch ``{"snapshots": [...]}``;
* response documents — push results, session summaries, and report
  documents reusing :mod:`repro.pipeline.serialize` so offline and
  online outputs are rendered identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.commute import DEFAULT_EXACT_LIMIT, SEED_MODES
from ..graphs.sanitize import SANITIZE_POLICIES
from ..pipeline.serialize import transition_to_entry
from .errors import BadRequestError

#: Session-config keys accepted by ``POST /sessions``.
CONFIG_KEYS = (
    "anomalies_per_transition", "warmup", "sanitize", "incremental",
    "method", "k", "seed", "solver", "exact_limit", "seed_mode",
    "factor_cache", "cache_budget_mb", "detector_options",
)

#: ``method=`` values that run the CAD stream (commute-time backends;
#: ``"cad"`` is an alias for the ``"auto"`` backend). Anything else is
#: looked up in the detector registry's streaming methods.
CAD_METHODS = ("exact", "approx", "auto", "cad")


@dataclass(frozen=True)
class SessionConfig:
    """Validated, JSON-round-trippable configuration of one session.

    Mirrors :class:`~repro.core.streaming.StreamingCadDetector`'s
    constructor. ``seed`` is restricted to an integer (or ``None``) so
    the configuration survives the eviction checkpoint's JSON sidecar.
    """

    anomalies_per_transition: int = 5
    warmup: int = 3
    sanitize: str | None = None
    incremental: bool = False
    method: str = "auto"
    k: int = 50
    seed: int | None = None
    solver: str = "cg"
    exact_limit: int = DEFAULT_EXACT_LIMIT
    seed_mode: str = field(default="stream")
    factor_cache: bool = False
    cache_budget_mb: int | None = None
    detector_options: dict | None = None

    @property
    def uses_cad(self) -> bool:
        """Whether this session runs the CAD stream (vs. a registry
        detector behind :class:`~repro.detectors.StreamingDetector`)."""
        return self.method in CAD_METHODS

    def detector_kwargs(self) -> dict[str, Any]:
        """Full ``StreamingCadDetector`` constructor arguments."""
        return {
            "anomalies_per_transition": self.anomalies_per_transition,
            "warmup": self.warmup,
            "sanitize": self.sanitize,
            "incremental": self.incremental,
            "method": "auto" if self.method == "cad" else self.method,
            "k": self.k,
            "seed": self.seed,
            "solver": self.solver,
            "exact_limit": self.exact_limit,
            "seed_mode": self.seed_mode,
            "factor_cache": "shared" if self.factor_cache else None,
            "cache_budget_mb": self.cache_budget_mb,
        }

    def stream_kwargs(self) -> dict[str, Any]:
        """:class:`~repro.detectors.StreamingDetector` constructor
        arguments (non-CAD methods)."""
        options = dict(self.detector_options or {})
        if self.seed is not None and "seed" not in options:
            options["seed"] = self.seed
        return {
            "method": self.method,
            "anomalies_per_transition": self.anomalies_per_transition,
            "warmup": self.warmup,
            "sanitize": self.sanitize,
            **options,
        }

    def to_document(self) -> dict[str, Any]:
        """JSON-ready form (the eviction sidecar format).

        ``detector_options``, ``factor_cache`` and ``cache_budget_mb``
        are omitted when unset so sidecars stay byte-compatible with
        ones written before those options existed.
        """
        document = {key: getattr(self, key) for key in CONFIG_KEYS}
        if document["detector_options"] is None:
            del document["detector_options"]
        if document["factor_cache"] is False:
            del document["factor_cache"]
        if document["cache_budget_mb"] is None:
            del document["cache_budget_mb"]
        return document


def parse_session_config(document: Any) -> SessionConfig:
    """Validate a ``POST /sessions`` body into a :class:`SessionConfig`.

    Raises:
        BadRequestError: on a non-object body, unknown keys, or values
            of the wrong type/range (reported with the offending key).
    """
    if document is None:
        document = {}
    if not isinstance(document, dict):
        raise BadRequestError(
            f"session config must be a JSON object, got "
            f"{type(document).__name__}"
        )
    unknown = sorted(set(document) - set(CONFIG_KEYS))
    if unknown:
        raise BadRequestError(
            f"unknown session config keys: {', '.join(unknown)} "
            f"(known: {', '.join(CONFIG_KEYS)})"
        )
    merged = {**{k: v for k, v in document.items()}}
    try:
        config = SessionConfig(**merged)
    except TypeError as exc:
        raise BadRequestError(f"invalid session config: {exc}") from exc
    _check_int(config.anomalies_per_transition,
               "anomalies_per_transition", minimum=1)
    _check_int(config.warmup, "warmup", minimum=1)
    _check_int(config.k, "k", minimum=1)
    _check_int(config.exact_limit, "exact_limit", minimum=1)
    if config.seed is not None:
        _check_int(config.seed, "seed")
    if config.sanitize is not None and config.sanitize not in \
            SANITIZE_POLICIES:
        raise BadRequestError(
            f"sanitize must be null or one of {list(SANITIZE_POLICIES)}, "
            f"got {config.sanitize!r}"
        )
    _check_method(config)
    if config.seed_mode not in SEED_MODES:
        raise BadRequestError(
            f"seed_mode must be one of {list(SEED_MODES)}, got "
            f"{config.seed_mode!r}"
        )
    if config.solver not in ("cg", "direct", "fallback"):
        raise BadRequestError(
            f"solver must be 'cg', 'direct' or 'fallback', got "
            f"{config.solver!r}"
        )
    if not isinstance(config.incremental, bool):
        raise BadRequestError(
            f"incremental must be a boolean, got {config.incremental!r}"
        )
    if not isinstance(config.factor_cache, bool):
        raise BadRequestError(
            f"factor_cache must be a boolean, got {config.factor_cache!r}"
        )
    if config.cache_budget_mb is not None:
        _check_int(config.cache_budget_mb, "cache_budget_mb", minimum=1)
    if config.factor_cache and not config.uses_cad:
        raise BadRequestError(
            "factor_cache=true requires a CAD session (method 'exact', "
            f"'approx', 'auto' or 'cad'), got method={config.method!r}"
        )
    return config


def _check_method(config: SessionConfig) -> None:
    """Validate ``method=`` (and its ``detector_options``) at session
    creation, so unknown methods fail the POST with the full catalogue
    instead of surfacing later and opaquely."""
    from ..detectors.registry import streaming_method_names
    from ..detectors.streaming import StreamingDetector
    from ..exceptions import ReproError

    streaming = streaming_method_names()
    if config.method not in set(CAD_METHODS) | set(streaming):
        known = sorted(set(CAD_METHODS) | set(streaming))
        raise BadRequestError(
            f"unknown method {config.method!r}; registered methods: "
            + ", ".join(known)
        )
    if config.uses_cad:
        if config.detector_options:
            raise BadRequestError(
                "detector_options only applies to registry methods "
                f"(got method={config.method!r}; use k/seed/solver/... "
                "for CAD sessions)"
            )
        return
    if config.incremental:
        raise BadRequestError(
            "incremental=true requires a CAD session (method 'exact', "
            f"'auto' or 'cad'), got method={config.method!r}"
        )
    if config.detector_options is not None and not isinstance(
            config.detector_options, dict):
        raise BadRequestError(
            "detector_options must be a JSON object, got "
            f"{type(config.detector_options).__name__}"
        )
    try:
        # Trial construction: bad option names/values fail the POST.
        StreamingDetector(**config.stream_kwargs())
    except (ReproError, TypeError) as exc:
        raise BadRequestError(
            f"invalid detector_options for method "
            f"{config.method!r}: {exc}"
        ) from exc


def _check_int(value: Any, name: str, minimum: int | None = None) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(
            f"{name} must be an integer, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise BadRequestError(
            f"{name} must be >= {minimum}, got {value}"
        )


def snapshot_documents(body: Any) -> list[dict[str, Any]]:
    """Normalise a push body into a list of snapshot payload documents.

    Accepts a single snapshot payload object or a batch
    ``{"snapshots": [payload, ...]}``.

    Raises:
        BadRequestError: on anything else, or an empty batch.
    """
    if not isinstance(body, dict):
        raise BadRequestError(
            f"push body must be a JSON object, got "
            f"{type(body).__name__}"
        )
    if "snapshots" in body:
        batch = body["snapshots"]
        if not isinstance(batch, list) or not batch:
            raise BadRequestError(
                "'snapshots' must be a non-empty list of snapshot "
                "payloads"
            )
        bad = [i for i, entry in enumerate(batch)
               if not isinstance(entry, dict)]
        if bad:
            raise BadRequestError(
                f"batch entries {bad} are not snapshot payload objects"
            )
        return list(batch)
    return [body]


def push_response(session_id: str,
                  results: list[Any],
                  detector: Any,
                  quarantined_before: int,
                  quarantined_after: int) -> dict[str, Any]:
    """Render a push's outcome as the response document.

    ``results`` holds one entry per pushed snapshot —
    :class:`~repro.core.results.TransitionResult` or ``None`` (first
    snapshot, warmup, or quarantine).
    """
    delta = detector.current_delta
    return {
        "session": session_id,
        "pushed": len(results),
        "transitions": [
            None if result is None else transition_to_entry(result)
            for result in results
        ],
        "num_transitions": detector.num_transitions,
        "current_delta": None if delta is None else float(delta),
        "warming_up": delta is None,
        "quarantined": quarantined_after - quarantined_before,
        "quarantined_total": quarantined_after,
    }
