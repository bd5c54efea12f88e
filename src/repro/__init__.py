"""repro — a reproduction of *Localizing anomalous changes in
time-evolving graphs* (Sricharan & Das, SIGMOD 2014).

The package implements **CAD** (Commute-time based Anomaly Detection in
dynamic graphs) together with every substrate it relies on — a
temporal-graph model, Laplacian solvers, an approximate commute-time
embedding, the paper's baseline detectors, its dataset simulators and
its evaluation harness.

Quick start::

    import repro

    toy = repro.toy_example()
    detector = repro.CadDetector(method="exact")
    report = detector.detect(toy.graph, anomalies_per_transition=6)
    print(report.summary())
"""

from .baselines import (
    ActDetector,
    AdjDetector,
    AfmDetector,
    ClcDetector,
    ComDetector,
)
from .core import (
    CadDetector,
    CommuteTimeCalculator,
    DetectionReport,
    Detector,
    EventScoreDetector,
    GenericDistanceDetector,
    OnlineThresholdSelector,
    StreamingCadDetector,
    TransitionResult,
    TransitionScores,
    explain_node,
    explain_transition,
    select_global_threshold,
)
from .detectors import (
    FusionDetector,
    InvariantDetector,
    LadDetector,
    StreamingDetector,
    create_detector,
    graph_invariants,
    invariant_matrix,
    laplacian_signature,
    list_methods,
    method_names,
    scan_statistics,
)
from .datasets import (
    DblpLikeSimulator,
    EnronLikeSimulator,
    PrecipitationSimulator,
    generate_dblp_instance,
    generate_gaussian_mixture_instance,
    generate_scalability_instance,
    toy_example,
)
from .exceptions import (
    CheckpointError,
    DatasetError,
    DetectionError,
    EmbeddingError,
    EvaluationError,
    GraphConstructionError,
    ParallelExecutionError,
    ReproError,
    SanitizationError,
    SolverError,
    ThresholdError,
)
from .graphs import (
    DynamicGraph,
    GraphSnapshot,
    NodeUniverse,
    SanitizationReport,
    gaussian_similarity_graph,
    knn_graph,
    sanitize_adjacency,
    sanitize_snapshot,
    snapshot_from_edges,
)
from .linalg import (
    CommuteTimeEmbedding,
    LaplacianSolver,
    commute_time_matrix,
    laplacian,
    laplacian_pseudoinverse,
    sparsify,
)
from .parallel import ParallelCadDetector
from .pipeline import detect, detect_windowed, make_detector
from .resilience import (
    FallbackPolicy,
    FallbackSolver,
    FaultInjector,
    HealthReport,
    read_checkpoint,
    write_checkpoint,
)

__version__ = "1.0.0"

__all__ = [
    "ActDetector",
    "AdjDetector",
    "AfmDetector",
    "CadDetector",
    "CheckpointError",
    "ClcDetector",
    "ComDetector",
    "CommuteTimeCalculator",
    "CommuteTimeEmbedding",
    "DatasetError",
    "DblpLikeSimulator",
    "DetectionError",
    "DetectionReport",
    "Detector",
    "DynamicGraph",
    "EmbeddingError",
    "EnronLikeSimulator",
    "EvaluationError",
    "EventScoreDetector",
    "FallbackPolicy",
    "FallbackSolver",
    "FaultInjector",
    "FusionDetector",
    "GenericDistanceDetector",
    "GraphConstructionError",
    "GraphSnapshot",
    "HealthReport",
    "InvariantDetector",
    "LadDetector",
    "LaplacianSolver",
    "NodeUniverse",
    "OnlineThresholdSelector",
    "ParallelCadDetector",
    "ParallelExecutionError",
    "PrecipitationSimulator",
    "ReproError",
    "SanitizationError",
    "SanitizationReport",
    "SolverError",
    "StreamingCadDetector",
    "StreamingDetector",
    "ThresholdError",
    "TransitionResult",
    "TransitionScores",
    "commute_time_matrix",
    "create_detector",
    "detect",
    "detect_windowed",
    "explain_node",
    "explain_transition",
    "graph_invariants",
    "invariant_matrix",
    "laplacian_signature",
    "list_methods",
    "method_names",
    "scan_statistics",
    "sparsify",
    "gaussian_similarity_graph",
    "generate_dblp_instance",
    "generate_gaussian_mixture_instance",
    "generate_scalability_instance",
    "knn_graph",
    "laplacian",
    "laplacian_pseudoinverse",
    "make_detector",
    "read_checkpoint",
    "sanitize_adjacency",
    "sanitize_snapshot",
    "select_global_threshold",
    "snapshot_from_edges",
    "toy_example",
    "write_checkpoint",
    "__version__",
]
