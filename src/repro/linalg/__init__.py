"""Laplacian linear algebra: solvers, pseudoinverses, embeddings, eigen."""

from .distances import (
    DISTANCE_REGISTRY,
    commute_distance_matrix,
    forest_distance_matrix,
    resistance_distance_matrix,
    shortest_path_distance_matrix,
)
from .embedding import (
    CommuteTimeEmbedding,
    estimate_embedding_error,
    suggest_embedding_dimension,
)
from .eigen import (
    fiedler_vector,
    laplacian_eigenmaps,
    principal_eigenvector,
    principal_left_singular_vector,
    top_eigenpairs,
)
from .laplacian import (
    degree_vector,
    dense_laplacian,
    graph_volume,
    incidence_factors,
    laplacian,
    laplacian_quadratic_form,
)
from .pseudoinverse import (
    commute_time_matrix,
    commute_times_for_pairs,
    effective_resistance_matrix,
    laplacian_pseudoinverse,
)
from .factorcache import (
    FactorCache,
    resolve_factor_cache,
    shared_cache,
    updated_pseudoinverse,
)
from .solvers import (
    LaplacianSolver,
    block_conjugate_gradient,
    conjugate_gradient,
    make_solver,
)
from .sparsify import effective_resistances, sparsify
from .updates import (
    rank_one_merge_update,
    rank_one_update,
)

__all__ = [
    "CommuteTimeEmbedding",
    "DISTANCE_REGISTRY",
    "FactorCache",
    "LaplacianSolver",
    "block_conjugate_gradient",
    "commute_distance_matrix",
    "effective_resistances",
    "estimate_embedding_error",
    "forest_distance_matrix",
    "rank_one_merge_update",
    "rank_one_update",
    "resolve_factor_cache",
    "shared_cache",
    "updated_pseudoinverse",
    "resistance_distance_matrix",
    "shortest_path_distance_matrix",
    "sparsify",
    "commute_time_matrix",
    "commute_times_for_pairs",
    "conjugate_gradient",
    "degree_vector",
    "dense_laplacian",
    "effective_resistance_matrix",
    "fiedler_vector",
    "graph_volume",
    "incidence_factors",
    "laplacian",
    "laplacian_eigenmaps",
    "laplacian_pseudoinverse",
    "laplacian_quadratic_form",
    "make_solver",
    "principal_eigenvector",
    "principal_left_singular_vector",
    "suggest_embedding_dimension",
    "top_eigenpairs",
]
