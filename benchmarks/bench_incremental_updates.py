"""Extension bench: incremental pseudoinverse vs per-snapshot recompute.

Temporal transitions usually touch few edges; the rank-one
Sherman–Morrison updates of
:func:`~repro.linalg.factorcache.updated_pseudoinverse` advance ``L^+``
at O(n^2) per edit instead of O(n^3) per snapshot. This bench measures the crossover on an
Enron-scale graph and verifies exactness.
"""

import numpy as np
import pytest

from repro.evaluation import time_callable
from repro.graphs import random_sparse_graph
from repro.linalg import laplacian_pseudoinverse, updated_pseudoinverse
from repro.pipeline import render_table

N = 400
EDIT_COUNTS = (1, 4, 16, 64)


@pytest.fixture(scope="module")
def graph():
    return random_sparse_graph(N, mean_degree=6.0, seed=11,
                               connected=True)


def test_incremental_vs_recompute(benchmark, graph, emit):
    rng = np.random.default_rng(5)
    pseudoinverse = laplacian_pseudoinverse(graph.adjacency)

    def edited(count):
        """The graph with ``count`` random edge weights set."""
        target = graph.adjacency.tolil()
        for _ in range(count):
            i, j = rng.integers(0, N, size=2)
            while i == j:
                i, j = rng.integers(0, N, size=2)
            target[i, j] = target[j, i] = float(rng.uniform(0.2, 2.0))
        return target.tocsr()

    recompute_time = time_callable(
        "recompute",
        lambda: laplacian_pseudoinverse(graph.adjacency),
        repeats=3,
    ).best

    one_edit = edited(1)
    benchmark.pedantic(
        lambda: updated_pseudoinverse(graph.adjacency, pseudoinverse,
                                      one_edit),
        rounds=1, iterations=1,
    )

    rows = []
    for count in EDIT_COUNTS:
        target = edited(count)
        result = {}

        def advance(target=target, result=result):
            result["pinv"], result["edits"] = updated_pseudoinverse(
                graph.adjacency, pseudoinverse, target,
                delta_budget=count,
            )

        incremental_time = time_callable(
            f"incremental-{count}", advance, repeats=1,
        ).best
        # exactness check against a fresh recompute
        expected = laplacian_pseudoinverse(target)
        error = float(np.max(np.abs(result["pinv"] - expected)))
        rows.append((result["edits"], incremental_time, recompute_time,
                     error))
    emit("incremental_updates", render_table(
        ("edits", "incremental (s)", "full recompute (s)", "max |err|"),
        rows,
        title=f"Incremental L+ maintenance vs recompute (n={N})",
        float_format="{:.3g}",
    ))

    # a single edit must be much cheaper than recomputing
    single = rows[0][1]
    assert single < recompute_time
    # and the updated pseudoinverse stays numerically exact
    assert max(row[3] for row in rows) < 1e-6
