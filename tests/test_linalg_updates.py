"""Unit tests for incremental Laplacian pseudoinverse updates."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import SolverError
from repro.graphs import random_sparse_graph
from repro.linalg import (
    laplacian_pseudoinverse,
    rank_one_merge_update,
    rank_one_update,
    updated_pseudoinverse,
)


@pytest.fixture
def graph():
    return random_sparse_graph(50, mean_degree=4.0, seed=3,
                               connected=True)


class TestRankOneUpdate:
    def test_matches_recompute_strengthen(self, graph):
        pseudo = laplacian_pseudoinverse(graph.adjacency)
        updated = rank_one_update(pseudo, 0, 1, 2.0)
        edited = graph.adjacency.tolil()
        edited[0, 1] = edited[1, 0] = edited[0, 1] + 2.0
        expected = laplacian_pseudoinverse(edited.tocsr())
        np.testing.assert_allclose(updated, expected, atol=1e-9)

    def test_matches_recompute_weaken(self, graph):
        # weaken an existing edge without deleting it
        adjacency = graph.adjacency.tolil()
        i, j = 0, graph.neighbors(0)[0]
        delta = -0.5 * float(adjacency[i, j])
        pseudo = laplacian_pseudoinverse(graph.adjacency)
        updated = rank_one_update(pseudo, i, j, delta)
        adjacency[i, j] = adjacency[j, i] = adjacency[i, j] + delta
        expected = laplacian_pseudoinverse(adjacency.tocsr())
        np.testing.assert_allclose(updated, expected, atol=1e-8)

    def test_zero_delta_is_identity(self, graph):
        pseudo = laplacian_pseudoinverse(graph.adjacency)
        np.testing.assert_array_equal(
            rank_one_update(pseudo, 0, 1, 0.0), pseudo
        )

    def test_self_loop_rejected(self, graph):
        pseudo = laplacian_pseudoinverse(graph.adjacency)
        with pytest.raises(SolverError):
            rank_one_update(pseudo, 2, 2, 1.0)

    def test_bridge_removal_detected(self):
        # path 0-1-2: deleting edge (1,2) splits the graph
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        adjacency[1, 2] = adjacency[2, 1] = 1.0
        pseudo = laplacian_pseudoinverse(adjacency)
        with pytest.raises(SolverError, match="component"):
            rank_one_update(pseudo, 1, 2, -1.0)


class TestRankOneMergeUpdate:
    def test_matches_recompute(self, disconnected_graph):
        pseudo = laplacian_pseudoinverse(disconnected_graph.adjacency)
        labels = np.array([0, 0, 1, 1])
        updated = rank_one_merge_update(pseudo, 1, 2, 1.3, labels)
        edited = disconnected_graph.adjacency.tolil()
        edited[1, 2] = edited[2, 1] = 1.3
        expected = laplacian_pseudoinverse(edited.tocsr())
        np.testing.assert_allclose(updated, expected, atol=1e-10)

    def test_isolated_node_joining(self):
        # Merging a singleton component exercises size-1 null blocks.
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 2.0
        pseudo = laplacian_pseudoinverse(adjacency)
        updated = rank_one_merge_update(pseudo, 1, 2, 0.5,
                                        np.array([0, 0, 1]))
        adjacency[1, 2] = adjacency[2, 1] = 0.5
        expected = laplacian_pseudoinverse(adjacency)
        np.testing.assert_allclose(updated, expected, atol=1e-10)

    def test_same_component_rejected(self, disconnected_graph):
        pseudo = laplacian_pseudoinverse(disconnected_graph.adjacency)
        with pytest.raises(SolverError, match="share a component"):
            rank_one_merge_update(pseudo, 0, 1, 1.0,
                                  np.array([0, 0, 1, 1]))

    def test_non_positive_weight_rejected(self, disconnected_graph):
        pseudo = laplacian_pseudoinverse(disconnected_graph.adjacency)
        with pytest.raises(SolverError, match="positive"):
            rank_one_merge_update(pseudo, 1, 2, 0.0,
                                  np.array([0, 0, 1, 1]))


def advance(adjacency, pseudoinverse, target, delta_budget=64):
    """``updated_pseudoinverse`` between two dense/sparse adjacencies."""
    return updated_pseudoinverse(sp.csr_matrix(adjacency), pseudoinverse,
                                 sp.csr_matrix(target), delta_budget)


class TestIncrementalPseudoinverse:
    """The one incremental engine: ``updated_pseudoinverse``."""

    def test_tracks_many_edits(self, graph):
        pseudo = laplacian_pseudoinverse(graph.adjacency)
        adjacency = graph.adjacency.tolil()
        rng = np.random.default_rng(0)
        for _ in range(12):
            i, j = rng.integers(0, 50, size=2)
            if i == j:
                continue
            weight = float(rng.uniform(0.1, 2.0))
            adjacency[i, j] = adjacency[j, i] = weight
        updated, edits = advance(graph.adjacency, pseudo, adjacency)
        assert edits > 0
        expected = laplacian_pseudoinverse(adjacency.tocsr())
        np.testing.assert_allclose(updated, expected, atol=1e-7)

    def test_component_merge_updates_without_recompute(
            self, disconnected_graph):
        pseudo = laplacian_pseudoinverse(disconnected_graph.adjacency)
        target = disconnected_graph.adjacency.toarray()
        target[1, 2] = target[2, 1] = 1.0  # joins the two components
        updated, edits = advance(disconnected_graph.adjacency, pseudo,
                                 target)
        assert edits == 1
        assert updated is not None  # absorbed, no fallback
        np.testing.assert_allclose(updated, laplacian_pseudoinverse(target),
                                   atol=1e-9)

    def test_growing_disconnected_graph_never_recomputes(self):
        # Regression: a graph assembled component by component used to
        # trigger a full O(n^3) recompute on *every* joining edge; the
        # Meyer merge update absorbs them all. Start from 8 isolated
        # pairs and stitch them into one path in one transition.
        adjacency = np.zeros((16, 16))
        for i in range(0, 16, 2):
            adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
        target = adjacency.copy()
        rng = np.random.default_rng(21)
        for i in range(1, 15, 2):
            target[i, i + 1] = target[i + 1, i] = float(
                rng.uniform(0.5, 2.0)
            )
        updated, edits = advance(adjacency,
                                 laplacian_pseudoinverse(adjacency), target)
        assert edits == 7
        assert updated is not None  # seven merges, no recompute
        np.testing.assert_allclose(updated, laplacian_pseudoinverse(target),
                                   atol=1e-8)

    def test_merge_then_within_component_edits_stay_consistent(self):
        # After a merge the relabelled components must feed later
        # Sherman–Morrison updates correctly.
        adjacency = np.zeros((6, 6))
        for i, j in [(0, 1), (1, 2), (3, 4), (4, 5)]:
            adjacency[i, j] = adjacency[j, i] = 1.0
        merged = adjacency.copy()
        merged[2, 3] = merged[3, 2] = 1.5  # merge the two paths
        edited = merged.copy()
        edited[0, 5] = edited[5, 0] = 0.7  # now within one component
        pseudo, _ = advance(adjacency, laplacian_pseudoinverse(adjacency),
                            merged)
        pseudo, _ = advance(merged, pseudo, edited)
        assert pseudo is not None
        np.testing.assert_allclose(pseudo, laplacian_pseudoinverse(edited),
                                   atol=1e-9)

    def test_component_split_recomputes(self):
        adjacency = np.zeros((4, 4))
        for i, j in [(0, 1), (1, 2), (2, 3)]:
            adjacency[i, j] = adjacency[j, i] = 1.0
        target = adjacency.copy()
        target[1, 2] = target[2, 1] = 0.0  # splits the path
        updated, edits = advance(adjacency,
                                 laplacian_pseudoinverse(adjacency), target)
        assert updated is None  # the caller must refactorize
        assert edits == 1

    def test_advance_to_matches_target(self, graph):
        from repro.graphs import perturb_weights

        target = perturb_weights(graph, 0.2, seed=9)
        updated, edits = advance(graph.adjacency,
                                 laplacian_pseudoinverse(graph.adjacency),
                                 target.adjacency, delta_budget=10_000)
        assert edits > 0
        expected = laplacian_pseudoinverse(target.adjacency)
        np.testing.assert_allclose(updated, expected, atol=1e-6)

    def test_commute_times_from_incremental(self, graph):
        from repro.linalg import commute_times_for_pairs

        target = graph.adjacency.tolil()
        target[0, 25] = target[25, 0] = 3.0
        target = target.tocsr()
        updated, _ = advance(graph.adjacency,
                             laplacian_pseudoinverse(graph.adjacency),
                             target)
        rows = np.array([0, 5])
        cols = np.array([25, 30])
        expected = commute_times_for_pairs(target, rows, cols)
        np.testing.assert_allclose(
            commute_times_for_pairs(target, rows, cols,
                                    pseudoinverse=updated),
            expected, atol=1e-7,
        )

    def test_rejects_negative_weight(self, disconnected_graph):
        target = disconnected_graph.adjacency.toarray()
        target[1, 2] = target[2, 1] = -1.0  # a "merging" negative edge
        with pytest.raises(SolverError):
            advance(disconnected_graph.adjacency,
                    laplacian_pseudoinverse(disconnected_graph.adjacency),
                    target)

    def test_noop_edit(self, graph):
        pseudo = laplacian_pseudoinverse(graph.adjacency)
        updated, edits = advance(graph.adjacency, pseudo,
                                 graph.adjacency.copy())
        assert edits == 0
        assert updated is pseudo  # no-op returns the parent
