"""Seeded input generators for the benchmark workloads.

Every sequence is a connected weighted random graph that evolves by
small edits (weight drift and/or edge churn) and carries one planted
anomalous change at a known transition: a handful of far-apart nodes
are suddenly tied together by heavy edges, which collapses their
commute times. The program under test only ever sees the generated
snapshots; the planted transition and node set stay with the
benchmark, which scores recall against them.

Generation depends on the seed alone (``numpy.random.default_rng``),
so the same seed yields byte-identical inputs on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

#: Nodes tied together by the planted change.
PLANTED_NODES = 6
#: Weight of each planted edge (ordinary edges weigh 1..2).
PLANTED_WEIGHT = 8.0


@dataclass(frozen=True)
class Sequence:
    """A generated snapshot sequence with its planted ground truth.

    Attributes:
        matrices: canonical symmetric CSR adjacencies, one per step.
        planted_transition: index ``t`` of the transition
            ``matrices[t] -> matrices[t + 1]`` carrying the anomaly.
        planted_nodes: the node indices tied together at that step.
    """

    matrices: tuple
    planted_transition: int
    planted_nodes: tuple

    @property
    def num_nodes(self) -> int:
        return self.matrices[0].shape[0]

    def snapshots(self):
        """The matrices as :class:`repro.graphs.GraphSnapshot` objects
        over one shared integer universe, timestamped ``0..T-1``."""
        from repro.graphs import GraphSnapshot, NodeUniverse

        universe = NodeUniverse.of_size(self.num_nodes)
        return [GraphSnapshot(matrix, universe, time=step)
                for step, matrix in enumerate(self.matrices)]

    def graph(self):
        """The sequence as a :class:`repro.graphs.DynamicGraph`."""
        from repro.graphs import DynamicGraph

        return DynamicGraph(self.snapshots())

    def payloads(self) -> list[dict]:
        """One JSON-ready ``repro.snapshot`` CSR payload per step."""
        return [
            {"time": step,
             "csr": {"data": matrix.data.tolist(),
                     "indices": matrix.indices.tolist(),
                     "indptr": matrix.indptr.tolist()}}
            for step, matrix in enumerate(self.matrices)
        ]


def _symmetric(n: int, rows: np.ndarray, cols: np.ndarray,
               weights: np.ndarray) -> sp.csr_matrix:
    upper = sp.coo_matrix((weights, (rows, cols)), shape=(n, n)).tocsr()
    matrix = (upper + upper.T).tocsr()
    matrix.sort_indices()
    return matrix


def _edge_key(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    low = np.minimum(rows, cols)
    high = np.maximum(rows, cols)
    return low.astype(np.int64) * n + high


def generate_sequence(seed: int, n: int, steps: int, *,
                      mean_degree: float = 6.0,
                      drift: float = 0.0,
                      edits: int = 0) -> Sequence:
    """A connected random sequence with one planted anomalous change.

    Args:
        seed: the only source of randomness.
        n: node count.
        steps: number of snapshots (``steps - 1`` transitions).
        mean_degree: average degree of the base graph.
        drift: relative log-normal weight drift applied to every edge
            at every step (``0.05`` = 5%).
        edits: edges re-weighted, added or removed per step. Tree
            edges are never removed, so every snapshot stays connected.

    The planted change sits at the middle transition.
    """
    rng = np.random.default_rng(seed)
    # A random recursive tree keeps every snapshot connected; extra
    # random edges bring the mean degree up.
    tree_child = np.arange(1, n)
    tree_parent = (rng.random(n - 1) * tree_child).astype(np.int64)
    extra = max(0, int(round(n * mean_degree / 2)) - (n - 1))
    rows = np.concatenate([tree_parent, rng.integers(0, n, extra)])
    cols = np.concatenate([tree_child, rng.integers(0, n, extra)])
    keep = rows != cols
    keys, first = np.unique(_edge_key(n, rows[keep], cols[keep]),
                            return_index=True)
    is_tree = np.zeros(keys.size, dtype=bool)
    is_tree[first < np.count_nonzero(keep[:n - 1])] = True
    weights = rng.uniform(1.0, 2.0, keys.size)
    edges = dict(zip(keys.tolist(), zip(weights.tolist(),
                                        is_tree.tolist())))

    planted_at = (steps - 1) // 2
    planted = tuple(sorted(rng.choice(n, PLANTED_NODES, replace=False)
                           .tolist()))

    matrices = []
    for step in range(steps):
        if step:
            _evolve(edges, n, rng, drift, edits)
        if step == planted_at + 1:
            ring = list(planted) + [planted[0]]
            for u, v in zip(ring, ring[1:]):
                key = min(u, v) * n + max(u, v)
                edges[key] = (PLANTED_WEIGHT, True)
        keys = np.fromiter(edges.keys(), dtype=np.int64, count=len(edges))
        weights = np.fromiter((w for w, _ in edges.values()),
                              dtype=np.float64, count=len(edges))
        matrices.append(_symmetric(n, keys // n, keys % n, weights))
    return Sequence(tuple(matrices), planted_at, planted)


def _evolve(edges: dict, n: int, rng: np.random.Generator,
            drift: float, edits: int) -> None:
    if drift:
        factors = np.exp(drift * rng.standard_normal(len(edges)))
        for (key, (weight, tree)), factor in zip(list(edges.items()),
                                                 factors.tolist()):
            edges[key] = (weight * factor, tree)
    removable = None
    for _ in range(edits):
        kind = rng.integers(3)
        if kind == 0:  # add a fresh edge
            u, v = rng.integers(0, n, 2).tolist()
            if u != v:
                edges.setdefault(min(u, v) * n + max(u, v),
                                 (float(rng.uniform(1.0, 2.0)), False))
            continue
        if removable is None:
            removable = [key for key, (_, tree) in edges.items()
                         if not tree]
        if not removable:
            continue
        key = removable[int(rng.integers(len(removable)))]
        if key not in edges:
            continue
        if kind == 1:  # re-weight
            edges[key] = (float(rng.uniform(1.0, 2.0)), False)
        else:  # remove a non-tree edge
            del edges[key]
