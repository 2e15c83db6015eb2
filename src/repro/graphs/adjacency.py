"""The adjacency-matrix graph type.

The paper's input is the constant ``A = {A(i, j) | i, j = 1..n}`` with
``A(i, j) = A(j, i) = 1`` iff nodes ``i`` and ``j`` are linked.  This module
wraps that matrix in a small value type that validates symmetry, normalises
the diagonal to zero (self-loops carry no information for connectivity and
generation 2 masks the diagonal anyway), and offers the handful of
conversions the rest of the library needs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.util.validation import check_index, check_symmetric_binary


class AdjacencyMatrix:
    """An immutable, validated undirected graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    matrix:
        Square, symmetric array of 0/1 entries.  The diagonal is forced to
        zero.  The data is copied; mutating the argument afterwards does not
        affect the instance.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: np.ndarray):
        matrix = check_symmetric_binary("adjacency matrix", matrix)
        np.fill_diagonal(matrix, 0)
        matrix.setflags(write=False)
        self._matrix = matrix

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The read-only ``n x n`` ``int8`` adjacency matrix."""
        return self._matrix

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return int(self._matrix.sum()) // 2

    @property
    def density(self) -> float:
        """Fraction of possible edges present (1.0 for a complete graph)."""
        possible = self.n * (self.n - 1) // 2
        return self.edge_count / possible if possible else 0.0

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        check_index("node", node, self.n)
        return int(self._matrix[node].sum())

    def degrees(self) -> np.ndarray:
        """Vector of all node degrees."""
        return self._matrix.sum(axis=1).astype(np.int64)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_edge(self, i: int, j: int) -> bool:
        """``True`` iff the undirected edge ``{i, j}`` exists."""
        check_index("i", i, self.n)
        check_index("j", j, self.n)
        return bool(self._matrix[i, j])

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted array of the neighbours of ``node``."""
        check_index("node", node, self.n)
        return np.flatnonzero(self._matrix[node])

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate the undirected edges as ``(i, j)`` with ``i < j``."""
        rows, cols = np.nonzero(np.triu(self._matrix, k=1))
        return zip(rows.tolist(), cols.tolist())

    def edge_list(self) -> List[Tuple[int, int]]:
        """The undirected edges as a list of ``(i, j)`` pairs, ``i < j``."""
        return list(self.edges())

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[int]) -> "AdjacencyMatrix":
        """Induced subgraph on ``nodes`` (relabelled 0..k-1 in given order)."""
        idx = np.asarray(list(nodes), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError(f"subgraph nodes out of range [0, {self.n})")
        if len(set(idx.tolist())) != idx.size:
            raise ValueError("subgraph nodes must be distinct")
        return AdjacencyMatrix(self._matrix[np.ix_(idx, idx)])

    def complement(self) -> "AdjacencyMatrix":
        """The complement graph (edges flipped, no self-loops)."""
        comp = 1 - self._matrix
        np.fill_diagonal(comp, 0)
        return AdjacencyMatrix(comp)

    def relabeled(self, permutation: Iterable[int]) -> "AdjacencyMatrix":
        """Return the graph with node ``i`` renamed to ``permutation[i]``.

        ``permutation`` must be a permutation of ``0..n-1``.
        """
        perm = np.asarray(list(permutation), dtype=np.int64)
        if sorted(perm.tolist()) != list(range(self.n)):
            raise ValueError("permutation must be a permutation of 0..n-1")
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(self.n)
        return AdjacencyMatrix(self._matrix[np.ix_(inverse, inverse)])

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdjacencyMatrix):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._matrix, other._matrix)

    def __hash__(self) -> int:
        return hash((self.n, self._matrix.tobytes()))

    def __repr__(self) -> str:
        return (
            f"AdjacencyMatrix(n={self.n}, edges={self.edge_count}, "
            f"density={self.density:.3f})"
        )
