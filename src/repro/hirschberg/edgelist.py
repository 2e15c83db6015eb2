"""Work-efficient edge-list variant of Hirschberg's algorithm.

The paper's field works on the dense adjacency matrix -- ``Theta(n^2)``
cells, the regime where Hirschberg's algorithm is work-optimal.  For
*sparse* graphs a modern library user wants the same iteration structure
at ``O((n + m) log n)`` work.  This module provides exactly that: the six
steps re-expressed over an edge list with ``numpy.minimum.at`` scatter
reductions instead of row-wise matrix minima.

Semantically it is the same algorithm -- identical iteration structure,
identical per-iteration labellings (asserted against the reference in the
tests) -- so it also documents that the paper's mapping decisions
(the ``n^2`` temporaries, the tree reductions) are an artefact of the
*dense* target architecture, not of the algorithm.

Scales comfortably to hundreds of thousands of nodes; see
``benchmarks/bench_edgelist_scaling.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from repro.graphs.adjacency import AdjacencyMatrix
from repro.util.intmath import jump_iterations, outer_iterations
from repro.util.validation import check_positive

GraphLike = Union[AdjacencyMatrix, np.ndarray]

#: Largest ``n`` for which an (u, v) pair can be packed into one int64.
#: The exact overflow boundary for the worst packed key ``n * n + n - 1``
#: (the scatter-argmin sentinel) is ``floor(sqrt(2**63)) - 1 =
#: 3_037_000_498``; the limit sits deliberately below it so every packed
#: form in this package (``u * n + v`` with ``u, v < n``, and the argmin
#: sentinel) stays inside int64 with margin, including at the
#: ``n = 2**31`` boundary (which packs fine: ``2**62 < 2**63``).  Beyond
#: the limit the constructors fall back to lexsort; code paths with no
#: fallback raise a clear ``ValueError`` instead of wrapping silently.
_PACK_LIMIT = 3_000_000_000


def _sorted_unique(key: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the 1-D integer array ``key``.

    Equal to ``np.unique(key)``, computed as a sort plus an adjacent
    inequality mask.  Since NumPy 2.3 ``np.unique`` first builds a hash
    set of the keys and then sorts it; on packed int64 edge keys that
    costs 20-60x a plain ``np.sort`` at every size from 10^4 to 10^7.
    On older NumPy ``np.unique`` runs this same sort-and-mask, so one
    path serves every version.
    """
    key = np.sort(key)
    if key.size < 2:
        return key
    keep = np.empty(key.size, dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    return key[keep]


def _canonical_pairs(
    n: int, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted, duplicate-free ``(lo, hi)`` pairs with ``lo < hi``."""
    if lo.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if n <= _PACK_LIMIT:
        key = lo * np.int64(n)
        key += hi
        return np.divmod(_sorted_unique(key), n)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    keep = np.ones(lo.size, dtype=bool)
    keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return lo[keep], hi[keep]


@dataclass(frozen=True)
class EdgeListGraph:
    """A graph as directed edge arrays (both directions present).

    Attributes
    ----------
    n:
        Node count.
    src, dst:
        Arrays of equal length; every undirected edge ``{u, v}`` appears
        as both ``(u, v)`` and ``(v, u)`` so per-node reductions see all
        neighbours.  The constructors normalise their input: self-loops
        are dropped and parallel edges deduplicated, so ``src.size`` is
        exactly twice the number of distinct undirected edges.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray

    @property
    def edge_count(self) -> int:
        """Number of *undirected* edges."""
        return int(self.src.size) // 2

    @staticmethod
    def from_arrays(
        n: int, u: np.ndarray, v: np.ndarray, assume_canonical: bool = False
    ) -> "EdgeListGraph":
        """Build from parallel endpoint arrays (vectorised).

        Self-loops are dropped and parallel edges (including an edge given
        in both orientations) are deduplicated.  ``assume_canonical=True``
        skips the normalisation for callers that already hold sorted,
        duplicate-free ``u < v`` pairs.
        """
        check_positive("n", n)
        u = np.ascontiguousarray(u, dtype=np.int64).ravel()
        v = np.ascontiguousarray(v, dtype=np.int64).ravel()
        if u.shape != v.shape:
            raise ValueError(
                f"endpoint arrays differ in length: {u.size} vs {v.size}"
            )
        if u.size:
            low = min(int(u.min()), int(v.min()))
            high = max(int(u.max()), int(v.max()))
            if low < 0 or high >= n:
                raise IndexError(
                    f"edge endpoint out of range for n={n}: "
                    f"saw values in [{low}, {high}]"
                )
        if not assume_canonical:
            keep = u != v  # drop self-loops up front
            if not keep.all():
                u, v = u[keep], v[keep]
            u, v = _canonical_pairs(n, np.minimum(u, v), np.maximum(u, v))
        if u.size:
            src = np.concatenate([u, v])
            dst = np.concatenate([v, u])
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        graph = EdgeListGraph(n=n, src=src, dst=dst)
        # the first half of (src, dst) is now the sorted duplicate-free
        # u < v pair set; stamp that so content hashing can trust it
        # without re-verifying (the stamp travels only through the
        # constructors -- direct dataclass construction never has it)
        object.__setattr__(graph, "_canonical", True)
        return graph

    @staticmethod
    def from_edges(
        n: int, edges: Iterable[Tuple[int, int]]
    ) -> "EdgeListGraph":
        """Build from an iterable of undirected ``(u, v)`` pairs.

        Self-loops are dropped and parallel edges deduplicated (an
        undirected edge listed as both ``(u, v)`` and ``(v, u)`` counts
        once).
        """
        check_positive("n", n)
        pairs = [(int(u), int(v)) for u, v in edges]
        if not pairs:
            return EdgeListGraph.from_arrays(
                n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            )
        arr = np.asarray(pairs, dtype=np.int64)
        return EdgeListGraph.from_arrays(n, arr[:, 0], arr[:, 1])

    @staticmethod
    def from_adjacency(graph: GraphLike) -> "EdgeListGraph":
        """Convert a dense adjacency graph."""
        g = graph if isinstance(graph, AdjacencyMatrix) else AdjacencyMatrix(np.asarray(graph))
        # flat indices of the 0/1 bytes split into (row, col): the same
        # row-major pairs as np.nonzero, about 3x faster on dense input
        flat = np.flatnonzero(g.matrix.view(np.bool_)).astype(np.int64, copy=False)
        rows, cols = np.divmod(flat, max(g.n, 1))
        return EdgeListGraph(n=g.n, src=rows, dst=cols)


@dataclass
class EdgeListResult:
    """Outcome of an edge-list run."""

    labels: np.ndarray
    iterations: int

    @property
    def component_count(self) -> int:
        return int(np.unique(self.labels).size)


def _scatter_min(target: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``target[index] = min(target[index], values)`` elementwise groups."""
    if index.size:
        np.minimum.at(target, index, values)


def _one_iteration(
    graph: EdgeListGraph, C: np.ndarray, jumps: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Steps 2-6 over the edge list.  Returns ``(new C, step-3 T)``."""
    n = graph.n
    sentinel = np.int64(n)  # one past any node id: the edge-list infinity

    # step 2: T(u) = min{ C(v) : (u,v) edge, C(v) != C(u) } else C(u)
    T = np.full(n, sentinel, dtype=np.int64)
    cu, cv = C[graph.src], C[graph.dst]
    foreign = cu != cv
    _scatter_min(T, graph.src[foreign], cv[foreign])
    T = np.where(T == sentinel, C, T)

    # step 3: T'(i) = min{ T(j) : C(j) = i, T(j) != i } else C(i)
    T3 = np.full(n, sentinel, dtype=np.int64)
    nontrivial = T != C          # T(j) != C(j) implies T(j) != i for i=C(j)
    _scatter_min(T3, C[nontrivial], T[nontrivial])
    T3 = np.where(T3 == sentinel, C, T3)

    # step 4: hook
    C = T3.copy()
    # step 5: pointer jumping
    for _ in range(jumps):
        C = C[C]
    # step 6: resolve mutual pairs
    C = np.minimum(C, T3[C])
    return C, T3


def connected_components_edgelist(
    graph: Union[EdgeListGraph, GraphLike],
    iterations: Optional[int] = None,
) -> EdgeListResult:
    """Canonical component labels over an edge list.

    Accepts an :class:`EdgeListGraph` or any dense graph (converted).
    """
    g = (
        graph
        if isinstance(graph, EdgeListGraph)
        else EdgeListGraph.from_adjacency(graph)
    )
    n = g.n
    total = outer_iterations(n) if iterations is None else iterations
    if total < 0:
        raise ValueError(f"iterations must be >= 0, got {total}")
    jumps = jump_iterations(n)
    C = np.arange(n, dtype=np.int64)
    for _ in range(total):
        C, _T = _one_iteration(g, C, jumps)
    return EdgeListResult(labels=C, iterations=total)


def random_edge_list(
    n: int, m: int, seed: Union[None, int, np.random.Generator] = None
) -> EdgeListGraph:
    """A random multigraph-free edge list with ~``m`` undirected edges --
    the workload generator for the large-scale bench (sampling pairs
    directly instead of materialising an n x n matrix)."""
    from repro.util.rng import as_generator

    check_positive("n", n)
    if n < 2 or m <= 0:
        return EdgeListGraph.from_edges(n, [])
    rng = as_generator(seed)
    u = rng.integers(0, n, size=2 * m)
    v = rng.integers(0, n, size=2 * m)
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    lo, hi = _canonical_pairs(n, lo, hi)
    return EdgeListGraph.from_arrays(n, lo[:m], hi[:m], assume_canonical=True)


# ----------------------------------------------------------------------
# spanning forest at edge-list scale
# ----------------------------------------------------------------------

def _scatter_argmin(
    n: int, index: np.ndarray, values: np.ndarray, witnesses: np.ndarray,
    sentinel_value: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Grouped ``(min value, witness of a minimal entry)`` via packing.

    Packs ``value * n + witness`` (both < n) so one ``minimum.at`` yields
    the minimum value together with the smallest witness attaining it --
    the scatter-reduction form of the dense variant's argmin.
    """
    if n > _PACK_LIMIT:
        # the packed sentinel is n * n + n - 1; past the limit it (and
        # packed keys near it) would wrap int64 and corrupt the argmin
        raise ValueError(
            f"packed scatter-argmin supports at most n = {_PACK_LIMIT:,} "
            f"nodes (int64 packing); got n = {n:,}"
        )
    packed_sentinel = sentinel_value * n + (n - 1)
    packed = np.full(n, packed_sentinel, dtype=np.int64)
    if index.size:
        np.minimum.at(packed, index, values * n + witnesses)
    best_value = packed // n
    best_witness = packed % n
    return best_value, best_witness


def spanning_forest_edgelist(
    graph: Union[EdgeListGraph, GraphLike],
    iterations: Optional[int] = None,
) -> Tuple[np.ndarray, list]:
    """Spanning forest over an edge list: ``(labels, forest_edges)``.

    The same hook-witness extraction as
    :func:`repro.extensions.spanning_forest.spanning_forest`, expressed
    with packed scatter-argmin reductions so it scales with the edge
    count.  The forest is acyclic, spans every component, and uses only
    graph edges (oracle-verified in the tests up to 10^5 nodes).
    """
    g = (
        graph
        if isinstance(graph, EdgeListGraph)
        else EdgeListGraph.from_adjacency(graph)
    )
    n = g.n
    if n > _PACK_LIMIT:
        # fail clearly *before* the O(n) allocations below: the packed
        # argmin reductions would silently wrap int64 past this point
        raise ValueError(
            f"spanning_forest_edgelist packs (value, witness) pairs into "
            f"int64 and supports at most n = {_PACK_LIMIT:,} nodes; got "
            f"n = {n:,}"
        )
    total = outer_iterations(n) if iterations is None else iterations
    if total < 0:
        raise ValueError(f"iterations must be >= 0, got {total}")
    jumps = jump_iterations(n)
    sentinel = np.int64(n)
    C = np.arange(n, dtype=np.int64)
    forest: list = []

    for _ in range(total):
        # step 2 with witnesses: T[u] = min foreign C[v]; W[u] = that v
        cu, cv = C[g.src], C[g.dst]
        foreign = cu != cv
        T, W = _scatter_argmin(
            n, g.src[foreign], cv[foreign], g.dst[foreign], int(sentinel)
        )
        had_candidate = T != sentinel
        T = np.where(had_candidate, T, C)

        # step 3 with witnesses: per super node s, the member j whose T won
        nontrivial = (T != C) & had_candidate
        members = np.flatnonzero(nontrivial)
        T3, J = _scatter_argmin(
            n, C[members], T[members], members, int(sentinel)
        )
        hooked = T3 != sentinel
        T3 = np.where(hooked, T3, C)

        # collect hook edges (drop the larger side of mutual pairs)
        supernodes = np.flatnonzero((C == np.arange(n)) & hooked)
        for s in supernodes.tolist():
            target = int(T3[s])
            if int(T3[target]) == s and C[target] == target and target < s:
                continue
            j = int(J[s])
            w = int(W[j])
            forest.append((min(j, w), max(j, w)))

        # steps 4-6
        C = T3.copy()
        for _j in range(jumps):
            C = C[C]
        C = np.minimum(C, T3[C])

    return C, forest
