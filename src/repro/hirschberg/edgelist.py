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

The constructors turn raw endpoint arrays (any orientation, self-loops
and repeats allowed) into the canonical directed form in one packed
int64 buffer: ``lo * n + hi`` is packed in place, sorted in place and
unpacked by one ``divmod`` straight into the output.  Their peak memory
above the input is the larger of the output (4 words per distinct pair)
and about 2.1 words per raw pair; 10^6 nodes with 5*10^6 pairs
canonicalise in about 0.3 s on a 2-core x86 host (E33).  The
scatter-min iteration is timed against union-find up to 10^5 nodes in
``benchmarks/bench_edgelist_scaling.py``; at 10^6 nodes and beyond the
contracting engine (:mod:`repro.hirschberg.contracting`) solves these
graphs level by level.
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


def _first_of_runs(key: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in the
    sorted 1-D array ``key``."""
    first = np.empty(key.size, dtype=bool)
    if key.size:
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
    return first


def _compact_ids(u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(np.concatenate([u, v]), return_inverse=True)`` for
    integer id arrays: the sorted distinct ids, and for each entry of
    ``u`` then ``v`` the index of its id among them.

    Since NumPy 2.3 ``np.unique`` hashes before it sorts.  This packs
    ``id << bits | position`` into one int64 buffer, sorts it in place
    and unpacks it with a shift and a mask; past the int64 packing
    bound it falls back to a stable argsort.  No scratch scales with
    the id range.
    """
    key = np.concatenate([u, v]).astype(np.int64, copy=False)
    size = key.size
    if not size:
        return key, key.copy()
    bits = size.bit_length()
    if max(int(key.max()) + 1, -int(key.min())) <= 1 << (63 - bits):
        pos = np.arange(size)
        key <<= bits
        key |= pos
        key.sort()
        np.bitwise_and(key, (1 << bits) - 1, out=pos)
        key >>= bits
    else:
        pos = np.argsort(key, kind="stable")
        key = key[pos]
    first = _first_of_runs(key)
    ids = key[first]
    # the sorted ids are spent: their buffer takes each entry's local id
    np.cumsum(first, out=key)
    key -= 1
    local = np.empty(size, dtype=np.int64)
    local[pos] = key
    return ids, local


def _unpack_unique(k: int, key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted duplicate-free ``(key // k, key % k)`` pairs of the
    sorted packed keys ``key``, unpacked by one ``divmod`` whose
    remainder overwrites the compressed keys."""
    hi = key[_first_of_runs(key)]
    lo = np.empty_like(hi)
    np.divmod(hi, k, out=(lo, hi))
    return lo, hi


def _ordered_pairs(
    n: int, u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Fresh int64 ``(min(u, v), max(u, v))``, with every endpoint
    checked against ``range(n)``."""
    lo = np.minimum(u, v, dtype=np.int64)
    hi = np.maximum(u, v, dtype=np.int64)
    if lo.size:
        _check_range(n, int(lo.min()), int(hi.max()))
    return lo, hi


def _check_range(n: int, low: int, high: int) -> None:
    if low < 0 or high >= n:
        raise IndexError(
            f"edge endpoint out of range for n={n}: "
            f"saw values in [{low}, {high}]"
        )


def _sorted_pair_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The packed ``lo * n + hi`` keys of the raw pairs without
    self-loops, sorted, duplicates kept.  Needs ``n <= _PACK_LIMIT``.

    The key is packed into the ``lo`` buffer and sorted in place;
    self-loops become ``-1`` and are sliced off the front after the
    sort, so the only pair-sized arrays allocated are ``lo``, ``hi``
    (released once packed) and a mask of the loops.
    """
    key, hi = _ordered_pairs(n, u, v)
    loops = key == hi
    key *= n
    key += hi
    del hi
    dropped = int(np.count_nonzero(loops))
    if dropped:
        np.copyto(key, -1, where=loops)
    del loops
    key.sort()
    return key[dropped:]


def _lexsorted_pairs(
    n: int, u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The canonical pairs by lexsort, for ``n`` past the packing limit."""
    lo, hi = _ordered_pairs(n, u, v)
    keep = lo != hi
    if not keep.all():
        lo, hi = lo[keep], hi[keep]
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    keep = np.ones(lo.size, dtype=bool)
    keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return lo[keep], hi[keep]


def _canonical_pairs(
    n: int, u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted, duplicate-free ``(lo, hi)`` pairs with ``lo < hi`` of
    the raw endpoint arrays ``u``, ``v`` (any orientation, self-loops
    and repeats allowed; ids checked against ``range(n)``)."""
    if n > _PACK_LIMIT:
        return _lexsorted_pairs(n, u, v)
    return _unpack_unique(n, _sorted_pair_keys(n, u, v))


def _canonical_directed(
    n: int, u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` of :class:`EdgeListGraph`: the canonical pairs of
    the raw arrays followed by their mirror.

    The distinct keys are unpacked straight into ``src``, whose halves
    are then mirrored into ``dst``, so the peak above the input is the
    output itself: no filtered copies, no ``lo``/``hi`` pair, no
    concatenation.
    """
    if n > _PACK_LIMIT:
        lo, hi = _lexsorted_pairs(n, u, v)
        return np.concatenate([lo, hi]), np.concatenate([hi, lo])
    key = _sorted_pair_keys(n, u, v)
    key = key[_first_of_runs(key)]
    k = key.size
    src = np.empty(2 * k, dtype=np.int64)
    np.divmod(key, n, out=(src[:k], src[k:]))
    del key
    dst = np.empty(2 * k, dtype=np.int64)
    dst[:k] = src[k:]
    dst[k:] = src[:k]
    return src, dst


def _as_ids(a) -> np.ndarray:
    """``a`` as a 1-D integer array: an ndarray whose dtype casts safely
    to int64 is used as is (the kernels widen on the fly), anything
    else is converted to int64."""
    if not (isinstance(a, np.ndarray) and np.can_cast(a.dtype, np.int64)):
        a = np.asarray(a, dtype=np.int64)
    return a.reshape(-1)


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
        if assume_canonical:
            u = np.ascontiguousarray(u, dtype=np.int64).ravel()
            v = np.ascontiguousarray(v, dtype=np.int64).ravel()
        else:
            u, v = _as_ids(u), _as_ids(v)
        if u.shape != v.shape:
            raise ValueError(
                f"endpoint arrays differ in length: {u.size} vs {v.size}"
            )
        if not assume_canonical:
            src, dst = _canonical_directed(n, u, v)
        elif u.size:
            _check_range(n, min(int(u.min()), int(v.min())),
                         max(int(u.max()), int(v.max())))
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
    lo, hi = _canonical_pairs(n, u, v)
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
