"""Contracting sparse variant of Hirschberg's algorithm.

The edge-list variant (:mod:`repro.hirschberg.edgelist`) already brings
the paper's algorithm from ``Theta(n^2)`` field cells down to
``O((n + m) log n)`` work -- but it keeps *all* ``n`` vertices and all
``m`` edges live in every outer iteration, even though most of them are
settled after the first round or two.  Modern concurrent-components work
(Liu & Tarjan 2019; Burkhardt 2018) observes that the hook-and-shortcut
iteration structure composes with **graph contraction**: once an outer
iteration has merged vertices into supervertices, the next iteration only
needs the *contracted* graph -- one vertex per supervertex, with
intra-supervertex and duplicate edges removed.

This module implements that scheme on one ``(a, b)`` pair per
undirected edge, the edge set the Liu--Tarjan and Burkhardt algorithms
are stated over.  Each outer iteration:

1. runs Hirschberg's steps 2-6 on the current contracted graph.  The
   labels start every level from the identity (each supervertex is its
   own supernode), so step 2 reduces to "minimum neighbour per vertex"
   and step 3 to the identity.  The reduction is two MIN-combining
   scatters, ``b`` into ``a`` and ``a`` into ``b`` (``np.minimum.at`` --
   the CRCW-MIN discipline of :mod:`repro.hirschberg.fastsv`);
2. relabels the surviving supervertices to a dense ``0..k-1`` range in
   O(n_t) -- the hook forest is idempotent after step 6 (all cycles are
   mutual pairs, resolved to their minimum), so the representatives are
   exactly the fixed points of the label array, and one scatter of
   ``arange(k)`` numbers them with no sort or prefix sum;
3. maps the pairs through the relabelling and drops the
   intra-supervertex survivors, so level ``t+1`` runs on ``(n_{t+1},
   m_{t+1})`` instead of ``(n, m)``;
4. drops duplicate contracted pairs (either orientation) as packed
   ``min * k + max`` keys **when that is cheap**: by an in-place sort up
   to ``2**18`` pairs, by a ``k * k`` counting table past that when
   ``k <= 4096``.  Both give the same sorted ``(lo, hi)`` arrays.  Early
   huge levels skip the dedup -- a comparison sort of millions of keys
   costs more than the duplicate scatters it would save (measured in
   ``benchmarks/bench_sparse_scaling.py``) -- which only delays, never
   loses, edges: the per-level pair count is non-increasing either way.

A per-level minimum-original-index array plays the contraction stack
(each representative is its group's minimum member, so the array is a
gather of the last one at the representatives): composing the per-level
vertex maps and reading that array off at the end
reproduces the paper's canonical labelling (component label = minimum
*original* node index), validated against
:func:`repro.hirschberg.fastsv.fastsv_reference` and the union-find
oracle in the tests.

Because every vertex with at least one incident edge merges with a
neighbour each round, the number of non-isolated supervertices at least
halves per level, so the engine terminates within ``ceil(log2 n)`` levels
-- on real sparse graphs the active problem collapses much faster than
that bound (the result records the measured ``(n_t, m_t)`` series).

Streamed pass
-------------
Once a giant component forms, both endpoints of almost every later
edge already share a root.  Uncapped runs on ``m >= 3n`` undirected
edges, ``m >= 2 * first`` for ``first = max(2**16, n // 4)``, that are
not id-local therefore stream their pairs
(:meth:`~repro.hirschberg.edgelist.EdgeListGraph.pairs`: the two halves
of a canonical graph's ``src``, each edge once) past a resident star
forest ``L`` (vertex -> minimum vertex of its component so far).  Each
contiguous chunk of ``max(first, pairs done)`` pairs gathers ``L[u]``,
``L[v]`` and drops the pairs that agree (Afforest's filter); the
surviving roots are compacted through a reused mark array, contracted
with the level loop and written back, then one ``L = L[L]`` runs.
Canonical pairs are sorted by ``lo``, so on id-local input (disjoint
blocks of nearby ids) a contiguous chunk holds blocks no earlier chunk
touched, and nothing filters.  Such input keeps the level loop: a median
``|hi - lo|`` below ``n / 8`` over about 1024 sampled pairs, which
catches blocks of up to about ``0.43 n`` ids (uniform pairs: about
``0.29 n``).  Inputs whose first chunk would hold most of the pairs
keep it too; both ran slower streamed (E29 in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.graphs.adjacency import AdjacencyMatrix
from repro.hirschberg.edgelist import _PACK_LIMIT, EdgeListGraph, _unpack_unique
from repro.util.intmath import jump_iterations, outer_iterations

GraphLike = Union[AdjacencyMatrix, np.ndarray]

#: Past the sort cap, dedup via a k*k counting table up to this k.  Below
#: the cap the sort runs: at k = 4096 with 16k pairs the 16 MB table took
#: 6.4 ms against the sort's 0.23 ms (E34).
_DEDUP_TABLE_K = 4096

#: Dedup via a packed-key sort (``_unpack_unique``) up to this many
#: pairs (2**19 directed edges); beyond it a comparison sort costs more
#: than the duplicates it saves.  Lifting the limit slowed the
#: contracting solve of n=10^6, m=5*10^6 random pairs from 0.53 s to
#: 0.84 s and of n=5*10^5, m=4*10^6 from 0.42 s to 0.57 s (2-core x86
#: host, NumPy 2.4), so the limit still pays.
_DEDUP_SORT_M = 1 << 18

#: Test pointer-jumping convergence (early exit) only on levels at least
#: this big; below it the test costs more than the jumps it can save.
_JUMP_CHECK_N = 512

#: Streamed pass: smallest first chunk (pairs).
_STREAM_FIRST = 1 << 16


@dataclass(frozen=True)
class ContractionLevel:
    """The problem size one outer iteration actually ran on."""

    n: int            #: supervertices entering the level
    m: int            #: both orientations: 2 x the pairs entering the level
    jumps: int        #: pointer jumps executed (early-exits on convergence)
    deduplicated: bool  #: whether this level's pairs were sorted/unique

    @property
    def edge_count(self) -> int:
        """Pairs entering the level (duplicates included on levels the
        dedup policy skipped)."""
        return self.m // 2


@dataclass
class ContractingResult:
    """Outcome of a contracting run.

    A streamed run always contracts to empty, but its ``levels`` are the
    per-chunk contraction records: every level of every chunk solve, in
    order.  Each chunk's records start at its compacted root count, not
    ``n``, so they do not shrink monotonically, and ``iterations`` and
    ``total_work`` count chunk-solve levels and work only.  The filter's
    ``L[u]``/``L[v]`` gathers over every pair and the one ``n``-sized
    ``L = L[L]`` per chunk are not counted.
    """

    labels: np.ndarray
    levels: List[ContractionLevel]
    contracted_to_empty: bool

    @property
    def iterations(self) -> int:
        """Number of outer iterations (= contraction levels) executed."""
        return len(self.levels)

    @property
    def component_count(self) -> int:
        """Distinct labels: canonical labels (partial runs included)
        name each group by its minimum, so count the fixed points."""
        labels = self.labels
        return int(np.count_nonzero(labels == np.arange(labels.size)))

    @property
    def total_work(self) -> int:
        """``sum(n_t + m_t)`` over the levels, ``m_t`` counting both
        orientations (2 x pairs).  On a level-loop run that is the
        contracted work, to set against the edge-list variant's
        ``iterations * (n + m)``; on a streamed run it leaves out the
        filter's touches (class docstring)."""
        return sum(level.n + level.m for level in self.levels)


def _min_neighbour(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Step 2 from identity labels: ``T[u] = min(neighbours of u)``,
    ``T[u] = u`` for isolated ``u``.

    Each pair names its edge once, so the reduction is two
    MIN-combining scatters, one per endpoint.
    """
    T = np.full(n, n, dtype=np.int64)
    np.minimum.at(T, a, b)
    np.minimum.at(T, b, a)
    isolated = T == n
    T[isolated] = np.flatnonzero(isolated)
    return T


def _dedup_edges(
    k: int, a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Drop duplicate pairs (``(u, v)`` and ``(v, u)`` are one) into
    sorted ``(lo, hi)`` order through packed ``min * k + max`` keys --
    but only while that is cheap: a sort up to ``_DEDUP_SORT_M`` pairs,
    a counting table past it for ``k <= _DEDUP_TABLE_K``.  Other levels
    are returned unchanged with ``deduplicated=False``."""
    if a.size == 0:
        return a, b, True
    # the k guard keeps the packed key inside int64: beyond the limit it
    # would wrap silently and merge unrelated edges -- skipping dedup is
    # always safe (duplicates only cost time, never correctness)
    sort = a.size <= _DEDUP_SORT_M and k <= _PACK_LIMIT
    if not sort and k > _DEDUP_TABLE_K:
        return a, b, False
    key = np.minimum(a, b)
    key *= k
    key += np.maximum(a, b)
    if sort:
        key.sort()
        return (*_unpack_unique(k, key), True)
    # flatnonzero returns the surviving keys sorted, as the sort would
    table = np.zeros(k * k, dtype=bool)
    table[key] = True
    lo, hi = np.divmod(np.flatnonzero(table), k)
    return lo, hi, True


def _one_contraction_round(
    n: int, a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool, int]:
    """Steps 2-6 from identity labels, then contract.

    Returns ``(phi, roots, new_a, new_b, deduplicated, jumps)`` where
    ``phi`` maps each current vertex to its supervertex in ``0..k-1``
    and ``roots`` lists the ``k`` representatives in ascending order.
    """
    T = _min_neighbour(n, a, b)

    # step 4: hook; step 5: pointer jumping; step 6: resolve mutual pairs.
    # The PRAM schedule prescribes ceil(log2 n) jumps, but hooking trees
    # are only as deep as the longest chain of decreasing min-neighbour
    # links -- a disjoint union of small blocks converges in two or
    # three.  Jumping is monotone toward the roots and the identity once
    # converged, so stopping at the first no-op jump is exact.  The
    # convergence test costs about one gather, so it only runs on levels
    # big enough for the saved jumps to outweigh it.
    check = n >= _JUMP_CHECK_N
    C = T  # jumps rebind C, so T stays intact
    jumps = 0
    for _ in range(jump_iterations(n)):
        nxt = C[C]
        jumps += 1
        if check and np.array_equal(nxt, C):
            break
        C = nxt
    C = np.minimum(C, T[C])

    # Min-neighbour hooking admits no cycles longer than two, and step 6
    # collapses each mutual pair to its minimum, so C is idempotent: the
    # supervertex representatives are exactly its fixed points.  They
    # get dense ids in index order by one scatter, with no sort.  Each
    # is its tree's minimum: the minimum x hooks to some y whose minimum
    # neighbour is x, and that mutual pair resolves to x.
    roots = np.flatnonzero(C == np.arange(n))
    k = int(roots.size)
    new_id = T  # T is spent: its buffer takes the dense ids
    new_id[roots] = np.arange(k)
    phi = new_id[C]

    # contract the pairs: map endpoints, drop intra-supervertex pairs,
    # then dedup when the policy says it pays.
    a, b = phi[a], phi[b]
    foreign = a != b
    a, b, deduplicated = _dedup_edges(k, a[foreign], b[foreign])
    return phi, roots, a, b, deduplicated, jumps


def _contract(
    n0: int, a: np.ndarray, b: np.ndarray, limit: int
) -> ContractingResult:
    """The level loop on the self-loop-free pairs ``(a[i], b[i])``."""
    n, deduplicated = n0, False
    to_current = np.arange(n0, dtype=np.int64)  # original -> current vertex
    orig_min = np.arange(n0, dtype=np.int64)    # current vertex -> min original
    levels: List[ContractionLevel] = []

    while a.size and len(levels) < limit:
        m, was_deduplicated = 2 * int(a.size), deduplicated
        phi, roots, a, b, deduplicated, jumps = _one_contraction_round(n, a, b)
        levels.append(ContractionLevel(
            n=n, m=m, jumps=jumps, deduplicated=was_deduplicated,
        ))
        # orig_min ascends, so a supervertex's minimum original is that
        # of its representative, its minimum member
        orig_min = orig_min[roots]
        to_current = phi[to_current]
        n = int(roots.size)

    return ContractingResult(orig_min[to_current], levels, not a.size)


def _id_local(n: int, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the pairs mostly join nearby ids: the median ``|hi - lo|``
    of about 1024 pairs spread over the arrays is below ``n / 8``."""
    step = max(1, lo.size // 1024)
    gap = np.abs(hi[::step].astype(np.int64) - lo[::step])
    return bool(np.median(gap) < n / 8)


def _streamed(
    n: int, lo: np.ndarray, hi: np.ndarray, first: int
) -> ContractingResult:
    """The streamed pass over the pairs ``(lo[i], hi[i])`` (module
    docstring); ``first`` is the first chunk's pair count."""
    L = np.arange(n, dtype=np.int64)  # a star forest: vertex -> its root
    mark = np.zeros(n, dtype=bool)
    pos = np.empty(n, dtype=np.int64)
    levels: List[ContractionLevel] = []
    m, done = int(lo.size), 0
    while done < m:
        end = min(m, done + max(first, done))
        a, b = L[lo[done:end]], L[hi[done:end]]
        done = end
        cross = a != b
        a, b = a[cross], b[cross]
        if not a.size:
            continue
        mark[a] = True
        mark[b] = True
        ids = np.flatnonzero(mark)  # ascending: local min = min root
        mark[ids] = False
        pos[ids] = np.arange(ids.size)
        chunk = _contract(ids.size, pos[a], pos[b], outer_iterations(ids.size))
        levels.extend(chunk.levels)
        L[ids] = ids[chunk.labels]  # each root -> its new minimum root
        L = L[L]
    return ContractingResult(L, levels, contracted_to_empty=True)


def _solve_pairs(
    n: int, a: np.ndarray, b: np.ndarray, max_levels: Optional[int] = None
) -> ContractingResult:
    """Canonical labels of the self-loop-free pairs ``(a[i], b[i])``, each
    edge at least once: streamed or by the level loop (module docstring)."""
    limit = outer_iterations(n) if max_levels is None else max_levels
    if limit < 0:
        raise ValueError(f"max_levels must be >= 0, got {limit}")
    m, first = int(a.size), max(_STREAM_FIRST, n // 4)
    if (max_levels is None and m >= 3 * n and m >= 2 * first
            and not _id_local(n, a, b)):
        return _streamed(n, a, b, first)
    return _contract(n, a, b, limit)


def connected_components_contracting(
    graph: Union[EdgeListGraph, GraphLike],
    max_levels: Optional[int] = None,
) -> ContractingResult:
    """Canonical component labels via contracting Hirschberg iterations.

    Accepts an :class:`~repro.hirschberg.edgelist.EdgeListGraph` or any
    dense graph (converted).  ``max_levels`` optionally caps the number of
    contraction levels (for instrumentation); when the cap stops the run
    before the edge set is empty, ``contracted_to_empty`` is ``False`` and
    the labels describe the partial merge, not the final components.
    Uncapped runs on at least three edges per vertex that are not
    id-local stream (module docstring).
    """
    g = (
        graph
        if isinstance(graph, EdgeListGraph)
        else EdgeListGraph.from_adjacency(graph)
    )
    a, b = g.pairs()
    return _solve_pairs(g.n, a, b, max_levels)
