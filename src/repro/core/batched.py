"""Batched whole-field execution: many graphs per NumPy dispatch.

The GCA's promise is that all ``n(n+1)`` cells compute simultaneously;
the throughput unit of a production deployment is *many graphs*.  This
module runs ``B`` same-size graphs as one disjoint union of ``B * n``
vertices, with global ids ``slot * n + v``, so the Python dispatch
overhead of the schedule is paid once per outer iteration for the whole
batch instead of once per graph.

An outer iteration (generations 1-11 of Figure 2) reads nothing of the
``(n+1) x n`` field but its label column ``D[:n, 0]``: generation 1
rebroadcasts it.  :func:`_apply_iteration` therefore computes the
iteration as the map on that column it is, from the edges that still
join two different labels (the cross pairs) -- the form of a round in
Liu and Tarjan's ALTER step and in Burkhardt's label propagation:

* iteration 0 starts from the identity labels, so generations 1-8
  reduce to each row's first neighbour;
* every later iteration does generations 1-8 as two scatter-mins of
  the partners' labels onto the endpoints' supervertices;
* generations 9-11 are pointer jumps on the column, stopped at the
  first no-op jump (exact: a jump that changes nothing is a fixed
  point), then ``min(c, hooked[c])``.

The field the 11 generations leave is ``D[:n, :] = hooked[:, None]``,
``D[n, :] = hooked`` and ``D[:n, 0] = labels``, with ``hooked`` the
column of generations 5-8 that :func:`_apply_iteration` returns; the run
never materialises it.

:class:`BatchedGCA` reads each input matrix once: it writes ``A != 0``
into its slot of a ``(B, n, n)`` bool stack and checks it there with
:func:`repro.util.validation.check_adjacency_into`, the rule
:class:`~repro.graphs.adjacency.AdjacencyMatrix` applies too (an
``AdjacencyMatrix`` input is not checked again).  A graph with at most
``n^2 / SPARSE_DIVISOR`` nonzeros (``repro.util.validation``; 48) is
checked on its nonzeros' flat keys, which the run can start from.  So
iteration 0 has two starts, with the same result:

* **pairs**, when every graph of the batch is sparse: the keys, sorted
  by row, are the directed edges; each row's first key is its first
  neighbour, and the keys with ``i < j`` whose labels differ after
  iteration 0 are the cross pairs;
* **grid**, otherwise: ``argmax`` over the stack gives the first
  neighbours, and one ``(C[i] != C[j]) & A & (i < j)`` mask over the
  stack the cross pairs.  Above about 2% nonzeros in a batch of 16
  this beats finding the keys graph by graph (EXPERIMENTS.md E38).

From there each iteration drops the pairs whose labels now agree, for
good (equal labels stay equal).  A graph is at its fixed point exactly
when it has no cross pair left, so an iteration that leaves its labels
unchanged is the one that starts without any; past that point no pair
of that graph is left to process.
``early_exit`` only decides what the counts report: with it, each graph
reports the iterations up to and including that no-op one; without it,
every graph reports the full schedule.  The labels are the same.

Two entry points:

* :class:`BatchedGCA` -- the engine for one bucket of same-size graphs;
* :func:`connected_components_batch` -- the mixed-size convenience API
  that buckets inputs by ``n`` and reassembles the labels in input order.

This is the repository's only fused field kernel:
:func:`repro.core.vectorized.run_vectorized` runs it at ``B = 1``.  The
test-suite rebuilds the whole field from ``hooked`` and the labels and
checks it against generations 1-11 of the per-generation reference
:func:`repro.core.vectorized.apply_generation` after every iteration,
and checks the labels against the interpreter and the union-find oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.schedule import generations_per_iteration
from repro.graphs.adjacency import AdjacencyMatrix
from repro.util.intmath import jump_iterations, outer_iterations
from repro.util.validation import (
    check_adjacency_into,
    check_square,
    sparse_keys,
)

GraphLike = Union[AdjacencyMatrix, np.ndarray]

_NAME = "adjacency matrix"  # the name AdjacencyMatrix validates under


def _as_square(graph: GraphLike) -> Union[AdjacencyMatrix, np.ndarray]:
    """``graph`` itself if it is validated, else as a square array."""
    if isinstance(graph, AdjacencyMatrix):
        return graph
    return check_square(_NAME, np.asarray(graph))


def _order(graph: Union[AdjacencyMatrix, np.ndarray]) -> int:
    return graph.n if isinstance(graph, AdjacencyMatrix) else graph.shape[0]


@dataclass
class BatchedResult:
    """Outcome of a batched run over ``B`` same-size graphs.

    Attributes
    ----------
    labels:
        ``(B, n)`` -- canonical labels per graph, in input order.
    n:
        Graph size shared by the batch.
    batch_size:
        Number of graphs ``B``.
    iterations:
        Scheduled outer iterations (``ceil(log2 n)`` unless overridden).
    iterations_run:
        ``(B,)`` -- outer iterations each graph reports as executed.
    converged_at_iteration:
        ``(B,)`` -- 0-based index of the first iteration that left the
        graph's labels unchanged, or ``-1`` if it ran the full schedule.
    """

    labels: np.ndarray
    n: int
    batch_size: int
    iterations: int
    iterations_run: np.ndarray
    converged_at_iteration: np.ndarray

    @property
    def component_counts(self) -> np.ndarray:
        """Number of components of each graph, shape ``(B,)``.

        The labels are canonical (each component carries its smallest
        vertex), so a graph's components are its fixed points
        ``labels[v] == v``.
        """
        fixed = self.labels == np.arange(self.n)
        return fixed.sum(axis=1, dtype=np.int64)

    def generations_run(self) -> np.ndarray:
        """Generations each graph executed: ``1 + iters * (3 log n + 8)``."""
        if self.n == 0:
            return np.zeros(self.batch_size, dtype=np.int64)
        return 1 + self.iterations_run * generations_per_iteration(self.n)


class BatchedGCA:
    """Run ``B`` same-size graphs as one disjoint union of ``B * n`` vertices.

    Parameters
    ----------
    graphs:
        Non-empty sequence of graphs, all with the same node count.
    iterations:
        Outer-iteration override (default ``ceil(log2 n)``).
    early_exit:
        Report each graph as stopping at the first iteration that leaves
        its labels unchanged (default on).  The work and the labels are
        the same either way: no iteration touches a graph past its fixed
        point; without early exit every graph reports the full schedule.
    """

    def __init__(
        self,
        graphs: Sequence[GraphLike],
        iterations: Optional[int] = None,
        early_exit: bool = True,
    ):
        graphs = list(graphs)
        if not graphs:
            raise ValueError("BatchedGCA needs at least one graph")
        try:
            mats = [_as_square(g) for g in graphs]
        except ValueError:
            mats = None
        if mats is None or len({_order(m) for m in mats}) > 1:
            _raise_first_fault(graphs)
        n = _order(mats[0])
        B = len(mats)
        # one pass over each matrix: validate it into its slot of the
        # bool stack; a sparse one also yields its nonzeros' flat keys
        adjacent = np.empty((B, n, n), dtype=np.bool_)
        keys: Optional[List[np.ndarray]] = []
        for slot, m in enumerate(mats):
            if isinstance(m, AdjacencyMatrix):  # checked already
                np.copyto(adjacent[slot], m.matrix.view(np.bool_))
                k = None if keys is None else sparse_keys(adjacent[slot])
            else:
                k = check_adjacency_into(_NAME, m, adjacent[slot])
            if keys is not None and k is not None:
                keys.append(k + slot * n * n)
            else:
                keys = None
        self.n = n
        self.batch_size = B
        self.iterations = outer_iterations(n) if iterations is None else iterations
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        self.early_exit = early_exit
        adjacent.reshape(B, n * n)[:, :: n + 1] = False  # no self-loops
        self._adjacent = adjacent
        # every graph sparse: the sorted flat keys slot*n*n + i*n + j of
        # the batch's nonzeros (diagonal included)
        self._keys = None if keys is None else np.concatenate(keys)

    # ------------------------------------------------------------------
    def run(self) -> BatchedResult:
        n = self.n
        B = self.batch_size
        iterations_run = np.full(B, self.iterations, dtype=np.int64)
        converged_at = np.full(B, -1, dtype=np.int64)
        if n == 0:
            # A zero-node graph has no labels and runs no iteration.
            return BatchedResult(
                labels=np.empty((B, 0), dtype=np.int64),
                n=0,
                batch_size=B,
                iterations=self.iterations,
                iterations_run=np.zeros(B, dtype=np.int64),
                converged_at_iteration=converged_at,
            )
        jumps = jump_iterations(n)

        labels = np.arange(B * n, dtype=np.intp)  # global ids slot*n + v
        if self._keys is None:
            edges = None
            live = self._adjacent.reshape(B, -1).any(axis=1)
        else:
            edges = _edge_pairs(self._keys, n)
            live = np.zeros(B, dtype=bool)
            live[edges[0] // n] = True
        # graphs with a cross pair at the start of the current iteration:
        # at iteration 0 every edge crosses
        was_live = np.ones(B, dtype=bool)
        u = v = None

        for it in range(self.iterations):
            if self.early_exit:
                # no cross pair left: iteration it is the graph's no-op
                fixed = was_live & ~live
                converged_at[fixed] = it
                iterations_run[fixed] = it + 1
            if not live.any():
                break
            was_live = live
            if it > 0:
                _apply_iteration(labels, u, v, jumps)
                crossing = labels[u] != labels[v]
                u, v = u[crossing], v[crossing]
            elif edges is None:
                _apply_iteration(labels, None, None, jumps,
                                 first=_first_neighbours(self._adjacent))
                u, v = _cross_pairs(labels, self._adjacent)
            else:
                u, v = edges
                _apply_iteration(labels, None, None, jumps,
                                 first=_first_partners(u, v, B * n))
                crossing = (u < v) & (labels[u] != labels[v])
                u, v = u[crossing], v[crossing]
            live = np.zeros(B, dtype=bool)
            live[u // n] = True

        out = labels.reshape(B, n).astype(np.int64)
        out -= (np.arange(B, dtype=np.int64) * n)[:, None]
        return BatchedResult(
            labels=out,
            n=n,
            batch_size=B,
            iterations=self.iterations,
            iterations_run=iterations_run,
            converged_at_iteration=converged_at,
        )


def _raise_first_fault(graphs: List[GraphLike]) -> None:
    """Raise the error that checking ``graphs`` one by one, then their
    sizes, meets first."""
    mats = [g if isinstance(g, AdjacencyMatrix) else AdjacencyMatrix(g)
            for g in graphs]
    for k, m in enumerate(mats):
        if m.n != mats[0].n:
            raise ValueError(
                f"graph {k} has n={m.n}, batch has n={mats[0].n}; "
                "use connected_components_batch for mixed sizes"
            )


def _apply_iteration(
    labels: np.ndarray,
    u: Optional[np.ndarray],
    v: Optional[np.ndarray],
    jumps: int,
    first: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One outer iteration (generations 1-11) on the batch's label column.

    ``labels`` is the ``(B*n,)`` column of global ids, a star forest
    (every label is a root, ``labels[labels] == labels``); it is
    rewritten in place.  ``u < v`` are the cross pairs, the edges whose
    endpoints carry different labels.  On iteration 0 pass ``first``,
    each vertex's first neighbour (itself if isolated), instead (and
    ``None`` pairs): the labels are the identity there, so generations
    1-8 reduce to it.  Returns ``hooked``, the column generations 5-8
    leave, which generation 9 distributes over the field.
    """
    if first is not None:
        hooked = first
    else:
        # gens 1-8: T'[s] = min{C[j] : (i, j) crosses, C[i] = s}, else
        # C[s] -- each cross pair offers each endpoint's root the other's
        # label.  Only roots receive offers, so non-roots keep C[s].
        inf = labels.size
        cu, cv = labels[u], labels[v]
        hooked = np.full(inf, inf, dtype=labels.dtype)
        np.minimum.at(hooked, cu, cv)
        np.minimum.at(hooked, cv, cu)
        hooked = np.where(hooked == inf, labels, hooked)

    # gens 9-11: pointer jumping, then resolve mutual supernode pairs
    # through column 1 (= hooked[c]).  Min-neighbour hooking admits no
    # cycle longer than two, so jumping stops changing anything once
    # every vertex reaches its pair; stopping at that no-op is exact.
    c = hooked
    for _ in range(jumps):
        nxt = c[c]
        if np.array_equal(nxt, c):
            break
        c = nxt
    np.minimum(c, hooked[c], out=labels)
    return hooked


def _cross_pairs(
    labels: np.ndarray, adjacent: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Global ids ``u < v`` of the edges whose endpoints' labels differ."""
    B, n, _ = adjacent.shape
    # compare local labels in the narrowest dtype: the (B, n, n)
    # broadcast compare is the bulk of this pass, and uint8 runs it
    # about 7x faster than intp at n = 256
    local = labels.reshape(B, n) - (np.arange(B) * n)[:, None]
    local = local.astype(np.min_scalar_type(n - 1))
    cross = np.not_equal(local[:, :, None], local[:, None, :])
    cross &= adjacent
    vertex = np.arange(n)
    cross &= vertex[:, None] < vertex  # i < j
    u, j = np.divmod(np.flatnonzero(cross), n)  # u = slot*n + i
    return u, u - u % n + j


def _first_neighbours(adjacent: np.ndarray) -> np.ndarray:
    """Global id of each row's first neighbour in the ``(B, n, n)`` bool
    stack, the row's own id if it is isolated."""
    B, n, _ = adjacent.shape
    vertex = np.arange(B * n)
    first = adjacent.argmax(axis=2).reshape(-1)  # local, 0 if isolated
    has = adjacent.reshape(-1)[vertex * n + first]
    return np.where(has, vertex - vertex % n + first, vertex)


def _edge_pairs(keys: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Global endpoints ``(u, v)`` of the flat keys ``slot*n*n + i*n + j``,
    in key order, self-loops dropped."""
    u, j = np.divmod(keys, n)  # u = slot*n + i
    i = u % n
    loop = i == j
    if loop.any():
        keep = ~loop
        u, i, j = u[keep], i[keep], j[keep]
    return u, u - i + j


def _first_partners(u: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
    """Each vertex's first neighbour from the row-sorted pairs ``(u, v)``,
    the vertex itself if it has none: ``argmax`` of its adjacency row."""
    first = np.arange(size)
    head = np.empty(u.size, dtype=bool)
    head[:1] = True
    np.not_equal(u[1:], u[:-1], out=head[1:])
    first[u[head]] = v[head]
    return first


def connected_components_batch(
    graphs: Sequence[GraphLike],
    iterations: Optional[int] = None,
    early_exit: bool = True,
) -> List[np.ndarray]:
    """Connected components of many graphs, batched by size.

    Buckets ``graphs`` by node count, runs one :class:`BatchedGCA` per
    bucket and returns the canonical label vectors in input order.
    """
    # validated once, in input order, as AdjacencyMatrix: BatchedGCA
    # takes those without checking them again
    mats = [g if isinstance(g, AdjacencyMatrix) else AdjacencyMatrix(g)
            for g in graphs]
    buckets: Dict[int, List[int]] = {}
    for pos, m in enumerate(mats):
        buckets.setdefault(m.n, []).append(pos)
    out: List[Optional[np.ndarray]] = [None] * len(mats)
    for _, positions in sorted(buckets.items()):
        result = BatchedGCA(
            [mats[p] for p in positions],
            iterations=iterations,
            early_exit=early_exit,
        ).run()
        for row, pos in enumerate(positions):
            out[pos] = result.labels[row]
    return out  # type: ignore[return-value]
