"""Batched whole-field execution: many graphs per NumPy dispatch.

The GCA's promise is that all ``n(n+1)`` cells compute simultaneously;
the throughput unit of a production deployment is *many graphs*.  This
module stacks ``B`` same-size graphs into one ``(B, n+1, n)`` field and
runs each outer iteration for the whole batch at once, so the Python
dispatch overhead of the schedule is paid once per iteration for the
whole batch instead of once per graph.

An outer iteration (generations 1-11 of Figure 2) reads nothing of the
field but its label column ``D[:n, 0]``: generation 1 rebroadcasts it.
:func:`_apply_iteration` therefore computes the iteration as the map on
that column it is -- generations 1-4 as one masked row minimum over the
adjacency, generations 5-8 as one scatter-min of the hooks onto their
supervertices (the label-propagation form of Burkhardt and of Liu and
Tarjan), generations 9-11 as pointer jumps on the column -- and then
writes the field the 11 generations leave, once.

Convergence is tracked per graph: an outer iteration that leaves a
graph's label column ``D[g, :n, 0]`` unchanged has reached that graph's
fixed point.  Converged graphs retire from the batch -- their labels are
written to the output and the remaining graphs are compacted to a
contiguous prefix -- so a batch's cost tracks its stragglers, not its
size times the worst case.

Two entry points:

* :class:`BatchedGCA` -- the engine for one bucket of same-size graphs;
* :func:`connected_components_batch` -- the mixed-size convenience API
  that buckets inputs by ``n`` and reassembles the labels in input order.

:func:`_apply_iteration` is the repository's only fused field kernel:
:func:`repro.core.vectorized.run_vectorized` runs it at ``B = 1``.  The
test-suite checks its whole field against generations 1-11 of the
per-generation reference :func:`repro.core.vectorized.apply_generation`,
and its labels against the interpreter and the union-find oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.schedule import generations_per_iteration
from repro.graphs.adjacency import AdjacencyMatrix
from repro.util.intmath import jump_iterations, outer_iterations
from repro.util.sentinels import infinity_for

GraphLike = Union[AdjacencyMatrix, np.ndarray]


def _as_matrix(graph: GraphLike) -> np.ndarray:
    if isinstance(graph, AdjacencyMatrix):
        return graph.matrix
    return AdjacencyMatrix(np.asarray(graph)).matrix


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
        ``(B,)`` -- outer iterations each graph actually executed.
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
    """Run ``B`` same-size graphs as one stacked ``(B, n+1, n)`` field.

    Parameters
    ----------
    graphs:
        Non-empty sequence of graphs, all with the same node count.
    iterations:
        Outer-iteration override (default ``ceil(log2 n)``).
    early_exit:
        Retire graphs from the batch as soon as an iteration leaves their
        labels unchanged (default on -- labels are bit-identical either
        way, only the work shrinks).
    """

    def __init__(
        self,
        graphs: Sequence[GraphLike],
        iterations: Optional[int] = None,
        early_exit: bool = True,
    ):
        mats = [_as_matrix(g) for g in graphs]
        if not mats:
            raise ValueError("BatchedGCA needs at least one graph")
        n = mats[0].shape[0]
        for k, m in enumerate(mats):
            if m.shape[0] != n:
                raise ValueError(
                    f"graph {k} has n={m.shape[0]}, batch has n={n}; "
                    "use connected_components_batch for mixed sizes"
                )
        self.n = n
        self.batch_size = len(mats)
        self.iterations = outer_iterations(n) if iterations is None else iterations
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        self.early_exit = early_exit
        self._matrices = mats
        # the field only ever holds values 0..n(n+1); int32 halves the
        # memory traffic of the (memory-bound) whole-batch kernels
        self._dtype = (
            np.int32
            if n == 0 or infinity_for(n) <= np.iinfo(np.int32).max
            else np.int64
        )

    # ------------------------------------------------------------------
    def run(self) -> BatchedResult:
        n = self.n
        B = self.batch_size
        if n == 0:
            # A zero-node graph has no labels and needs no field at all.
            return BatchedResult(
                labels=np.empty((B, 0), dtype=np.int64),
                n=0,
                batch_size=B,
                iterations=self.iterations,
                iterations_run=np.zeros(B, dtype=np.int64),
                converged_at_iteration=np.full(B, -1, dtype=np.int64),
            )
        if n == 1:
            # A lone node is its own component and every iteration is a
            # fixed point.  Generation 11's pointer d*n + 1 reads the
            # archive row at n = 1, which D[:, :, 1] cannot express.
            ran = min(self.iterations, 1) if self.early_exit else self.iterations
            return BatchedResult(
                labels=np.zeros((B, 1), dtype=np.int64),
                n=1,
                batch_size=B,
                iterations=self.iterations,
                iterations_run=np.full(B, ran, dtype=np.int64),
                converged_at_iteration=np.full(
                    B, 0 if self.early_exit and ran else -1, dtype=np.int64
                ),
            )
        inf = infinity_for(n)
        jumps = jump_iterations(n)

        out_labels = np.empty((B, n), dtype=np.int64)
        iterations_run = np.full(B, self.iterations, dtype=np.int64)
        converged_at = np.full(B, -1, dtype=np.int64)

        # generation 0 on the whole stacked field
        D = np.empty((B, n + 1, n), dtype=self._dtype)
        D[:, :, :] = np.arange(n + 1, dtype=self._dtype)[None, :, None]

        # the stacked adjacency belongs to this run, so retirement can
        # compact it in place along with the field
        adjacent = np.empty((B, n, n), dtype=bool)
        for slot, matrix in enumerate(self._matrices):
            np.equal(matrix, 1, out=adjacent[slot])
        index = np.arange(B)                     # original slot of each row
        prev = D[:, :n, 0].copy()
        # scratch, sliced down as the batch shrinks
        mask = np.empty((B, n, n), dtype=bool)

        for it in range(self.iterations):
            k = D.shape[0]
            _apply_iteration(D, adjacent, mask[:k], n, inf, jumps)
            labels = D[:, :n, 0]
            if not self.early_exit:
                continue
            changed = np.any(labels != prev, axis=1)
            if not changed.all():
                done = ~changed
                retired = index[done]
                out_labels[retired] = labels[done]
                iterations_run[retired] = it + 1
                converged_at[retired] = it
                # compact the survivors into a contiguous prefix of the
                # same buffers (each moves down, never up), which shrinks
                # every later iteration's working set without allocating
                keep = np.flatnonzero(changed)
                for dst, src in enumerate(keep.tolist()):
                    if dst != src:
                        D[dst] = D[src]
                        adjacent[dst] = adjacent[src]
                live = keep.size
                D, adjacent = D[:live], adjacent[:live]
                index, prev = index[keep], prev[:live]
                if live == 0:
                    break
            np.copyto(prev, D[:, :n, 0])

        if index.size:
            out_labels[index] = D[:, :n, 0]

        return BatchedResult(
            labels=out_labels,
            n=n,
            batch_size=B,
            iterations=self.iterations,
            iterations_run=iterations_run,
            converged_at_iteration=converged_at,
        )


def _apply_iteration(
    D: np.ndarray,
    adjacent: np.ndarray,
    mask: np.ndarray,
    n: int,
    inf: int,
    jumps: int,
) -> None:
    """One outer iteration (generations 1..11) on the stacked field.

    The iteration reads nothing of ``D`` but the label column
    ``C = D[:, :n, 0]`` (generation 1 rebroadcasts it), so the kernel
    computes the iteration map on that column and writes the field the
    11 generations leave once, at the end.  ``adjacent`` is the ``(k, n,
    n)`` bool adjacency and ``mask`` a bool scratch buffer of the same
    shape; every array carries a leading batch axis ``k``.
    """
    k = D.shape[0]
    C = D[:, :n, 0].copy()

    # gens 1-4: T[i] = min{C[j] : A(i, j), C[j] != C[i]}, else C[i] --
    # one masked row minimum, without the masked integer field.  An
    # empty row is left at inf rather than C[i]: gens 5-8 drop both
    np.not_equal(C[:, None, :], C[:, :, None], out=mask)
    np.logical_and(mask, adjacent, out=mask)
    T = np.min(
        np.broadcast_to(C[:, None, :], mask.shape),
        axis=2, where=mask, initial=inf,
    )

    # gens 5-8: T'[i] = min{T[j] : C[j] = i, T[j] != i}, else C[i] --
    # each hooking vertex j offers T[j] to the supervertex C[j], so the
    # n x n member mask is one scatter-min over the k*n labels (an
    # offer of inf changes nothing)
    hooked = np.full(k * n, inf, dtype=D.dtype)
    offers = T != C
    rows = np.arange(k).reshape(k, 1) * n
    np.minimum.at(hooked, (rows + C)[offers], T[offers])
    hooked = hooked.reshape(k, n)
    np.copyto(hooked, C, where=hooked == inf)

    # gens 9-11: pointer jumping on the distributed label column, then
    # resolve mutual supernode pairs through column 1 (= hooked[c])
    c = hooked
    for _ in range(jumps):
        c = np.take_along_axis(c, c, axis=1)
    resolved = np.minimum(c, np.take_along_axis(hooked, c, axis=1))

    D[:, :n, :] = hooked[:, :, None]
    D[:, n, :] = hooked
    D[:, :n, 0] = resolved


def connected_components_batch(
    graphs: Sequence[GraphLike],
    iterations: Optional[int] = None,
    early_exit: bool = True,
) -> List[np.ndarray]:
    """Connected components of many graphs, batched by size.

    Buckets ``graphs`` by node count, runs one :class:`BatchedGCA` per
    bucket and returns the canonical label vectors in input order.
    """
    mats = [_as_matrix(g) for g in graphs]
    buckets: Dict[int, List[int]] = {}
    for pos, m in enumerate(mats):
        buckets.setdefault(m.shape[0], []).append(pos)
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
