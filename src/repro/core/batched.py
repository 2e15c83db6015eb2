"""Batched whole-field execution: many graphs per NumPy dispatch.

The GCA's promise is that all ``n(n+1)`` cells compute simultaneously;
the throughput unit of a production deployment is *many graphs*.  This
module stacks ``B`` same-size graphs into one ``(B, n+1, n)`` field and
executes every generation as a single whole-batch NumPy operation, so the
Python dispatch overhead of the 12-generation schedule is paid once per
generation for the whole batch instead of once per graph.

Convergence is tracked per graph: an outer iteration that leaves a
graph's label column ``D[g, :n, 0]`` unchanged has reached that graph's
fixed point (the iteration map is a deterministic function of the label
column alone -- see :mod:`repro.core.vectorized`).  Converged graphs
retire from the batch -- their labels are written to the output and the
remaining graphs are compacted to a contiguous prefix -- so a batch's
cost tracks its stragglers, not its size times the worst case.

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
from repro.util.intmath import (
    jump_iterations,
    outer_iterations,
    reduction_subgenerations,
)
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
        """Number of components of each graph, shape ``(B,)``."""
        return np.array(
            [np.unique(row).size for row in self.labels], dtype=np.int64
        )

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
        self._not_adjacent = np.stack(mats) != 1 if n else np.empty(
            (self.batch_size, 0, 0), dtype=bool
        )
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
        subgens = reduction_subgenerations(n)
        jumps = jump_iterations(n)
        reduce_slices = [_stride_slices(n, s) for s in range(subgens)]

        out_labels = np.empty((B, n), dtype=np.int64)
        iterations_run = np.full(B, self.iterations, dtype=np.int64)
        converged_at = np.full(B, -1, dtype=np.int64)

        # generation 0 on the whole stacked field
        D = np.empty((B, n + 1, n), dtype=self._dtype)
        D[:, :, :] = np.arange(n + 1, dtype=self._dtype)[None, :, None]

        not_adjacent = self._not_adjacent
        index = np.arange(B)                     # original slot of each row
        prev = D[:, :n, 0].copy()
        # scratch, sliced down as the batch shrinks
        col = np.empty((B, n), dtype=self._dtype)
        m1 = np.empty((B, n, n), dtype=bool)
        m2 = np.empty((B, n, n), dtype=bool)

        for it in range(self.iterations):
            k = D.shape[0]
            _apply_iteration(
                D, not_adjacent, col[:k], m1[:k], m2[:k],
                n, inf, reduce_slices, jumps,
            )
            labels = D[:, :n, 0]
            if not self.early_exit:
                continue
            changed = np.any(labels != prev, axis=1)
            if changed.all():
                np.copyto(prev, labels)
                continue
            done = ~changed
            retired = index[done]
            out_labels[retired] = labels[done]
            iterations_run[retired] = it + 1
            converged_at[retired] = it
            # compact the survivors into a contiguous prefix -- this runs
            # once per retirement event, not per generation, and shrinks
            # every later generation's working set
            D = np.ascontiguousarray(D[changed])  # repro-check: allow[DB101]
            not_adjacent = np.ascontiguousarray(not_adjacent[changed])  # repro-check: allow[DB101]
            index = index[changed]
            prev = np.ascontiguousarray(labels[changed])  # repro-check: allow[DB101]
            if index.size == 0:
                break

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


def _stride_slices(n: int, sub_generation: int):
    """``(write, read)`` column slices of one reduction sub-generation.

    The write columns are the even multiples of ``stride`` whose partner
    ``col + stride`` still exists; both sets are arithmetic progressions,
    so plain slices express them without fancy-index copies.
    """
    stride = 1 << sub_generation
    return slice(0, n - stride, 2 * stride), slice(stride, n, 2 * stride)


def _apply_iteration(
    D: np.ndarray,
    not_adjacent: np.ndarray,
    col: np.ndarray,
    m1: np.ndarray,
    m2: np.ndarray,
    n: int,
    inf: int,
    reduce_slices: Sequence[tuple],
    jumps: int,
) -> None:
    """One outer iteration (generations 1..11) on the stacked field.

    All arrays carry a leading batch axis ``k``; every generation is one
    whole-batch NumPy dispatch.  ``col``/``m1``/``m2`` are scratch buffers
    of shapes ``(k, n)``, ``(k, n, n)``, ``(k, n, n)``.
    """
    Dsq = D[:, :n, :]
    DN = D[:, n, :]
    j_col = np.arange(n, dtype=D.dtype).reshape(1, n, 1)

    # gen 1: broadcast the label column over the whole field
    np.copyto(col, Dsq[:, :, 0])
    D[:, :, :] = col[:, None, :]
    # gen 2: mask non-neighbors with infinity
    np.equal(Dsq, DN[:, :, None], out=m1)
    np.logical_or(m1, not_adjacent, out=m1)
    np.copyto(Dsq, inf, where=m1)
    # gen 3: log-depth row minimum reduction
    for write, read in reduce_slices:
        np.minimum(Dsq[:, :, write], Dsq[:, :, read], out=Dsq[:, :, write])
    # gen 4: fall back to the archived own label where the row was empty
    np.copyto(col, Dsq[:, :, 0])
    Dsq[:, :, 0] = np.where(col == inf, DN, col)
    # gen 5: rebroadcast (keeping the archive row)
    np.copyto(col, Dsq[:, :, 0])
    Dsq[:, :, :] = col[:, None, :]
    # gen 6: mask non-members with infinity
    np.not_equal(DN[:, None, :], j_col, out=m1)
    np.equal(Dsq, j_col, out=m2)
    np.logical_or(m1, m2, out=m1)
    np.copyto(Dsq, inf, where=m1)
    # gen 7: second minimum reduction
    for write, read in reduce_slices:
        np.minimum(Dsq[:, :, write], Dsq[:, :, read], out=Dsq[:, :, write])
    # gen 8: second fallback
    np.copyto(col, Dsq[:, :, 0])
    Dsq[:, :, 0] = np.where(col == inf, DN, col)
    # gen 9: distribute column-wise and archive into the bottom row
    np.copyto(col, Dsq[:, :, 0])
    Dsq[:, :, :] = col[:, :, None]
    DN[:, :] = col
    # gen 10: pointer jumping, log-depth
    for _ in range(jumps):
        np.copyto(col, Dsq[:, :, 0])
        Dsq[:, :, 0] = np.take_along_axis(col, col, axis=1)
    # gen 11: resolve mutual supernode pairs
    np.copyto(col, Dsq[:, :, 0])
    paired = np.take_along_axis(D[:, :, 1], col, axis=1)
    Dsq[:, :, 0] = np.minimum(col, paired)


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
