"""Execution backends for the serving layer.

Two tiers, matching where the work is actually bound:

* **In-process (threads).**  The engines are NumPy-bound -- they
  release the GIL inside the array ops -- so the server's worker
  *threads* (a plain ``concurrent.futures.ThreadPoolExecutor``) run
  them directly via :func:`solve_coalesced` / :func:`solve_solo`.  No
  serialisation, no process boundary.
* **Out-of-process (optional).**  Very large sparse requests spend real
  Python time in the contraction bookkeeping; :class:`SparseProcessPool`
  moves them to worker processes, shipping the edge arrays through the
  zero-copy shared-memory plumbing of :mod:`repro.analysis.shm` (a tiny
  picklable descriptor crosses the pipe, the pages do not) and reading
  the labels back out of a shared result slot.  A worker process that
  dies mid-request (OOM-killed, segfaulted) surfaces as
  :class:`WorkerDied`; the pool replaces itself and the server retries
  the request, so one lost worker costs one retry, not the server.

:func:`solve_dense_stack` runs same-bucket dense graphs as one stacked
:class:`~repro.core.batched.BatchedGCA` field.  The serve planner no
longer ships it (coalesced contracting was as fast, within host noise,
or faster: EXPERIMENTS.md, E28); it stays because
``perfbench/serve_wire.py`` still wraps it.  A stack may be
*padded*: a bucket of node count ``S`` can hold graphs with ``n <= S``,
embedded in the top-left corner of a zeroed ``S x S`` adjacency.  The
padding vertices are isolated and numbered ``>= n``, so they can never
become the minimum representative of a real component -- slicing the
first ``n`` labels recovers exactly the unpadded result (asserted
against the oracle in the tests).
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.shm import (
    SharedArray,
    SharedEdgeListRef,
    attach_edge_list,
    share_edge_list,
)
from repro.core.api import connected_components
from repro.core.batched import BatchedGCA
from repro.graphs.adjacency import AdjacencyMatrix
from repro.hirschberg.contracting import connected_components_contracting
from repro.hirschberg.edgelist import EdgeListGraph
from repro.serve.request import GraphLike


class WorkerDied(RuntimeError):
    """A process worker died mid-request; the pool has been replaced."""


def pad_matrix(matrix: np.ndarray, size: int) -> np.ndarray:
    """Embed ``matrix`` top-left in a zeroed ``size x size`` adjacency."""
    n = matrix.shape[0]
    if n == size:
        return matrix
    if n > size:
        raise ValueError(f"cannot pad n={n} down to {size}")
    padded = np.zeros((size, size), dtype=matrix.dtype)
    padded[:n, :n] = matrix
    return padded


def solve_dense_stack(
    matrices: Sequence[np.ndarray],
    size: int,
    iterations: Optional[int] = None,
) -> List[np.ndarray]:
    """Labels for a same-bucket stack via one :class:`BatchedGCA` run.

    Each input may be any ``n <= size``; it is padded to ``size`` and the
    returned vector is sliced back to its own ``n``.
    """
    stack = np.stack([pad_matrix(m, size) for m in matrices]) if size else (
        np.empty((len(matrices), 0, 0), dtype=np.int8)
    )
    result = BatchedGCA(stack, iterations=iterations).run()
    return [
        result.labels[i, : matrices[i].shape[0]]
        for i in range(len(matrices))
    ]


def solve_solo(graph: GraphLike, engine: str) -> np.ndarray:
    """Labels for one request on one engine, in the calling thread."""
    return connected_components(graph, engine=engine).labels


def as_edge_list(graph: GraphLike) -> EdgeListGraph:
    """The edge-list form of any request graph."""
    if isinstance(graph, EdgeListGraph):
        return graph
    if not isinstance(graph, AdjacencyMatrix):
        graph = AdjacencyMatrix(np.asarray(graph))
    return EdgeListGraph.from_adjacency(graph)


def union_edges(
    lists: Sequence[EdgeListGraph],
    offsets: np.ndarray,
    src_out: Optional[np.ndarray] = None,
    dst_out: Optional[np.ndarray] = None,
):
    """The directed edge arrays of the members' disjoint union.

    ``offsets`` is the node-offset prefix sum (``len(lists) + 1``
    entries).  ``src_out`` / ``dst_out``, when given, receive the arrays
    in place -- the process-pool executor passes shared-memory slabs
    here so the union is built straight into the pages the workers read,
    with no intermediate copy.  Returns ``(src, dst)``.
    """
    # concatenate first, shift once: one repeat + two in-place adds
    # instead of a tiny ufunc dispatch per member
    srcs = [e.src for e in lists]
    dsts = [e.dst for e in lists]
    if src_out is None:
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
    else:
        src = np.concatenate(srcs, out=src_out)
        dst = np.concatenate(dsts, out=dst_out)
    edge_counts = np.asarray([e.src.size for e in lists])
    shift = np.repeat(offsets[:-1], edge_counts)
    src += shift
    dst += shift
    return src, dst


def split_union_labels(
    labels: np.ndarray, offsets: np.ndarray, copy: bool = False
) -> List[np.ndarray]:
    """Per-member label vectors from a union solve's label vector.

    Components never cross the union's block boundaries, so the union's
    min-index labels restricted to block ``i`` are exactly graph ``i``'s
    canonical labels shifted by its node offset -- one subtraction
    recovers them.  ``copy=True`` detaches the results from ``labels``'s
    buffer (required when it is a shared-memory slab about to be
    recycled).
    """
    counts = np.diff(offsets)
    # one vectorized shift back to per-graph numbering, then views --
    # per-member arithmetic would cost more than the small unions do
    shifted = labels - np.repeat(offsets[:-1], counts)
    # plain slices; np.split routes through array_split's generic
    # swapaxes path, which costs more than the unions themselves here
    bounds = offsets.tolist()
    out = [shifted[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]
    return [vec.copy() for vec in out] if copy else out


def solve_coalesced(
    graphs: Sequence[GraphLike], engine: str = "contracting"
) -> List[np.ndarray]:
    """Labels for many graphs via one sparse run on their disjoint union.

    The per-level NumPy dispatch of the contracting engine is paid
    once per *batch* instead of once per graph: the sparse-tier
    counterpart of the stacked dense field (see :func:`union_edges` /
    :func:`split_union_labels` for the block-boundary argument).
    ``engine`` must be ``"contracting"``, the only engine the serve
    planner coalesces on, as in the pool's sparse tasks.
    """
    if engine != "contracting":
        raise ValueError(f"unknown sparse engine {engine!r}")
    lists = [as_edge_list(g) for g in graphs]
    counts = np.asarray([e.n for e in lists])
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    if total == 0:
        return [np.empty(0, dtype=np.int64) for _ in lists]
    src, dst = union_edges(lists, offsets)
    union = EdgeListGraph(n=total, src=src, dst=dst)
    labels = connected_components_contracting(union).labels
    return split_union_labels(labels, offsets)


# ----------------------------------------------------------------------
# the shared-memory process tier
# ----------------------------------------------------------------------
def _solve_shared_task(graph_ref: SharedEdgeListRef, slot_ref,
                       engine: str) -> int:
    """Process-worker entry: attach, solve, write labels into the slot.

    Returns the component count as a cheap liveness/consistency token;
    the labels themselves never cross the pipe.  Labels are canonical
    (each component labelled by its minimum node), so the count is the
    number of fixed points -- one O(n) pass, no hash or sort.
    """
    graph, handles = attach_edge_list(graph_ref)
    slot = SharedArray.attach(slot_ref)
    try:
        labels = connected_components(graph, engine=engine).labels
        slot.array[...] = labels
        return int(np.count_nonzero(labels == np.arange(labels.size)))
    finally:
        slot.close()
        for h in handles:
            h.close()


class SparseProcessPool:
    """Process workers for large sparse requests (see module docstring).

    Thread-safe: the server's worker threads call :meth:`solve`
    concurrently; restarts after a death are serialised behind a lock.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.restarts = 0
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = (
            ProcessPoolExecutor(max_workers=workers)
        )

    def solve(self, graph: EdgeListGraph, engine: str) -> np.ndarray:
        """Solve ``graph`` in a worker process; labels via shared memory.

        Raises :class:`WorkerDied` (after replacing the broken pool) when
        the worker process disappears mid-request.
        """
        with self._lock:
            if self._executor is None:
                raise RuntimeError("SparseProcessPool is shut down")
            executor = self._executor
        workspace, ref = share_edge_list(graph)
        slot = workspace.zeros((graph.n,), np.int64)
        try:
            future = executor.submit(_solve_shared_task, ref, slot.ref, engine)
            try:
                future.result()
            except BrokenProcessPool as exc:
                self._restart(executor)
                raise WorkerDied(
                    f"process worker died solving n={graph.n}, "
                    f"m={graph.edge_count}"
                ) from exc
            return slot.array.copy()
        finally:
            workspace.close()
            workspace.unlink()

    def _restart(self, broken: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._executor is broken:
                broken.shutdown(wait=False)
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
                self.restarts += 1

    def shutdown(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
