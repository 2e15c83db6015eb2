"""Solve paths of the serving layer.

The engines are NumPy-bound -- they release the GIL inside the array
ops -- so the server's worker *threads* (plain threads, each taking its
own flushes from the planner) run them directly via
:func:`solve_coalesced` / :func:`solve_solo`.  No serialisation, no
process boundary: every thread reads the request's arrays in place.

:func:`solve_dense_stack` runs same-bucket dense graphs as one
:class:`~repro.core.batched.BatchedGCA` batch.  The serve planner no
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

from typing import List, Optional, Sequence

import numpy as np

from repro.core.api import connected_components
from repro.core.batched import BatchedGCA
from repro.graphs.adjacency import AdjacencyMatrix
from repro.hirschberg.contracting import connected_components_contracting
from repro.hirschberg.edgelist import EdgeListGraph, _mirror, _stamped
from repro.serve.request import GraphLike


class WorkerDied(RuntimeError):
    """A process worker died mid-task; the pool has been replaced."""


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


def union_edges(lists: Sequence[EdgeListGraph], offsets: np.ndarray):
    """The members' disjoint union, each edge once.

    ``offsets`` is the node-offset prefix sum (``len(lists) + 1``
    entries).  Returns the union's ``src``: every member's
    :meth:`~repro.hirschberg.edgelist.EdgeListGraph.pairs` shifted by
    its node offset, all the lows and then all the highs.
    """
    pairs = [e.pairs() for e in lists]
    counts = [lo.size for lo, _ in pairs]
    k = sum(counts)
    src = np.empty(2 * k, dtype=np.int64)
    # concatenate first, shift once: one repeat + two in-place adds
    # instead of a tiny ufunc dispatch per member
    np.concatenate([lo for lo, _ in pairs], out=src[:k])
    np.concatenate([hi for _, hi in pairs], out=src[k:])
    shift = np.repeat(offsets[:-1], counts)
    src[:k] += shift
    src[k:] += shift
    return src


def split_union_labels(
    labels: np.ndarray, offsets: np.ndarray
) -> List[np.ndarray]:
    """Per-member label vectors from a union solve's label vector.

    Components never cross the union's block boundaries, so the union's
    min-index labels restricted to block ``i`` are exactly graph ``i``'s
    canonical labels shifted by its node offset -- one subtraction
    recovers them.  The vectors are views of one shifted copy.
    """
    counts = np.diff(offsets)
    # one vectorized shift back to per-graph numbering, then views --
    # per-member arithmetic would cost more than the small unions do
    shifted = labels - np.repeat(offsets[:-1], counts)
    # plain slices; np.split routes through array_split's generic
    # swapaxes path, which costs more than the unions themselves here
    bounds = offsets.tolist()
    return [shifted[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]


def solve_coalesced(
    graphs: Sequence[GraphLike], engine: str = "contracting"
) -> List[np.ndarray]:
    """Labels for many graphs via one sparse run on their disjoint union.

    The per-level NumPy dispatch of the contracting engine is paid
    once per *batch* instead of once per graph: the sparse-tier
    counterpart of the stacked dense field (see :func:`union_edges` /
    :func:`split_union_labels` for the block-boundary argument).
    ``engine`` must be ``"contracting"``, the only engine the serve
    planner coalesces on.
    """
    if engine != "contracting":
        raise ValueError(f"unknown sparse engine {engine!r}")
    lists = [as_edge_list(g) for g in graphs]
    counts = np.asarray([e.n for e in lists])
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    if total == 0:
        return [np.empty(0, dtype=np.int64) for _ in lists]
    src = union_edges(lists, offsets)
    if all(getattr(e, "_canonical", False) for e in lists):
        # canonical blocks shifted in offset order stay sorted and
        # duplicate-free: the union is canonical too, and needs no mirror
        union = _stamped(total, src)
    else:
        union = EdgeListGraph(n=total, src=src, dst=_mirror(src))
    labels = connected_components_contracting(union).labels
    return split_union_labels(labels, offsets)
