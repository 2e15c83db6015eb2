"""Vectorised whole-field execution of the GCA algorithm.

Every generation of :mod:`repro.core.generations` has an equivalent
whole-array formulation; this module implements them with NumPy so large
fields run at array speed (the interpreter touches every cell in Python and
is ~1000x slower).  The two implementations are cross-validated by the
test-suite: after every generation the interpreter's ``D`` must equal the
vectorised ``D`` cell for cell.

This module is the readable per-generation reference: one function per
generation number, each returning a fresh field.  The fast path is not
here.  :func:`run_vectorized` runs the one fused kernel,
:class:`repro.core.batched.BatchedGCA`, on a batch of one graph; it
computes each outer iteration from the label column and the edges that
still cross two labels, and never materialises the field.  Only
``record_access=True`` runs (the Table 1/2 measurement paths) step
through :func:`apply_generation` one generation at a time.

Every outer iteration is a deterministic function of the label column
``D[:n, 0]`` alone (generation 1 rebroadcasts it over the whole field),
so an iteration that leaves the labels unchanged has reached a fixed
point and all remaining iterations are no-ops -- the same early
stabilisation that label propagation algorithms exploit (Liu & Tarjan
2019; Burkhardt 2018).  The fused kernel does no work past that point
either way; ``early_exit=True`` makes the runner *report* the stop
(``iterations``, ``total_generations`` and ``converged_at_iteration``),
and makes the per-generation ``record_access`` loop actually stop there.
The default reports the paper's full ``ceil(log2 n)`` schedule so the
Table 1/2 measurement paths are unchanged.

Besides the data transformation the module can compute, per generation,

* the **active mask** (which cells compute), and
* the **pointer targets** of the active cells,

from which per-generation read congestion follows via ``bincount`` --
giving the Table 1 measurements at sizes the interpreter cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.batched import BatchedGCA
from repro.core.field import FieldLayout
from repro.core.schedule import ScheduledGeneration, full_schedule
from repro.gca.instrumentation import AccessLog, GenerationStats
from repro.graphs.adjacency import AdjacencyMatrix
from repro.util.intmath import outer_iterations

GraphLike = Union[AdjacencyMatrix, np.ndarray]


# ----------------------------------------------------------------------
# per-generation vector semantics
# ----------------------------------------------------------------------

def active_mask(sched: ScheduledGeneration, layout: FieldLayout) -> np.ndarray:
    """Boolean ``(n+1, n)`` mask of the cells active in this generation."""
    n = layout.n
    mask = np.zeros((n + 1, n), dtype=bool)
    num = sched.number
    if num in (0, 1, 5, 9):
        mask[:, :] = True
    elif num in (2, 6):
        mask[:n, :] = True
    elif num in (3, 7):
        stride = 1 << sched.sub_generation
        cols = np.arange(0, n, 2 * stride)
        cols = cols[cols + stride < n]
        mask[:n, cols] = True
    elif num in (4, 8, 10, 11):
        mask[:n, 0] = True
    else:  # pragma: no cover - schedule only emits 0..11
        raise ValueError(f"unknown generation number {num}")
    return mask


def pointer_targets(
    sched: ScheduledGeneration, D: np.ndarray, layout: FieldLayout
) -> Optional[np.ndarray]:
    """Linear pointer targets of the active cells (row-major order), or
    ``None`` for the read-free generation 0."""
    n = layout.n
    num = sched.number
    rows = np.arange(n + 1)[:, None]
    cols = np.arange(n)[None, :]
    if num == 0:
        return None
    if num in (1, 5):
        targets = np.broadcast_to(cols * n, (n + 1, n))
    elif num in (2,):
        targets = np.broadcast_to(layout.last_row_start + rows, (n + 1, n))
    elif num in (3, 7):
        stride = 1 << sched.sub_generation
        targets = rows * n + cols + stride
    elif num in (4, 8):
        targets = np.broadcast_to(layout.last_row_start + rows, (n + 1, n))
    elif num == 6:
        targets = np.broadcast_to(layout.last_row_start + cols, (n + 1, n))
    elif num == 9:
        targets = np.where(rows == n, cols * n, rows * n)
        targets = np.broadcast_to(targets, (n + 1, n))
    elif num == 10:
        targets = D * n
    elif num == 11:
        targets = D * n + 1
    else:  # pragma: no cover
        raise ValueError(f"unknown generation number {num}")
    mask = active_mask(sched, layout)
    return np.asarray(targets)[mask]


def apply_generation(
    sched: ScheduledGeneration,
    D: np.ndarray,
    A: np.ndarray,
    layout: FieldLayout,
) -> np.ndarray:
    """Return the field after executing ``sched`` on ``D``.

    ``D`` has shape ``(n+1, n)`` and is not modified; ``A`` is the ``n x n``
    adjacency matrix.
    """
    n = layout.n
    inf = layout.infinity
    num = sched.number
    new = D.copy()
    if num == 0:
        new[:, :] = np.arange(n + 1)[:, None]
    elif num == 1:
        c = D[:n, 0]
        new[:, :] = c[None, :]
    elif num == 2:
        d_star = D[n, :][:n, None]          # D_N[j] per row j
        keep = (A == 1) & (D[:n, :] != d_star)
        new[:n, :] = np.where(keep, D[:n, :], inf)
    elif num in (3, 7):
        stride = 1 << sched.sub_generation
        cols = np.arange(0, n, 2 * stride)
        cols = cols[cols + stride < n]
        new[:n, cols] = np.minimum(D[:n, cols], D[:n, cols + stride])
    elif num in (4, 8):
        c = D[:n, 0]
        new[:n, 0] = np.where(c == inf, D[n, :], c)
    elif num == 5:
        c = D[:n, 0]
        new[:n, :] = c[None, :]
    elif num == 6:
        j_col = np.arange(n)[:, None]
        keep = (D[n, :][None, :] == j_col) & (D[:n, :] != j_col)
        new[:n, :] = np.where(keep, D[:n, :], inf)
    elif num == 9:
        c = D[:n, 0]
        new[:n, :] = c[:, None]
        new[n, :] = c
    elif num == 10:
        c = D[:n, 0]
        new[:n, 0] = c[c]
    elif num == 11:
        c = D[:n, 0]
        # the pointer d*n + 1 is linear: column 1 of row d, or the archive
        # row's cell when n == 1
        new[:n, 0] = np.minimum(c, D.reshape(-1)[c * n + 1])
    else:  # pragma: no cover
        raise ValueError(f"unknown generation number {num}")
    return new


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

@dataclass
class VectorizedResult:
    """Outcome of a vectorised run.

    ``iterations`` and ``total_generations`` count what actually executed;
    with ``early_exit`` they can fall short of the scheduled
    ``ceil(log2 n)`` iterations, in which case ``converged_at_iteration``
    holds the 0-based index of the first outer iteration that left the
    label column unchanged (``None`` when the full schedule ran).
    """

    labels: np.ndarray
    n: int
    iterations: int
    total_generations: int
    access_log: Optional[AccessLog] = None
    converged_at_iteration: Optional[int] = None

    @property
    def component_count(self) -> int:
        return int(np.unique(self.labels).size)


def run_vectorized(
    graph: GraphLike,
    iterations: Optional[int] = None,
    record_access: bool = False,
    early_exit: bool = False,
) -> VectorizedResult:
    """Run the GCA algorithm on ``graph`` with whole-array operations.

    Parameters
    ----------
    graph:
        Undirected input graph.
    iterations:
        Outer iterations (default ``ceil(log2 n)``).
    record_access:
        Build an :class:`~repro.gca.instrumentation.AccessLog` with the
        same per-generation statistics the interpreter measures (active
        cells, reads per cell).  This runs the per-generation reference
        loop over :func:`apply_generation` instead of the fused kernel.
    early_exit:
        Count the run as stopping at the first outer iteration that
        leaves the label column unchanged (a fixed point of the
        iteration map).  The labels are bit-identical to the full run;
        only the reported iteration and generation counts shrink (and,
        with ``record_access``, the generations the log records).  Off
        by default so the measurement paths report the paper's exact
        schedule.
    """
    if record_access:
        return _run_instrumented(graph, iterations, early_exit)
    res = BatchedGCA([graph], iterations=iterations, early_exit=early_exit).run()
    converged = int(res.converged_at_iteration[0])
    return VectorizedResult(
        labels=res.labels[0],
        n=res.n,
        iterations=int(res.iterations_run[0]),
        total_generations=int(res.generations_run()[0]),
        converged_at_iteration=None if converged < 0 else converged,
    )


def _run_instrumented(
    graph: GraphLike, iterations: Optional[int], early_exit: bool
) -> VectorizedResult:
    """Generation-by-generation run that logs every generation's reads."""
    g = graph if isinstance(graph, AdjacencyMatrix) else AdjacencyMatrix(np.asarray(graph))
    n = g.n
    layout = FieldLayout(n)
    A = g.matrix.astype(np.int64)
    total_iters = outer_iterations(n) if iterations is None else iterations
    D = np.zeros((n + 1, n), dtype=np.int64)
    prev_labels = np.arange(n, dtype=np.int64)
    log = AccessLog()

    executed_generations = 0
    executed_iterations = 0
    converged_at: Optional[int] = None
    for sched in full_schedule(n, iterations=total_iters):
        targets = pointer_targets(sched, D, layout)
        active = int(active_mask(sched, layout).sum())
        D = apply_generation(sched, D, A, layout)
        executed_generations += 1
        counts = (
            np.bincount(targets, minlength=layout.size)
            if targets is not None and targets.size
            # size-0 sentinel, not a buffer
            else np.zeros(0, dtype=np.int64)
        )
        log.record(
            GenerationStats(
                label=sched.label, active_cells=active, read_counts=counts
            )
        )
        if sched.number == 11:
            executed_iterations += 1
            if early_exit:
                # apply_generation returns a fresh field, so this view of
                # the old one stays valid as the previous labels
                if np.array_equal(D[:n, 0], prev_labels):
                    converged_at = sched.iteration
                    break
                prev_labels = D[:n, 0]

    return VectorizedResult(
        labels=D[:n, 0].copy(),
        n=n,
        iterations=executed_iterations,
        total_generations=executed_generations,
        access_log=log,
        converged_at_iteration=converged_at,
    )


def connected_components_vectorized(
    graph: GraphLike, iterations: Optional[int] = None, early_exit: bool = False
) -> np.ndarray:
    """Convenience wrapper returning only the canonical labels."""
    return run_vectorized(
        graph, iterations=iterations, early_exit=early_exit
    ).labels
