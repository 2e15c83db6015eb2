"""Chunk-parallel connected components over the shm worker pool.

The engine behind ``engine="parallel"``: the Liu--Tarjan / FastSV
label-propagation family (:mod:`repro.core.parallel_kernels`) driven as
synchronous rounds whose two phases fan out across the pre-forked
shared-memory workers of :class:`repro.serve.executor.PoolExecutor`:

1. **hook** -- the directed edge array is split into ``chunks`` balanced
   ranges; each worker scatter-MINs its range's label proposals into a
   *private* per-chunk slab (sentinel-initialised, so a retry after a
   worker death just recomputes it);
2. **combine** -- the parent folds the partial slabs into the shared
   front labels with a log-step pairwise-minimum tree (the sharded
   engine's frontier-merge idiom applied to whole label slabs);
3. **jump** -- the vertex range is split the same way; each worker
   pointer-jumps exactly its slice of the back slab (owner-write
   discipline, lint rule SHM204), then front and back swap.  Jump
   phases repeat until one moves no label, so every round ends with
   each tree a star.  With one jump per round, 7 of 16 seeded random
   graphs at n=10^6, m=5*10^6 still had 2 to 130 edges across labels
   after round 3 and needed five rounds instead of four; jumping to
   stars takes four on all 16, and a jump phase costs about 4% of a
   hook phase.

Everything lives in :mod:`repro.analysis.shm` segments created once at
setup -- the edge arrays, both label slabs and the ``chunks x n``
partial block -- so after the first round no allocation happens and
nothing but tiny task descriptors ever crosses a pipe (zero pickling).
Convergence is a quiet deterministic round: no hook proposal lowered a
label and no pointer jump moved.  The stochastic variant's coin can
block every hook in a round, so a quiet *stochastic* round is only a
hint -- the driver then runs one deterministic confirmation round and
stops only if that is quiet too.

With ``pool=None`` the same rounds run inline through the identical
kernels (one chunk, ordinary arrays) -- the 1-core fallback the cost
model routes to-- and because each round is a MIN-combine, the chunked
and inline paths produce bit-identical labels: the canonical
minimum-index labelling every other engine emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core import parallel_kernels as pk
from repro.hirschberg.edgelist import EdgeListGraph

#: Base seed for the stochastic variant's per-round coins (any
#: non-negative value; per-round seeds are ``seed + round``).
DEFAULT_SEED = 0x5EED


@dataclass
class ParallelResult:
    """Outcome of a chunk-parallel label-propagation run.

    ``rounds`` counts every synchronous round executed, *including* the
    ``confirm_rounds`` deterministic confirmation rounds the stochastic
    variant needs before a quiet round may be trusted.  ``workers`` is
    the pool's worker count on the pooled path and 1 inline; ``chunks``
    is the partition width (= per-round task count per phase).
    """

    labels: np.ndarray
    variant: str
    rounds: int
    confirm_rounds: int
    chunks: int
    workers: int
    pooled: bool

    @property
    def component_count(self) -> int:
        return int(np.unique(self.labels).size)


def connected_components_parallel(
    graph: EdgeListGraph,
    variant: str = "fastsv",
    chunks: Optional[int] = None,
    pool: Optional[Any] = None,
    max_rounds: Optional[int] = None,
    seed: int = DEFAULT_SEED,
) -> ParallelResult:
    """Connected components by chunk-parallel label propagation.

    Parameters
    ----------
    graph:
        The sparse input (directed both-ways edge arrays).
    variant:
        One of :data:`repro.core.parallel_kernels.VARIANTS`:
        ``"sv"`` (parent hooking), ``"fastsv"`` (grandparent +
        self-hooking; default, fewest rounds), ``"stochastic"``
        (coin-filtered hooking with deterministic confirmation).
    chunks:
        Partition width per phase.  Defaults to the pool's worker count
        (1 inline).  More chunks than edges or vertices is fine --
        trailing chunks are empty no-ops.
    pool:
        A started :class:`repro.serve.executor.PoolExecutor` to fan the
        phases out on; ``None`` runs inline through the same kernels.
    max_rounds:
        Safety cap on synchronous rounds (default ``max(1, n)``; the
        label sum strictly decreases every non-final round, so the
        fixpoint always lands far below it).
    seed:
        Non-negative base seed for the stochastic variant's coins.

    Labels are the canonical minimum-index-per-component vector,
    bit-identical across variants, chunk counts and the inline/pooled
    paths.
    """
    if variant not in pk.VARIANTS:
        raise ValueError(
            f"variant must be one of {pk.VARIANTS}, got {variant!r}"
        )
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if chunks is not None and chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    n = graph.n
    if n == 0:
        return ParallelResult(
            labels=np.empty(0, dtype=np.int64), variant=variant, rounds=0,
            confirm_rounds=0, chunks=chunks or 1, workers=1, pooled=False,
        )
    if pool is None:
        return _solve_inline(graph, variant, chunks, max_rounds, seed)
    return _solve_pooled(graph, variant, chunks, pool, max_rounds, seed)


def _round_limit(n: int, max_rounds: Optional[int]) -> int:
    return max_rounds if max_rounds is not None else max(1, n)


def _solve_inline(
    graph: EdgeListGraph,
    variant: str,
    chunks: Optional[int],
    max_rounds: Optional[int],
    seed: int,
) -> ParallelResult:
    """The 1-core path: identical kernels, one chunk, no shm."""
    n = graph.n
    f = np.arange(n, dtype=np.int64)
    scratch = np.empty(n, dtype=np.int64)
    back = np.empty(n, dtype=np.int64)
    src, dst = graph.src, graph.dst
    limit = _round_limit(n, max_rounds)
    rounds = confirm = 0
    while rounds < limit:
        round_seed = (
            pk.DETERMINISTIC if variant != "stochastic" else seed + rounds
        )
        hooked, jumped = pk.serial_round(
            f, src, dst, scratch, back, variant, round_seed
        )
        f, back = back, f
        rounds += 1
        if hooked or jumped:
            continue
        if variant != "stochastic":
            break
        if rounds >= limit:
            break
        # A quiet stochastic round only proves the coins said no;
        # confirm the fixpoint with one deterministic round.
        hooked, jumped = pk.serial_round(
            f, src, dst, scratch, back, variant, pk.DETERMINISTIC
        )
        f, back = back, f
        rounds += 1
        confirm += 1
        if not hooked and not jumped:
            break
    return ParallelResult(
        labels=f, variant=variant, rounds=rounds, confirm_rounds=confirm,
        chunks=chunks or 1, workers=1, pooled=False,
    )


def _solve_pooled(
    graph: EdgeListGraph,
    variant: str,
    chunks: Optional[int],
    pool: Optional[Any],
    max_rounds: Optional[int],
    seed: int,
) -> ParallelResult:
    """Fan the hook/jump phases out across the pool's shm workers.

    All segments are created here and owned for the whole solve; the
    workers attach by name once (their per-worker mapping cache makes
    every later round re-map nothing) and only :class:`_Task`
    descriptors cross the pipes.  When the solve ends the workers are
    told to unmap the segments before they are unlinked, so a finished
    solve leaves no pages resident in any worker.
    """
    from repro.analysis.shm import SharedArray, SharedArrayRef

    n = graph.n
    width = chunks if chunks is not None else max(1, int(pool.workers))
    m_directed = int(graph.src.shape[0])
    edge_bounds = pk.chunk_bounds(m_directed, width)
    vertex_bounds = pk.chunk_bounds(n, width)
    blocks: List[SharedArray] = []

    def shared(source: np.ndarray) -> SharedArray:
        block = SharedArray.create(source)
        blocks.append(block)
        return block

    try:
        src = shared(np.ascontiguousarray(graph.src, dtype=np.int64))
        dst = shared(np.ascontiguousarray(graph.dst, dtype=np.int64))
        front = shared(np.arange(n, dtype=np.int64))
        back = SharedArray.zeros((n,), np.int64)
        blocks.append(back)
        partials = SharedArray.zeros((width, n), np.int64)
        blocks.append(partials)
        itemsize = np.dtype(np.int64).itemsize
        partial_refs = [
            SharedArrayRef(
                name=partials.ref.name, shape=(n,),
                dtype=np.dtype(np.int64).str, offset=i * n * itemsize,
            )
            for i in range(width)
        ]
        partial_rows = [partials.array[i] for i in range(width)]
        # (ref, array) pairs swapped each round; state[0] is the front.
        state: List[Tuple[SharedArrayRef, np.ndarray]] = [
            (front.ref, front.array), (back.ref, back.array),
        ]
        limit = _round_limit(n, max_rounds)
        rounds = confirm = 0

        def one_round(round_seed: int) -> Tuple[bool, bool]:
            nonlocal rounds
            (f_ref, f_arr), _ = state
            pool.label_hook_round(
                f_ref, src.ref, dst.ref, partial_refs, edge_bounds,
                variant, round_seed,
            )
            hooked = pk.combine_partials(f_arr, partial_rows)
            jumped = False
            while True:
                (f_ref, _), (b_ref, _) = state
                moved = sum(pool.label_jump_round(f_ref, b_ref, vertex_bounds))
                state[0], state[1] = state[1], state[0]
                if not moved:
                    break
                jumped = True
            rounds += 1
            return hooked, jumped

        while rounds < limit:
            round_seed = (
                pk.DETERMINISTIC if variant != "stochastic" else seed + rounds
            )
            hooked, jumped = one_round(round_seed)
            if hooked or jumped:
                continue
            if variant != "stochastic":
                break
            if rounds >= limit:
                break
            hooked, jumped = one_round(pk.DETERMINISTIC)
            confirm += 1
            if not hooked and not jumped:
                break
        labels = state[0][1].copy()
    finally:
        try:
            pool.detach([block.ref.name for block in blocks])
        finally:
            for block in blocks:
                block.close()
            for block in blocks:
                block.unlink()
    return ParallelResult(
        labels=labels, variant=variant, rounds=rounds,
        confirm_rounds=confirm, chunks=width,
        workers=int(pool.workers), pooled=True,
    )
