"""Chunk-parallel label-propagation kernels (Liu--Tarjan / FastSV family).

The sparse engines so far are serial *inside* one solve: the pool
(:mod:`repro.serve.executor`) and the sharded engine parallelize across
requests and shards, but a single big graph still runs its scatter-min
hot loops on one core.  The concurrent-components literature the
contracting engine already cites (Liu & Tarjan's "Simple Concurrent
Labeling Algorithms for Connected Components"; Burkhardt's log-step
label propagation) decomposes exactly along the axis we need: each round
is an **edge-partitioned scatter** (every edge proposes a lower label
for a vertex, conflicts resolved by MIN) followed by a **vertex-
partitioned pointer jump** -- both embarrassingly parallel per round,
with one barrier between phases.

This module holds the *kernels* of that decomposition: pure NumPy
functions over preallocated arrays, free of any process machinery, so
the same code runs

* inline (the serial reference path and the 1-core fallback),
* on the pre-forked shm workers of
  :class:`~repro.serve.executor.PoolExecutor` (each worker attaches the
  shared slabs by name and calls these kernels on its chunk), and
* in tests, where Hypothesis drives them against the union-find oracle.

Parallel-correctness contract
-----------------------------
Each round of every variant is a **synchronous** MIN-combine: the hook
kernels read only the round-start label array ``f`` and write candidate
minima into a *private* per-worker slab (sentinel-initialised), and the
driver combines the slabs with elementwise minima afterwards.  MIN is
associative and commutative, so any chunking of the edges -- one chunk
or fifty -- produces bit-identical rounds.  The jump kernel writes only
its assigned ``[lo, hi)`` slice of the output slab (owner-write
discipline for partitioned slabs; lint rule SHM204), so concurrent jump
chunks never overlap.

Invariants (maintained by every kernel, relied on for termination and
canonical labels): ``f[x] <= x`` pointwise, and ``f[x]`` is always the
id of a vertex in ``x``'s true component.  At a fixpoint reached by a
*deterministic* full round (see :func:`hook_partial` on the stochastic
variant), both hold with ``f`` idempotent and edge-constant, which
forces ``f[x]`` = minimum id of ``x``'s component -- the same canonical
labelling every other engine emits.

Kernels are allocation-free modulo NumPy gather temporaries of chunk
size; the driver (:mod:`repro.hirschberg.parallel`) preallocates every
persistent array once at setup.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: The recognised update rules, in bench/report order.
VARIANTS = ("sv", "fastsv", "stochastic")

#: ``seed`` value that disables the stochastic coin filter (the hook
#: pass then proposes every edge's update, as the deterministic
#: variants do).  Convergence must always be confirmed by a
#: deterministic round -- a quiet stochastic round only proves the
#: coins said no.
DETERMINISTIC = -1

#: splitmix64 constants for the per-round vertex coins (cheap, stateless,
#: identical in every worker -- the coin for vertex ``i`` in round ``r``
#: must not depend on which chunk computes it).
_MIX_MULT = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)


def chunk_bounds(total: int, chunks: int) -> np.ndarray:
    """``chunks + 1`` balanced offsets partitioning ``range(total)``.

    More chunks than items degrade gracefully to trailing empty chunks
    (``lo == hi``) -- the kernels treat those as no-ops, so a caller may
    always partition by worker count without sizing logic.
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    return np.linspace(0, total, chunks + 1, dtype=np.int64)


def _coins(labels: np.ndarray, seed: int) -> np.ndarray:
    """Boolean heads/tails per *label value*, identical across chunks.

    One splitmix64-style mix of ``label ^ round-seed``: stateless, so
    every worker computes the same coin for the same vertex without any
    shared RNG state crossing the barrier.
    """
    x = labels.astype(np.uint64) ^ np.uint64(seed)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _MIX_A
        x = (x ^ (x >> np.uint64(27))) * _MIX_B
    x ^= x >> np.uint64(31)
    return (x & np.uint64(1)).astype(bool)


def hook_partial(
    f: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    lo: int,
    hi: int,
    partial: np.ndarray,
    variant: str = "fastsv",
    seed: int = DETERMINISTIC,
) -> int:
    """One hook phase over the edge chunk ``[lo, hi)`` into ``partial``.

    Reads the round-start labels ``f`` (shared, never written) and the
    directed edge arrays; (re)initialises the private slab ``partial``
    to the sentinel ``n`` and scatter-MINs the variant's candidate
    updates into it.  Idempotent -- a retry after a worker death simply
    recomputes the same slab -- and chunk-invariant: the elementwise
    minimum of the partials over any partition of the edges equals the
    serial ``np.minimum.at`` over all of them.

    Variants (``u, v`` range over the chunk's edges; updates are
    MIN-combined):

    * ``"sv"`` -- parent hooking, Shiloach--Vishkin style:
      ``f[u] <- f[v]`` and ``f[v] <- f[u]`` proposed at the *parents*:
      ``partial[f[u]] min= f[v]``, ``partial[f[v]] min= f[u]``.
    * ``"fastsv"`` -- grandparent hooking plus self-hooking (FastSV):
      ``partial[f[u]] min= f[f[v]]``, ``partial[u] min= f[f[v]]`` and
      symmetrically.
    * ``"stochastic"`` -- Liu--Tarjan stochastic hooking: a per-round
      coin per label value; only tails-labelled parents hook onto
      heads-labelled neighbours, which keeps concurrent hook chains
      short.  ``seed == DETERMINISTIC`` disables the filter (used for
      the convergence-confirmation round).

    Returns the number of candidate updates proposed (0 for an empty
    chunk) -- a cheap progress token, not part of correctness.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    n = f.shape[0]
    partial[...] = n  # sentinel: one past any label
    if hi <= lo:
        return 0
    u = src[lo:hi]
    v = dst[lo:hi]
    fu = f[u]
    fv = f[v]
    if variant == "sv":
        np.minimum.at(partial, fu, fv)
        np.minimum.at(partial, fv, fu)
        return 2 * int(u.size)
    if variant == "fastsv":
        gu = f[fu]
        gv = f[fv]
        np.minimum.at(partial, fu, gv)
        np.minimum.at(partial, fv, gu)
        np.minimum.at(partial, u, gv)
        np.minimum.at(partial, v, gu)
        return 4 * int(u.size)
    # stochastic: tails hook onto heads (coin per label value per round)
    if seed == DETERMINISTIC:
        np.minimum.at(partial, fu, fv)
        np.minimum.at(partial, fv, fu)
        return 2 * int(u.size)
    heads_u = _coins(fu, seed)
    heads_v = _coins(fv, seed)
    fwd = ~heads_u & heads_v  # tails parent f[u] hooks onto heads f[v]
    rev = ~heads_v & heads_u
    if fwd.any():
        np.minimum.at(partial, fu[fwd], fv[fwd])
    if rev.any():
        np.minimum.at(partial, fv[rev], fu[rev])
    return int(np.count_nonzero(fwd)) + int(np.count_nonzero(rev))


def combine_partials(
    f: np.ndarray, partials: Sequence[np.ndarray]
) -> bool:
    """Log-step tree combine of the per-worker partial minima into ``f``.

    Pairwise elementwise minima halve the live slab count each step
    (the frontier-merge idiom of the sharded engine, applied to whole
    label slabs), then one final ``min`` folds the surviving slab into
    the shared labels.  Mutates the partial slabs as scratch -- the
    next round's hook phase reinitialises them anyway.  Returns whether
    any label decreased.
    """
    if not partials:
        return False
    live: List[np.ndarray] = list(partials)
    while len(live) > 1:
        half = (len(live) + 1) // 2
        for i in range(len(live) - half):
            np.minimum(live[i], live[i + half], out=live[i])
        live = live[:half]
    merged = live[0]
    changed = bool((merged < f).any())
    if changed:
        np.minimum(f, merged, out=f)
    return changed


def jump_chunk(
    front: np.ndarray, back: np.ndarray, lo: int, hi: int
) -> int:
    """One pointer-jump phase over the vertex chunk ``[lo, hi)``.

    Reads the whole ``front`` labels (gathers may land anywhere) but
    writes **only** its assigned slice of ``back`` -- the owner-write
    discipline for partitioned slabs (SHM204) that lets every chunk of
    a jump phase run concurrently on one shared output slab.  Returns
    how many labels in the slice decreased.
    """
    if hi <= lo:
        return 0
    block = front[lo:hi]
    hop = front[block]
    changed = int(np.count_nonzero(hop < block))
    back[lo:hi] = np.minimum(block, hop)
    return changed


def seed_identity(labels: np.ndarray, lo: int, hi: int) -> int:
    """Initialise ``labels[lo:hi]`` to the identity (chunked setup).

    The chunk-sliced counterpart of ``np.arange`` so label slabs can be
    seeded under the same owner-write discipline as the jump phase.
    Returns the number of entries written.
    """
    if hi <= lo:
        return 0
    labels[lo:hi] = np.arange(lo, hi, dtype=labels.dtype)
    return int(hi - lo)


def serial_round(
    f: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    scratch: np.ndarray,
    back: np.ndarray,
    variant: str = "fastsv",
    seed: int = DETERMINISTIC,
) -> Tuple[bool, bool]:
    """One full round on one core, through the same kernels.

    The inline path of the parallel engine and the ground truth the
    chunked path is tested against: hook over the whole edge range into
    ``scratch``, combine, then jump over the whole vertex range into
    ``back`` until a jump moves no label (every tree a star).  The
    caller swaps ``f``/``back`` afterwards.  Returns
    ``(hook_changed, jump_changed)``.
    """
    hook_partial(f, src, dst, 0, src.shape[0], scratch, variant, seed)
    hook_changed = combine_partials(f, [scratch])
    jump_changed = False
    while jump_chunk(f, back, 0, f.shape[0]) > 0:
        jump_changed = True
        f[...] = back
    return hook_changed, jump_changed
