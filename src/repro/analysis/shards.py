"""Shard planning, storage and verification for the out-of-core engine.

The contracting engine (:mod:`repro.hirschberg.contracting`) is the
fastest path for large sparse graphs but holds the whole edge list --
and several same-sized temporaries -- in RAM.  The sharded engine
(:mod:`repro.hirschberg.sharded`) removes that ceiling by bounding the
*resident* working set to a configured byte budget and letting capacity
grow with disk instead.  This module owns the three pieces that make
that bound real:

* :func:`plan_shards` -- turns ``(n, edges, memory budget, workers)``
  into a :class:`ShardPlan`: how many shards, how many edges each may
  hold, and how large the streaming chunks are.  The planner sizes
  shards so that ``workers`` concurrent shard solves (input slabs,
  compaction and dedup sort scratch, contraction levels, and the
  shared-memory double count) fit inside the budget together;
* :class:`ShardStore` / :class:`PairFile` -- append-only files of
  ``(u, v)`` int64 pairs on disk, read back through *windowed*
  ``np.memmap`` views (:func:`open_memmap_window`) that are unmapped
  eagerly, so reading a 100M-edge shard file never pins more than one
  window of pages.  Mapped-and-touched pages count toward RSS exactly
  like heap pages; the explicit unmap is what keeps the peak honest;
* :func:`spot_check_labels` -- the oracle *spot-check* protocol for
  results too large for a full union-find oracle run: sampled edge
  consistency, representative sanity, and an exact union-find solve of
  a subsampled subgraph whose components must refine the full labels.

The spot check is sampling-based and therefore probabilistic: a random
corruption of ``t`` labels escapes detection with probability that
decays geometrically in ``t`` and the sample sizes (the property tests
in ``tests/analysis/test_shards.py`` measure this).  It is a
verification *protocol*, not a proof -- an adversary who relabels one
entire component consistently onto another component's representative
is detectable only by check A whenever any sampled edge crosses the two.
"""

from __future__ import annotations

import mmap
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.hirschberg.edgelist import _compact_ids
from repro.util.validation import check_positive

PathLike = Union[str, Path]

#: Estimated resident bytes one in-flight shard solve costs per edge:
#: the (u, v) input slabs, the worker's compaction and dedup sort
#: scratch, the contraction level arrays, the frontier output slab --
#: and the fact that shared-memory pages touched by both parent and
#: worker are counted in both processes' RSS.  Deliberately
#: conservative; the bench (``benchmarks/bench_sharded.py``) asserts the
#: realized peak.
SHARD_BYTES_PER_EDGE = 256

#: Fraction of the memory budget the planner hands to concurrent shard
#: solves; the rest covers the parent's streaming chunks, the merge
#: label array and the interpreter baseline.
_SOLVE_BUDGET_FRACTION = 0.75

#: Never plan shards smaller than this (per-shard fixed costs dominate).
MIN_SHARD_EDGES = 65_536

#: Hard cap on the shard count (file handles, per-shard overheads).
MAX_SHARDS = 4096

#: Default edges per streamed partition chunk (32 MiB of pairs).
DEFAULT_CHUNK_EDGES = 1 << 21

#: Open file handles the :class:`ShardStore` keeps warm (LRU).
_HANDLE_CACHE = 32


@dataclass(frozen=True)
class ShardPlan:
    """How one out-of-core solve is laid out.

    Attributes
    ----------
    n:
        Global vertex count.
    edges:
        The edge count the plan was sized for (an estimate is fine; the
        store records the realized counts).
    shards:
        Number of shard files the edge list is partitioned into.
    shard_edges:
        Planned edges per shard (the in-RAM unit of work).
    memory_budget:
        Resident byte budget the plan was sized against.
    chunk_edges:
        Edges per streaming chunk during partitioning and merging.
    workers:
        Concurrent shard solves the budget admits.
    """

    n: int
    edges: int
    shards: int
    shard_edges: int
    memory_budget: int
    chunk_edges: int
    workers: int

    def to_json(self) -> Dict[str, int]:
        return {
            "n": self.n,
            "edges": self.edges,
            "shards": self.shards,
            "shard_edges": self.shard_edges,
            "memory_budget": self.memory_budget,
            "chunk_edges": self.chunk_edges,
            "workers": self.workers,
        }


def plan_shards(
    n: int,
    edges: int,
    memory_budget: Optional[int] = None,
    shards: Optional[int] = None,
    workers: int = 1,
) -> ShardPlan:
    """Size a shard layout for ``edges`` edges under ``memory_budget``.

    ``memory_budget=None`` probes the host
    (:func:`repro.core.dispatch.probe_available_memory`) and budgets
    half of what is available.  ``shards`` overrides the computed shard
    count (the bench's scaling section pins it); the planner still
    reports the per-shard edge load so callers can check feasibility.
    """
    check_positive("n", n)
    if edges < 0:
        raise ValueError(f"edges must be >= 0, got {edges}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if memory_budget is None:
        from repro.core.dispatch import probe_available_memory

        memory_budget = probe_available_memory(default=2 << 30) // 2
    memory_budget = int(memory_budget)
    if memory_budget < 1:
        raise ValueError(
            f"memory_budget must be >= 1 byte, got {memory_budget}"
        )
    solve_budget = memory_budget * _SOLVE_BUDGET_FRACTION
    cap = max(
        MIN_SHARD_EDGES, int(solve_budget // (workers * SHARD_BYTES_PER_EDGE))
    )
    if shards is None:
        shards = max(1, -(-max(edges, 1) // cap))
        shards = min(shards, MAX_SHARDS)
    else:
        check_positive("shards", shards)
        if shards > MAX_SHARDS:
            raise ValueError(
                f"shards must be <= {MAX_SHARDS}, got {shards}"
            )
    shard_edges = -(-max(edges, 1) // shards)
    chunk_edges = int(min(DEFAULT_CHUNK_EDGES, max(shard_edges, 4096)))
    return ShardPlan(
        n=n,
        edges=edges,
        shards=int(shards),
        shard_edges=int(shard_edges),
        memory_budget=memory_budget,
        chunk_edges=chunk_edges,
        workers=workers,
    )


# ----------------------------------------------------------------------
# windowed memory-mapped pair files
# ----------------------------------------------------------------------

@contextmanager
def open_memmap_window(
    path: PathLike, start: int, stop: int, dtype=np.int64
) -> Iterator[np.ndarray]:
    """Read-only view of items ``[start, stop)`` of a flat binary file.

    The mapping starts at the largest ``mmap.ALLOCATIONGRANULARITY``
    multiple below the byte offset (``np.memmap`` requires aligned
    offsets) and is **unmapped eagerly on exit** -- pages a window
    touched are released back to the OS instead of accumulating in this
    process's resident set, which is the whole point of windowed reads.

    Callers must copy anything they keep: the yielded view dies with
    the mapping, and touching it after the ``with`` block is undefined.
    """
    itemsize = np.dtype(dtype).itemsize
    if stop < start:
        raise ValueError(f"window [{start}, {stop}) is negative")
    if start == stop:
        yield np.empty(0, dtype=dtype)
        return
    byte_start = start * itemsize
    offset = (byte_start // mmap.ALLOCATIONGRANULARITY) * mmap.ALLOCATIONGRANULARITY
    lead = byte_start - offset
    length = lead + (stop - start) * itemsize
    mapped = np.memmap(path, dtype=np.uint8, mode="r", offset=offset,
                       shape=(length,))
    try:
        yield mapped[lead:].view(dtype)
    finally:
        mapped._mmap.close()


class PairFile:
    """An append-only binary file of interleaved ``(u, v)`` int64 pairs.

    Appends go through a buffered file handle; reads come back as
    bounded windows through :func:`open_memmap_window`, each copied out
    and unmapped before the next is opened, so iterating a file of any
    size keeps only ``chunk_edges`` pairs resident.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._handle = None
        self._pairs = (
            self.path.stat().st_size // 16 if self.path.exists() else 0
        )

    @property
    def pairs(self) -> int:
        """Number of ``(u, v)`` pairs written so far."""
        return self._pairs

    def append(self, u: np.ndarray, v: np.ndarray) -> None:
        """Append parallel endpoint arrays as interleaved pairs."""
        if u.size != v.size:
            raise ValueError(
                f"endpoint arrays differ in length: {u.size} vs {v.size}"
            )
        if u.size == 0:
            return
        block = np.empty((u.size, 2), dtype=np.int64)
        block[:, 0] = u
        block[:, 1] = v
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(block.tobytes())
        self._pairs += int(u.size)

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def iter_chunks(
        self, chunk_pairs: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(u, v)`` copies, at most ``chunk_pairs`` pairs each."""
        check_positive("chunk_pairs", chunk_pairs)
        self.flush()
        total = self._pairs
        for start in range(0, total, chunk_pairs):
            stop = min(start + chunk_pairs, total)
            with open_memmap_window(
                self.path, start * 2, stop * 2
            ) as window:
                block = np.array(window).reshape(-1, 2)
            yield block[:, 0], block[:, 1]

    def read_all(self) -> Tuple[np.ndarray, np.ndarray]:
        """The whole file as ``(u, v)`` arrays (one bounded window)."""
        self.flush()
        with open_memmap_window(self.path, 0, self._pairs * 2) as window:
            block = np.array(window).reshape(-1, 2)
        return block[:, 0], block[:, 1]

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def remove(self) -> None:
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "PairFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardStore:
    """``k`` :class:`PairFile` shards under one working directory.

    The store is the on-disk half of the out-of-core engine: the
    partitioner appends round-robin slices of each streamed chunk, the
    solve stage reads whole shards back (each bounded by the plan), and
    :meth:`remove` deletes every file -- CI asserts the working
    directory is empty afterwards, mirroring the ``/dev/shm`` leak diff
    for the slab pool.
    """

    def __init__(self, workdir: PathLike, shards: int):
        check_positive("shards", shards)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.shards = shards
        self._files: List[PairFile] = [
            PairFile(self.workdir / f"shard_{i:04d}.pairs")
            for i in range(shards)
        ]

    def append(self, shard: int, u: np.ndarray, v: np.ndarray) -> None:
        self._files[shard].append(u, v)
        self._trim_handles()

    def _trim_handles(self) -> None:
        open_files = [f for f in self._files if f._handle is not None]
        while len(open_files) > _HANDLE_CACHE:
            open_files.pop(0).close()

    def partition(
        self, chunks: Iterable[Tuple[np.ndarray, np.ndarray]]
    ) -> int:
        """Stream ``(u, v)`` chunks into the shards; returns the total.

        Each chunk is split by stride across all shards, so shard sizes
        stay balanced whatever the stream's length or ordering -- a
        sorted input file cannot overload one shard.
        """
        total = 0
        k = self.shards
        for u, v in chunks:
            u = np.ascontiguousarray(u, dtype=np.int64).ravel()
            v = np.ascontiguousarray(v, dtype=np.int64).ravel()
            if u.size != v.size:
                raise ValueError(
                    f"chunk endpoint arrays differ: {u.size} vs {v.size}"
                )
            total += int(u.size)
            if k == 1:
                self.append(0, u, v)
                continue
            for i in range(k):
                if u[i::k].size:
                    self.append(i, u[i::k], v[i::k])
        self.flush()
        return total

    def flush(self) -> None:
        for f in self._files:
            f.flush()

    def edge_count(self, shard: int) -> int:
        return self._files[shard].pairs

    def total_edges(self) -> int:
        return sum(f.pairs for f in self._files)

    def read_shard(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._files[shard].read_all()

    def iter_all_chunks(
        self, chunk_pairs: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Every stored edge, shard by shard, in bounded chunks."""
        for f in self._files:
            yield from f.iter_chunks(chunk_pairs)

    def close(self) -> None:
        for f in self._files:
            f.close()

    def remove(self) -> None:
        for f in self._files:
            f.remove()

    def __enter__(self) -> "ShardStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# the oracle spot-check protocol
# ----------------------------------------------------------------------

#: Edges the protocol checks for label consistency (sampled past this).
DEFAULT_EDGE_SAMPLES = 2_000_000

#: Vertices checked for representative sanity.
DEFAULT_VERTEX_SAMPLES = 100_000

#: Edges in the union-find refinement subsample.
DEFAULT_SUBSAMPLE_EDGES = 200_000

#: Violations listed verbatim in the report (the counts are complete).
_MAX_EXAMPLES = 20


@dataclass
class SpotCheckReport:
    """Outcome of :func:`spot_check_labels`.

    ``checks`` maps each check name to pass/fail; ``violations`` holds
    up to :data:`_MAX_EXAMPLES` human-readable examples.  ``ok`` is the
    conjunction -- what the bench and CI assert.
    """

    n: int
    edges_checked: int
    vertices_checked: int
    subsample_edges: int
    checks: Dict[str, bool] = field(default_factory=dict)
    violation_count: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def _note(self, message: str) -> None:
        self.violation_count += 1
        if len(self.violations) < _MAX_EXAMPLES:
            self.violations.append(message)

    def to_json(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "edges_checked": self.edges_checked,
            "vertices_checked": self.vertices_checked,
            "subsample_edges": self.subsample_edges,
            "checks": dict(self.checks),
            "violation_count": self.violation_count,
            "violations": list(self.violations),
            "ok": self.ok,
        }


def spot_check_labels(
    labels: np.ndarray,
    n: int,
    edge_chunks: Iterable[Tuple[np.ndarray, np.ndarray]],
    edges_hint: Optional[int] = None,
    max_edge_samples: int = DEFAULT_EDGE_SAMPLES,
    vertex_samples: int = DEFAULT_VERTEX_SAMPLES,
    subsample_edges: int = DEFAULT_SUBSAMPLE_EDGES,
    seed: int = 0,
) -> SpotCheckReport:
    """Sampled verification of a component labelling at any scale.

    Three independent checks, each a different failure lens:

    * **edge consistency** (check A): for sampled edges ``(u, v)``,
      ``labels[u] == labels[v]`` -- catches under-merges and random
      label corruption with probability rising geometrically in the
      number of corrupted entries (every corrupted non-isolated vertex
      that lands in the sample is caught unless its whole neighbourhood
      was corrupted consistently);
    * **representative sanity** (check B): for sampled vertices ``x``,
      ``labels[x]`` is in range, ``labels[x] <= x`` (the canonical
      minimum-index convention) and ``labels[labels[x]] == labels[x]``
      (representatives are fixed points);
    * **union-find refinement** (check C): an exact union-find solve of
      a subsampled subgraph; every subgraph component must lie inside
      one full-label class (subsample connectivity is a lower bound on
      true connectivity, so any split it sees is a genuine error).

    ``edge_chunks`` is re-streamed, never materialised; ``edges_hint``
    (when known) spreads the edge sample uniformly over the stream
    instead of over its prefix.  The protocol is probabilistic by
    construction -- see the module docstring for the honest limits.
    """
    check_positive("n", n)
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(
            f"labels must have shape ({n},), got {labels.shape}"
        )
    rng = np.random.default_rng(seed)
    report = SpotCheckReport(
        n=n, edges_checked=0, vertices_checked=0, subsample_edges=0
    )

    # -- check B: representative sanity on sampled vertices ------------
    count = min(vertex_samples, n)
    verts = (
        np.arange(n, dtype=np.int64)
        if count == n
        else rng.integers(0, n, size=count, dtype=np.int64)
    )
    report.vertices_checked = int(verts.size)
    lx = labels[verts]
    in_range = (lx >= 0) & (lx < n)
    minimal = lx <= verts
    for x in verts[~in_range][:_MAX_EXAMPLES]:
        report._note(f"labels[{int(x)}] = {int(labels[x])} out of range")
    for x in verts[in_range & ~minimal][:_MAX_EXAMPLES]:
        report._note(
            f"labels[{int(x)}] = {int(labels[x])} exceeds the vertex index"
        )
    idem = np.ones(verts.size, dtype=bool)
    safe = in_range
    idem[safe] = labels[lx[safe]] == lx[safe]
    for x in verts[safe & ~idem][:_MAX_EXAMPLES]:
        report._note(
            f"labels[{int(x)}] = {int(labels[x])} is not a fixed point"
        )
    report.checks["representative_in_range"] = bool(in_range.all())
    report.checks["representative_min"] = bool(minimal.all())
    report.checks["representative_idempotent"] = bool(idem.all())

    # -- checks A and C over the edge stream ---------------------------
    stride = 1
    if edges_hint and edges_hint > max_edge_samples > 0:
        stride = -(-edges_hint // max_edge_samples)
    sub_stride = 1
    if edges_hint and edges_hint > subsample_edges > 0:
        sub_stride = -(-edges_hint // subsample_edges)
    edge_ok = True
    sub_u: List[np.ndarray] = []
    sub_v: List[np.ndarray] = []
    sub_total = 0
    offset = 0
    for u, v in edge_chunks:
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        if u.size == 0:
            continue
        first = (-offset) % stride
        su, sv = u[first::stride], v[first::stride]
        if report.edges_checked >= max_edge_samples > 0:
            su = sv = np.empty(0, dtype=np.int64)
        if su.size:
            report.edges_checked += int(su.size)
            mismatched = labels[su] != labels[sv]
            if mismatched.any():
                edge_ok = False
                for a, b in zip(
                    su[mismatched][:_MAX_EXAMPLES].tolist(),
                    sv[mismatched][:_MAX_EXAMPLES].tolist(),
                ):
                    report._note(
                        f"edge ({a}, {b}) crosses labels "
                        f"{int(labels[a])} != {int(labels[b])}"
                    )
        if sub_total < subsample_edges:
            first = (-offset) % sub_stride
            cu, cv = u[first::sub_stride], v[first::sub_stride]
            take = min(cu.size, subsample_edges - sub_total)
            if take:
                sub_u.append(cu[:take].copy())
                sub_v.append(cv[:take].copy())
                sub_total += take
        offset += int(u.size)
    report.checks["edge_consistency"] = edge_ok

    # -- check C: exact union-find on the subsampled subgraph ----------
    report.subsample_edges = sub_total
    refinement_ok = True
    if sub_total:
        from repro.graphs.union_find import UnionFind

        eu = np.concatenate(sub_u)
        ev = np.concatenate(sub_v)
        verts_all, inverse = _compact_ids(eu, ev)
        lu, lv = inverse[:eu.size], inverse[eu.size:]
        uf = UnionFind(int(verts_all.size))
        for a, b in zip(lu.tolist(), lv.tolist()):
            uf.union(a, b)
        roots = np.asarray(uf.canonical_labels())
        full = labels[verts_all]
        order = np.argsort(roots, kind="stable")
        sorted_roots = roots[order]
        sorted_full = full[order]
        same_group = np.empty(sorted_roots.size, dtype=bool)
        same_group[0] = False
        same_group[1:] = sorted_roots[1:] == sorted_roots[:-1]
        split = same_group & (sorted_full != np.concatenate(
            ([np.int64(-1)], sorted_full[:-1])
        ))
        if split.any():
            refinement_ok = False
            for i in np.flatnonzero(split)[:_MAX_EXAMPLES]:
                a = int(verts_all[order[i - 1]])
                b = int(verts_all[order[i]])
                report._note(
                    f"subsample-connected vertices {a} and {b} carry "
                    f"labels {int(labels[a])} != {int(labels[b])}"
                )
    report.checks["oracle_refinement"] = refinement_ok
    return report


def remove_workdir(workdir: PathLike) -> None:
    """Delete a shard working directory if it is empty of shard files.

    Only files this module created (``*.pairs``, ``labels.bin``) are
    removed; anything else is left in place and the directory survives,
    so a user-supplied ``workdir`` can never lose unrelated data.
    """
    workdir = Path(workdir)
    if not workdir.exists():
        return
    for name in os.listdir(workdir):
        if name.endswith(".pairs") or name == "labels.bin":
            try:
                (workdir / name).unlink()
            except FileNotFoundError:
                pass
    try:
        workdir.rmdir()
    except OSError:
        pass  # non-empty: user files stay untouched
