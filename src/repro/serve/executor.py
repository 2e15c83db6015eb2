"""Persistent shared-memory worker pool for the serve layer.

The serve scheduler (PR 3) packs requests into batches well, but every
flush still executes on one GIL-bound core.  This module is the missing
half of the paper's "many cheap processing elements" story at the
process level: a **pre-forked, persistent** pool of worker processes
that import the engines once, stay warm forever, and execute whole
flushed batches -- coalesced contracting unions -- on all cores.

Design points, in the order they matter:

* **Zero-copy handoff.**  Batch payloads travel through
  :class:`~repro.analysis.shm.SlabPool` slabs: the parent writes the
  union's edge arrays straight into a recycled shared-memory block, the
  worker attaches by name (caching the mapping, so a steady server
  re-maps nothing) and writes the label vectors into a shared output
  slot.  Only a tiny picklable
  :class:`_Task` descriptor crosses the queue.
* **Per-worker pipes, not a shared queue.**  Every worker owns a private
  task pipe and a private result pipe (single writer, single reader, no
  locks).  A shared ``multiprocessing.Queue`` would be simpler -- and
  wrong: a worker SIGKILLed while blocked in ``get()`` dies *holding the
  queue's reader lock*, after which no replacement can ever dequeue
  again.  With private pipes a crash orphans only that worker's own
  channel, and the parent knows exactly which tasks went to it.
* **Bounded in-flight window.**  A semaphore caps batches submitted but
  not yet resolved, so a stalled pool backpressures the server's worker
  threads instead of growing an unbounded pickle queue.
* **Heartbeats & crash replacement.**  Each worker bumps a per-worker
  heartbeat slot; a monitor thread watches process liveness.  A dead
  worker (OOM-killed, segfaulted) is replaced immediately, every task
  dispatched to it fails over to a **single retry on a fresh worker**
  (:meth:`PoolExecutor.solve_coalesced` rebuilds the slabs and resubmits
  once), and only then surfaces :class:`~repro.serve.workers.WorkerDied`
  to the server -- which falls back to inline solo execution, so one
  lost worker never fails unrelated in-flight requests.
* **Measured dispatch overhead.**  Startup warm-calibrates the pool: a
  few tiny coalesced solves -- the task the serve planner ships --
  measure the real cost of one pool dispatch on this host
  (:attr:`PoolExecutor.measured_overhead`), which the server feeds into
  the cost-model term
  :attr:`~repro.core.dispatch.CostModel.pool_dispatch_overhead` so small
  batches stay inline.
* **No leaks.**  Shutdown (explicit, context-manager, or the ``atexit``
  safety net) joins the workers, drains the queues and unlinks every
  shared segment; :func:`repro.analysis.shm.live_segments` is empty
  afterwards, which the tests and CI assert.  While the pool runs, a
  worker unmaps each segment the parent is done with -- a transient
  slab when its task ends, a solve's own segments through
  :meth:`PoolExecutor.detach` -- so worker memory does not grow with
  the number of solves.

Slabs touched by a failed or suspect task are *discarded* (unlinked)
rather than recycled: a straggler worker that still holds the old
mapping then scribbles on orphaned pages instead of on a block that a
later batch reuses.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp
from multiprocessing import connection as mp_connection

import numpy as np

from repro.analysis.shm import SharedArray, SharedArrayRef, Slab, SlabPool
from repro.hirschberg.edgelist import EdgeListGraph
from repro.serve.request import GraphLike
from repro.serve.workers import (
    WorkerDied,
    as_edge_list,
    split_union_labels,
    union_edges,
)

#: Seconds an idle worker polls its task pipe between heartbeats.
HEARTBEAT_INTERVAL = 0.05

#: Warm-calibration round trips (tiny coalesced solves through the full
#: slab + queue + attach path); the minimum is the measured overhead.
_CALIBRATION_TRIPS = 3


@dataclass(frozen=True)
class _Task:
    """Picklable batch descriptor; the arrays stay in shared memory."""

    seq: int
    kind: str   # "sparse" | "shard" | "lt_hook" | "lt_jump" | "ping" | "detach"
    out: Optional[SharedArrayRef] = None
    src: Optional[SharedArrayRef] = None     # sparse/shard: edge arrays
    dst: Optional[SharedArrayRef] = None
    n: int = 0                    # sparse/shard: global node count
    engine: str = "contracting"   # sparse engine, or lt_hook variant
    sleep: float = 0.0            # ping: hold the worker busy (tests)
    labels: Optional[SharedArrayRef] = None  # lt_*: round-start labels
    lo: int = 0                   # lt_*: chunk bounds (edges / vertices)
    hi: int = 0
    seed: int = -1                # lt_hook: stochastic round seed
    drop: Tuple[str, ...] = ()    # segments to unmap once the task ends


_REF_FIELDS = ("out", "src", "dst", "labels")


def _segment_names(task: _Task) -> Tuple[str, ...]:
    """Names of every shared segment ``task`` points into."""
    refs = (getattr(task, name) for name in _REF_FIELDS)
    return tuple(ref.name for ref in refs if ref is not None)


# ----------------------------------------------------------------------
# worker process side
# ----------------------------------------------------------------------
#: Per-worker cache of attached segments (name -> SharedMemory).  The
#: parent's slab pool recycles a handful of names, so after warm-up a
#: worker maps no new memory per batch.  Segments the parent is about to
#: unlink leave the cache as soon as their task ends (``_Task.drop``, or
#: a ``"detach"`` broadcast for segments shared by many tasks), so a
#: finished batch or solve pins no pages.  The bound is a backstop:
#: oldest mapping evicted past this many entries.
_ATTACH_CACHE_MAX = 32


def _attach_view(cache: Dict[str, "mp.shared_memory.SharedMemory"],
                 ref: SharedArrayRef) -> np.ndarray:
    from multiprocessing import shared_memory

    shm = cache.get(ref.name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=ref.name)
        if len(cache) >= _ATTACH_CACHE_MAX:
            _drop_views(cache, [next(iter(cache))])
        cache[ref.name] = shm
    return np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf,
                      offset=ref.offset)


def _drop_views(cache: Dict[str, "mp.shared_memory.SharedMemory"],
                names: Sequence[str]) -> None:
    """Unmap the named segments from this worker (no-op if not mapped).

    A view that somehow outlived its task keeps ``close`` from
    releasing the buffer; the mapping then goes with that view.
    """
    for name in names:
        shm = cache.pop(name, None)
        if shm is not None:
            try:
                shm.close()
            except BufferError:
                pass


def _run_task(task: _Task, cache: Dict) -> int:
    """Execute one task against shared memory; returns a tiny token."""
    from repro.hirschberg.contracting import connected_components_contracting

    if task.kind == "detach":
        return 0  # the worker loop unmaps ``task.drop``
    if task.kind == "ping":
        if task.sleep:
            time.sleep(task.sleep)
        return 0
    out = _attach_view(cache, task.out)
    if task.kind == "shard":
        from repro.hirschberg.sharded import solve_shard_arrays

        verts, reps = solve_shard_arrays(
            task.n,
            _attach_view(cache, task.src),
            _attach_view(cache, task.dst),
        )
        count = int(verts.size)
        out[0, :count] = verts
        out[1, :count] = reps
        return count
    if task.kind == "lt_hook":
        from repro.core.parallel_kernels import hook_partial

        return hook_partial(
            _attach_view(cache, task.labels),
            _attach_view(cache, task.src),
            _attach_view(cache, task.dst),
            task.lo, task.hi, out,
            variant=task.engine, seed=task.seed,
        )
    if task.kind == "lt_jump":
        from repro.core.parallel_kernels import jump_chunk

        return jump_chunk(_attach_view(cache, task.labels), out,
                          task.lo, task.hi)
    if task.engine != "contracting":
        raise ValueError(f"unknown sparse engine {task.engine!r}")
    graph = EdgeListGraph(
        n=task.n,
        src=_attach_view(cache, task.src),
        dst=_attach_view(cache, task.dst),
    )
    labels = connected_components_contracting(graph).labels
    out[...] = labels
    return int(labels.size)


def _worker_main(worker_id: int, task_r, result_w,
                 hb_ref: SharedArrayRef) -> None:
    """Worker process body: warm the engines, then serve tasks forever.

    ``task_r`` / ``result_w`` are this worker's *private* pipe ends --
    nothing is shared with sibling workers, so a sibling's crash can
    never wedge this worker's channel.  Messages back to the parent:
    ``("ready", id, pid)`` once warm, ``("done", seq, pid, token,
    error_or_None)`` per task.  Labels never cross the pipe.
    """
    from repro.core.batched import BatchedGCA
    from repro.hirschberg.contracting import connected_components_contracting
    from repro.hirschberg.edgelist import random_edge_list

    hb = SharedArray.attach(hb_ref)
    cache: Dict = {}
    pid = os.getpid()
    try:
        # Warm NumPy's first-call paths so the first real batch does not
        # pay them (the imports themselves came free with the fork).
        tiny = np.zeros((1, 2, 2), dtype=np.int8)
        BatchedGCA(list(tiny)).run()
        connected_components_contracting(random_edge_list(4, 4, seed=0))
        result_w.send(("ready", worker_id, pid))
        while True:
            if not task_r.poll(HEARTBEAT_INTERVAL):
                hb.array[worker_id] += 1
                continue
            try:
                task = task_r.recv()
            except (EOFError, OSError):
                break  # parent went away
            if task is None:
                break
            drop = task.drop
            try:
                token, error = _run_task(task, cache), None
            except BaseException as exc:  # noqa: BLE001 -- reported, not raised
                token, error = None, f"{type(exc).__name__}: {exc}"
                # the parent discards every slab of a failed task
                drop = drop + _segment_names(task)
            # unmap before reporting: once the parent sees "done" it may
            # unlink, and no worker should still hold the pages
            _drop_views(cache, drop)
            result_w.send(("done", task.seq, pid, token, error))
            hb.array[worker_id] += 1
    finally:
        for shm in cache.values():
            shm.close()
        hb.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass
class _Pending:
    """Parent-side record of one submitted task."""

    task: _Task
    submitted: float
    assigned_pid: int = 0                 # pid of the worker it went to
    event: threading.Event = field(default_factory=threading.Event)
    outcome: Optional[Tuple[str, object]] = None  # ("ok"|"died"|"error", x)

    def resolve(self, kind: str, payload: object) -> None:
        if self.outcome is None:
            self.outcome = (kind, payload)
            self.event.set()


class _WorkerHandle:
    """One worker process plus the parent ends of its private pipes."""

    __slots__ = ("proc", "task_w", "result_r")

    def __init__(self, proc, task_w, result_r):
        self.proc = proc
        self.task_w = task_w
        self.result_r = result_r

    def close(self) -> None:
        for conn in (self.task_w, self.result_r):
            try:
                conn.close()
            except OSError:
                pass


class PoolExecutor:
    """The persistent multi-core batch executor (see module docstring).

    Parameters
    ----------
    workers:
        Worker process count (pre-forked at :meth:`start`).
    max_inflight:
        Bound on batches submitted but unresolved (default
        ``2 * workers``).
    slab_budget:
        Byte budget of the recycled slab pool.
    start_method:
        ``multiprocessing`` start method; default prefers ``"fork"``
        (pre-fork semantics: workers inherit the warm imports) and falls
        back to the platform default.
    calibrate:
        Measure :attr:`measured_overhead` with tiny round trips at
        startup (default on; tests disable it for speed).
    """

    def __init__(
        self,
        workers: int,
        max_inflight: Optional[int] = None,
        slab_budget: int = 256 << 20,
        start_method: Optional[str] = None,
        calibrate: bool = True,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.restarts = 0
        self.measured_overhead = 0.0
        self._calibrate = calibrate
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else None
            )
        self._ctx = mp.get_context(start_method)
        self._hb = SharedArray.zeros((workers,), np.int64)
        self._slabs = SlabPool(slab_budget)
        self._inflight = threading.BoundedSemaphore(
            max_inflight if max_inflight is not None else 2 * workers
        )
        self._lock = threading.Lock()
        self._handles: List[Optional[_WorkerHandle]] = [None] * workers
        self._pending: Dict[int, _Pending] = {}
        self._seq = 0
        self._state = "new"
        self._ready_count = 0
        self._collector: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "PoolExecutor":
        with self._lock:
            if self._state != "new":
                raise RuntimeError(f"cannot start a {self._state} pool")
            self._state = "running"
        for i in range(self.workers):
            self._handles[i] = self._spawn(i)
        self._collector = threading.Thread(
            target=self._collector_loop, name="repro-pool-collector",
            daemon=True,
        )
        self._collector.start()
        self._await_ready()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-pool-monitor", daemon=True,
        )
        self._monitor.start()
        atexit.register(self.shutdown)
        if self._calibrate:
            self._warm_calibrate()
        return self

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_r, result_w, self._hb.ref),
            name=f"repro-pool-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        # drop the parent's copies of the child ends so EOF propagates
        task_r.close()
        result_w.close()
        return _WorkerHandle(proc, task_w, result_r)

    def _await_ready(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if self._ready_count >= self.workers:
                    return
                if self._state != "running":
                    return
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"pool workers not ready within {timeout}s"
                )
            time.sleep(0.005)

    def _warm_calibrate(self) -> None:
        """Measure one pool dispatch end to end (slab, queue, attach,
        tiny coalesced solve, result) -- the term that keeps small
        batches inline."""
        edge = np.zeros(1, dtype=np.int64)
        tiny = [EdgeListGraph(n=2, src=edge, dst=edge + 1)] * 2
        best = float("inf")
        for _ in range(_CALIBRATION_TRIPS):
            t0 = time.perf_counter()
            try:
                self.solve_coalesced(tiny)
            except Exception:  # noqa: BLE001 -- calibration is best-effort
                return
            best = min(best, time.perf_counter() - t0)
        self.measured_overhead = best

    def __enter__(self) -> "PoolExecutor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop workers, drain queues, unlink every shared segment.

        Idempotent; also registered via ``atexit`` so an interrupted
        run (SIGINT mid-bench) still leaves ``/dev/shm`` clean.
        """
        with self._lock:
            if self._state in ("stopped", "new"):
                self._state = "stopped"
                return
            self._state = "stopping"
            pendings = list(self._pending.values())
        for pending in pendings:
            pending.resolve("died", "pool shut down")
        handles = [h for h in self._handles if h is not None]
        for handle in handles:
            try:
                handle.task_w.send(None)
            except (OSError, ValueError):  # already dead / pipe broken
                pass
        deadline = time.monotonic() + timeout
        for handle in handles:
            proc = handle.proc
            proc.join(timeout=max(deadline - time.monotonic(), 0.05))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        with self._lock:
            self._state = "stopped"
        for handle in handles:
            handle.close()
        if self._collector is not None:
            self._collector.join(timeout=1.0)
        if self._monitor is not None:
            self._monitor.join(timeout=1.0)
        self._slabs.close_all()
        self._hb.close()
        self._hb.unlink()
        try:
            atexit.unregister(self.shutdown)
        except Exception:  # noqa: BLE001
            pass

    # -- observability -------------------------------------------------
    def worker_pids(self) -> List[int]:
        return [h.proc.pid for h in self._handles if h is not None]

    def heartbeats(self) -> List[int]:
        """Per-worker heartbeat counters (monotone while a worker lives)."""
        if self._hb.array is None:
            return []
        return [int(x) for x in self._hb.array]

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- submission ----------------------------------------------------
    def _submit(
        self, build, target: Optional[_WorkerHandle] = None
    ) -> Tuple[_Pending, List[Slab]]:
        """Allocate a sequence number, build the task, dispatch it.

        ``build(seq) -> (task, slabs)`` runs under no lock (slab writes
        are heavy).  The task goes down the private pipe of ``target``,
        or of the least-loaded worker; registration happens before the
        send so a lightning-fast worker can never report an unknown seq.
        A send that hits a just-died worker's broken pipe (or a
        ``target`` already replaced) resolves the pending ``"died"``
        immediately -- the caller's retry re-dispatches.  Transient
        slabs are unlinked on release, so the task tells its worker to
        unmap them when it ends.
        """
        with self._lock:
            if self._state != "running":
                raise WorkerDied("pool is shut down")
            self._seq += 1
            seq = self._seq
        task, slabs = build(seq)
        transient = tuple(s.ref.name for s in slabs if s.transient)
        if transient:
            task = replace(task, drop=task.drop + transient)
        pending = _Pending(task=task, submitted=time.monotonic())
        with self._lock:
            if self._state != "running":
                raise WorkerDied("pool is shut down")
            handles = [h for h in self._handles if h is not None]
            if target is None:
                loads = {h.proc.pid: 0 for h in handles}
                for other in self._pending.values():
                    if other.outcome is None and other.assigned_pid in loads:
                        loads[other.assigned_pid] += 1
                handle = min(handles, key=lambda h: loads.get(h.proc.pid, 0))
            else:
                handle = target
            pending.assigned_pid = handle.proc.pid
            self._pending[seq] = pending
        if handle not in handles:
            pending.resolve("died", "worker replaced")
            return pending, slabs
        try:
            handle.task_w.send(task)
        except (OSError, ValueError):
            # the chosen worker died with its pipe; fail over right away
            pending.resolve("died", "task pipe broken")
        return pending, slabs

    def _finish(self, pending: _Pending) -> Tuple[str, object]:
        pending.event.wait()
        with self._lock:
            self._pending.pop(pending.task.seq, None)
        assert pending.outcome is not None
        return pending.outcome

    def _acquire_slabs(self, specs: Sequence[Tuple[Tuple[int, ...], object]]) -> List[Slab]:
        """Acquire one slab per ``(shape, dtype)`` spec, atomically.

        If a later acquisition fails (slab budget forces a fresh segment
        and ``/dev/shm`` is full), the earlier slabs are discarded -- a
        partial failure must not leak the first slab of the batch.
        """
        slabs: List[Slab] = []
        try:
            for shape, dtype in specs:
                slabs.append(self._slabs.acquire(shape, dtype))
        except BaseException:
            self._discard(slabs)
            raise
        return slabs

    def _discard(self, slabs: Sequence[Slab]) -> None:
        """Unlink (never recycle) slabs a failed task may still write."""
        for slab in slabs:
            slab.transient = True
            self._slabs.release(slab)

    def _release(self, slabs: Sequence[Slab]) -> None:
        for slab in slabs:
            self._slabs.release(slab)

    def _run(self, build, collect):
        """Submit/await/retry-once skeleton shared by the solve paths.

        ``collect(slabs, token)`` receives the worker's result token --
        the shard path uses it as the valid prefix length of its output
        slab; the other paths ignore it.
        """
        with self._inflight:
            last_error: Optional[str] = None
            for attempt in range(2):
                pending, slabs = self._submit(build)
                kind, payload = self._finish(pending)
                if kind == "ok":
                    out = collect(slabs, payload)
                    self._release(slabs)
                    return out
                self._discard(slabs)
                if kind == "error":
                    # the engine raised inside a healthy worker: a retry
                    # would fail identically; let the server fall back
                    raise RuntimeError(f"pool worker error: {payload}")
                last_error = str(payload)
                # worker died: the monitor already replaced it; one
                # rebuild-and-resubmit lands on a fresh worker
            raise WorkerDied(
                f"pool worker died twice running one batch: {last_error}"
            )

    # -- the high-level solve paths ------------------------------------
    def ping(self, sleep: float = 0.0) -> None:
        """One queue round trip (liveness probe; tests use ``sleep`` to
        pin a worker busy)."""
        self._run(
            lambda seq: (_Task(seq=seq, kind="ping", sleep=sleep), []),
            lambda slabs, token: None,
        )

    def solve_coalesced(
        self, graphs: Sequence[GraphLike], engine: str = "contracting"
    ) -> List[np.ndarray]:
        """Pool counterpart of :func:`repro.serve.workers.solve_coalesced`:
        one sparse solve over the members' disjoint union, edge arrays
        and labels in shared slabs."""
        lists = [as_edge_list(g) for g in graphs]
        counts = np.asarray([e.n for e in lists], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        total = int(offsets[-1])
        if total == 0:
            return [np.empty(0, dtype=np.int64) for _ in lists]
        edge_total = int(sum(e.src.size for e in lists))

        def build(seq: int):
            src, dst, out = self._acquire_slabs(
                [((edge_total,), np.int64), ((edge_total,), np.int64),
                 ((total,), np.int64)]
            )
            union_edges(lists, offsets, src_out=src.array, dst_out=dst.array)
            task = _Task(
                seq=seq, kind="sparse", out=out.ref, src=src.ref,
                dst=dst.ref, n=total, engine=engine,
            )
            return task, [src, dst, out]

        def collect(slabs: List[Slab], token) -> List[np.ndarray]:
            return split_union_labels(slabs[2].array, offsets, copy=True)

        return self._run(build, collect)

    def solve_solo(self, graph: GraphLike, engine: str) -> np.ndarray:
        """One large request on one worker (shared-memory handoff)."""
        return self.solve_coalesced([graph], engine)[0]

    def solve_shard(
        self, n: int, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One out-of-core shard solve on a pool worker.

        The shard's endpoint arrays are written straight into recycled
        shared slabs (zero pickling -- only the :class:`_Task`
        descriptor crosses the pipe); the worker compacts the shard,
        contracts it, and writes the frontier star pairs
        ``(vertex, representative)`` into the shared output slab.  The
        returned arrays are parent-owned copies, so the slabs recycle
        immediately.  Thread-safe: the sharded engine drives this from
        a bounded window of submitter threads.
        """
        m = int(u.size)
        if m == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        cap = int(min(2 * m, n))

        def build(seq: int):
            src, dst, out = self._acquire_slabs(
                [((m,), np.int64), ((m,), np.int64), ((2, cap), np.int64)]
            )
            src.array[...] = u
            dst.array[...] = v
            task = _Task(
                seq=seq, kind="shard", out=out.ref, src=src.ref,
                dst=dst.ref, n=n,
            )
            return task, [src, dst, out]

        def collect(slabs: List[Slab], token) -> Tuple[np.ndarray, np.ndarray]:
            count = int(token)
            out = slabs[2].array
            return out[0, :count].copy(), out[1, :count].copy()

        return self._run(build, collect)

    def detach(self, names: Sequence[str]) -> None:
        """Make every worker unmap the named segments, then return.

        Workers keep their segment mappings across tasks.  A caller
        that shares segments with many tasks (the parallel engine's
        edge, label and partial slabs) calls this before unlinking them,
        so no worker keeps a finished solve's pages resident.  A worker
        that died took its mappings with it, and its replacement never
        made them, so deaths need no retry.
        """
        names = tuple(names)
        with self._lock:
            if not names or self._state != "running":
                return
            handles = [h for h in self._handles if h is not None]

        def build(seq: int) -> Tuple[_Task, List[Slab]]:
            return _Task(seq=seq, kind="detach", drop=names), []

        pendings: List[_Pending] = []
        try:
            for handle in handles:
                pendings.append(self._submit(build, target=handle)[0])
        except WorkerDied:
            pass  # shut down meanwhile: the workers are gone
        for pending in pendings:
            self._finish(pending)

    # -- chunk-parallel label rounds (repro.hirschberg.parallel) ---------
    def run_chunk_tasks(self, builds: Sequence) -> List[int]:
        """Barrier-run one task per chunk over caller-owned segments.

        Unlike :meth:`_run`, the shared arrays are owned by the *caller*
        for its whole solve (the parallel engine creates its label and
        partial slabs once and reuses them every round), so nothing is
        acquired, released or discarded here, and the in-flight
        semaphore is not taken: the chunk count is bounded by the
        partition width (~ worker count) and a label round must never
        deadlock behind the server's own batch traffic holding permits.

        A task whose worker dies is resubmitted once on a fresh worker --
        safe because the label kernels are idempotent per chunk (hook
        reinitialises its private slab from the sentinel, jump rewrites
        exactly its slice from the untouched front labels).  **All**
        tasks are awaited before any failure is raised, so when the
        caller reacts no live worker still holds a chunk of the round.

        Returns the per-chunk result tokens, in ``builds`` order.
        """
        pendings = [self._submit(build)[0] for build in builds]
        tokens: List[int] = [0] * len(builds)
        errors: List[str] = []
        deaths: List[str] = []
        for i, pending in enumerate(pendings):
            kind, payload = self._finish(pending)
            if kind == "died":
                retry, _ = self._submit(builds[i])
                kind, payload = self._finish(retry)
                if kind == "died":
                    deaths.append(f"chunk {i}: {payload}")
                    continue
            if kind == "error":
                errors.append(f"chunk {i}: {payload}")
            else:
                tokens[i] = int(payload)
        if errors:
            raise RuntimeError(f"pool worker error: {'; '.join(errors)}")
        if deaths:
            raise WorkerDied(
                "pool worker died twice running a label round: "
                + "; ".join(deaths)
            )
        return tokens

    def label_hook_round(
        self,
        labels: SharedArrayRef,
        src: SharedArrayRef,
        dst: SharedArrayRef,
        partials: Sequence[SharedArrayRef],
        bounds: Sequence[int],
        variant: str = "fastsv",
        seed: int = -1,
    ) -> List[int]:
        """One chunk-parallel hook phase: chunk ``i`` scatter-MINs the
        edge range ``bounds[i]:bounds[i+1]``'s label proposals into its
        private slab ``partials[i]`` (``seed=-1`` = deterministic).
        Returns the per-chunk proposal counts."""

        def make(i: int):
            lo, hi = int(bounds[i]), int(bounds[i + 1])

            def build(seq: int) -> Tuple[_Task, List[Slab]]:
                task = _Task(
                    seq=seq, kind="lt_hook", out=partials[i], labels=labels,
                    src=src, dst=dst, lo=lo, hi=hi, engine=variant, seed=seed,
                )
                return task, []

            return build

        return self.run_chunk_tasks([make(i) for i in range(len(partials))])

    def label_jump_round(
        self,
        front: SharedArrayRef,
        back: SharedArrayRef,
        bounds: Sequence[int],
    ) -> List[int]:
        """One chunk-parallel pointer-jump phase: chunk ``i`` writes
        exactly ``back[bounds[i]:bounds[i+1]]`` from the shared ``front``
        labels.  Returns the per-chunk changed counts (all zero at the
        fixpoint)."""

        def make(i: int):
            lo, hi = int(bounds[i]), int(bounds[i + 1])

            def build(seq: int) -> Tuple[_Task, List[Slab]]:
                task = _Task(
                    seq=seq, kind="lt_jump", out=back, labels=front,
                    lo=lo, hi=hi,
                )
                return task, []

            return build

        return self.run_chunk_tasks(
            [make(i) for i in range(len(bounds) - 1)]
        )

    # -- parent-side service threads ------------------------------------
    def _collector_loop(self) -> None:
        """Drain worker messages; resolve pendings, count readiness."""
        while True:
            with self._lock:
                if self._state == "stopped":
                    return
                conns = [
                    h.result_r for h in self._handles if h is not None
                ]
            try:
                ready = mp_connection.wait(conns, timeout=0.1)
            except OSError:
                continue  # a conn was closed mid-wait (worker replaced)
            for conn in ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    continue  # dead worker's pipe; the monitor handles it
                tag = msg[0]
                if tag == "ready":
                    with self._lock:
                        self._ready_count += 1
                    continue
                _, seq, pid, token, error = msg
                with self._lock:
                    pending = self._pending.get(seq)
                if pending is None:  # failed-over task; stale done
                    continue
                if error is None:
                    pending.resolve("ok", token)
                else:
                    pending.resolve("error", error)

    def _monitor_loop(self) -> None:
        """Watch worker liveness; replace the dead, fail over their work.

        Because every task is dispatched down a specific worker's pipe,
        a death has an exact blast radius: the pendings assigned to that
        pid.  Each resolves ``"died"`` (the submit path retries once on
        a fresh worker); anything the ghost still writes lands in
        discarded slabs and its late ``"done"`` messages die with its
        pipe.
        """
        while True:
            time.sleep(HEARTBEAT_INTERVAL)
            with self._lock:
                if self._state != "running":
                    return
                handles = list(enumerate(self._handles))
            for worker_id, handle in handles:
                if handle is None or handle.proc.is_alive():
                    continue
                # Fork the replacement *outside* the lock: a fork plus
                # two pipe creations can take tens of milliseconds, and
                # holding the lock that long stalls every submit and
                # collector pass.  The dead handle stays in its slot
                # meanwhile, so _submit's least-loaded pick always sees
                # a full pool (a send to it fails over immediately).
                replacement = self._spawn(worker_id)
                dead_pid = handle.proc.pid
                lost: List[_Pending] = []
                with self._lock:
                    stale = (
                        self._state != "running"
                        or self._handles[worker_id] is not handle
                    )
                    if not stale:
                        self.restarts += 1
                        self._handles[worker_id] = replacement
                        lost = [
                            p for p in self._pending.values()
                            if p.outcome is None
                            and p.assigned_pid == dead_pid
                        ]
                if stale:
                    # raced with shutdown or another pass: retire the
                    # spare worker we optimistically forked
                    try:
                        replacement.task_w.send(None)
                    except (OSError, ValueError):
                        pass
                    replacement.proc.join(timeout=1.0)
                    if replacement.proc.is_alive():
                        replacement.proc.terminate()
                    replacement.close()
                    continue
                for pending in lost:
                    pending.resolve(
                        "died", f"worker {dead_pid} died mid-batch"
                    )
                handle.close()
