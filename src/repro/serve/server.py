"""The in-process request server: admission, scheduling, execution.

:class:`Server` turns a stream of independent connected-components
requests into dynamically packed batches::

    from repro.serve import Server, ServerConfig

    with Server(ServerConfig(workers=4, max_wait=0.002)) as server:
        handles = [server.submit(g, deadline=0.2) for g in graphs]
        labels = [h.result() for h in handles]
        print(server.metrics.to_json())

Lifecycle of one request:

1. **Admission** (caller's thread).  A bounded queue applies the
   configured backpressure policy -- ``"block"`` the caller until space
   frees, ``"shed"`` (resolve immediately with status ``SHED``) or
   ``"fail"`` (raise :class:`~repro.serve.request.QueueFull`).
2. **Scheduling** (the scheduler thread).  Admitted requests are filed
   into size/kind buckets by the
   :class:`~repro.serve.scheduler.BatchPlanner`, which flushes a bucket
   when it is full, when its batching window (``max_wait``) closes, or
   under deadline pressure.
3. **Execution** (worker threads).  A flushed batch of more than one
   member runs as one coalesced contracting solve over the members'
   disjoint union; a single request runs the engine the dispatcher's
   rule table picks.  Flushes the planner expects to be long, and large
   sparse requests, can hop to the shared-memory process pool.  Expired
   and cancelled members are
   resolved without touching an engine.  Engine failures and worker
   deaths are retried (``retries``) before resolving ``ERROR``.
4. **Resolution.**  The request's
   :class:`~repro.serve.request.ResultHandle` receives its
   :class:`~repro.serve.request.CCResponse`; the metrics layer records
   queue/service/latency times, occupancy and any deadline miss.

``stop(drain=True)`` (and the context manager) refuses new work, flushes
everything queued, waits for in-flight batches, then shuts the pools
down; ``stop(drain=False)`` cancels whatever is still queued.

:func:`serve_many` is the synchronous convenience front-end: submit a
whole workload, block, get responses back in input order.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dispatch import CostModel, DEFAULT_COST_MODEL, choose_engine
from repro.graphs.adjacency import AdjacencyMatrix
from repro.hirschberg.edgelist import EdgeListGraph
from repro.serve.cache import ResultCache, graph_fingerprint
from repro.serve.executor import PoolExecutor
from repro.serve.metrics import ServeMetrics
from repro.serve.request import (
    CCRequest,
    CCResponse,
    GraphLike,
    QueueFull,
    RequestStatus,
    ResultHandle,
    ServerClosed,
)
from repro.serve.scheduler import (
    BatchPlanner,
    PendingRequest,
    sample_mean_m,
)
from repro.serve.workers import (
    SparseProcessPool,
    WorkerDied,
    solve_coalesced,
    solve_solo,
)
# Unused here; perfbench/serve_wire.py still wraps this module attribute.
from repro.serve.workers import solve_dense_stack  # noqa: F401

#: Admission (backpressure) policies.
ADMISSION_POLICIES = ("block", "shed", "fail")

#: Batch execution backends.
EXECUTORS = ("inline", "pool")


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of a :class:`Server`.

    Attributes
    ----------
    max_queue:
        Admission bound: queued-but-undispatched requests beyond this
        trigger the backpressure policy.
    admission:
        ``"block"`` (default), ``"shed"`` or ``"fail"`` -- see module
        docstring.
    max_batch:
        Hard batch-occupancy cap (``coalesce_units`` may cap lower).
    max_wait:
        Batching window in seconds an admitted request may wait for
        co-batchable traffic (default 2 ms).
    workers:
        Worker threads executing batches (the contracting kernels
        release the GIL inside NumPy).
    process_workers:
        Size of the shared-memory process pool for large sparse
        requests; 0 (default) keeps everything in-process.
    sparse_process_units:
        ``n + 2m`` threshold above which a sparse request uses the
        process pool (when one is configured).
    default_deadline:
        Deadline applied to requests submitted without one (``None`` =
        unbounded).
    deadline_margin:
        Safety margin (seconds) for the scheduler's deadline-pressure
        flush test.
    retries:
        Re-execution attempts after an engine failure or worker death.
    pad_buckets:
        Pad node counts to power-of-two buckets so near-miss sizes
        batch together.
    coalesce_units:
        Work budget (``n + 2m`` summed over members) for one coalesced
        flush; tuned to the knee past which a bigger disjoint
        union costs more per member than it amortises.
    cost_model:
        Explicit :class:`~repro.core.dispatch.CostModel` override
        (default: the shipped constants).
    executor:
        ``"inline"`` (default) runs flushed batches on the server's
        worker threads; ``"pool"`` ships them to a persistent
        shared-memory :class:`~repro.serve.executor.PoolExecutor` of
        ``process_workers`` processes (all cores when 0), falling back
        inline whenever the cost model says a flush is too small to pay
        the measured dispatch overhead.
    cache_bytes:
        Byte budget of the content-addressed
        :class:`~repro.serve.cache.ResultCache` (0 = caching off).
        Repeat graphs -- same canonical edge set, any representation --
        resolve from the cache with ``engine="cache"``.
    cache_verify:
        Verified-on-first-hit mode: the first hit on each cached entry
        still solves and compares before the entry is trusted.
    """

    max_queue: int = 1024
    admission: str = "block"
    max_batch: int = 512
    max_wait: float = 0.002
    workers: int = 2
    process_workers: int = 0
    sparse_process_units: int = 1_000_000
    default_deadline: Optional[float] = None
    deadline_margin: float = 0.005
    retries: int = 1
    pad_buckets: bool = True
    coalesce_units: int = 32_768
    cost_model: Optional[CostModel] = None
    executor: str = "inline"
    cache_bytes: int = 0
    cache_verify: bool = False

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.cache_bytes < 0:
            raise ValueError(
                f"cache_bytes must be >= 0, got {self.cache_bytes}"
            )


class Server:
    """Dynamic micro-batching server; see the module docstring.

    Construct with a :class:`ServerConfig` (or keyword overrides), use
    as a context manager or call :meth:`start` / :meth:`stop`.
    """

    def __init__(self, config: Optional[ServerConfig] = None, **overrides):
        if config is None:
            config = ServerConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config
        self.cost_model = config.cost_model or DEFAULT_COST_MODEL
        self.metrics = ServeMetrics()
        self._planner = BatchPlanner(
            max_batch=config.max_batch,
            max_wait=config.max_wait,
            deadline_margin=config.deadline_margin,
            pad_buckets=config.pad_buckets,
            coalesce_units=config.coalesce_units,
            model=self.cost_model,
        )
        self._lock = threading.Lock()
        self._work_cv = threading.Condition(self._lock)
        self._space_cv = threading.Condition(self._lock)
        self._idle_cv = threading.Condition(self._lock)
        self._in_flight = 0
        self._state = "new"
        self._executor = None
        self._sparse_pool: Optional[SparseProcessPool] = None
        self._pool: Optional[PoolExecutor] = None
        self._cache: Optional[ResultCache] = None
        if config.cache_bytes > 0:
            self._cache = ResultCache(
                config.cache_bytes, verify_first_hit=config.cache_verify
            )
        self._scheduler: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "Server":
        from concurrent.futures import ThreadPoolExecutor

        with self._lock:
            if self._state != "new":
                raise RuntimeError(f"cannot start a {self._state} server")
            self._state = "running"
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve-worker",
        )
        if self.config.executor == "pool":
            self._pool = PoolExecutor(
                self.config.process_workers or os.cpu_count() or 1
            ).start()
            # replace the shipped constant with this host's measured
            # round trip so pool_pays() prices real dispatches
            if self._pool.measured_overhead > 0:
                self.cost_model = replace(
                    self.cost_model,
                    pool_dispatch_overhead=self._pool.measured_overhead,
                )
                self._planner.model = self.cost_model
        elif self.config.process_workers > 0:
            self._sparse_pool = SparseProcessPool(self.config.process_workers)
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="repro-serve-scheduler",
            daemon=True,
        )
        self._scheduler.start()
        self._warmup()
        return self

    def _warmup(self) -> None:
        """Prime the solve paths so the first real flush does not pay
        NumPy's first-call allocation and import costs."""
        tiny = EdgeListGraph(
            n=2,
            src=np.zeros(1, dtype=np.int64),
            dst=np.ones(1, dtype=np.int64),
        )
        try:
            solve_coalesced([tiny, tiny], "contracting")
        except Exception:  # noqa: BLE001 -- warming is best-effort only
            pass

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> bool:
        """Stop the server.

        ``drain=True`` (default) refuses new submissions, serves
        everything already admitted, then shuts down; ``drain=False``
        resolves queued requests as ``CANCELLED`` (in-flight batches
        still complete).  Returns ``False`` when a drain ``timeout``
        elapsed with work still pending (shutdown proceeds regardless,
        cancelling the leftovers).
        """
        drained = True
        with self._lock:
            if self._state in ("stopped", "new"):
                self._state = "stopped"
                return True
            if drain:
                self._state = "draining"
                self._work_cv.notify_all()
                self._space_cv.notify_all()
                drained = self._idle_cv.wait_for(
                    lambda: self._queued_locked() == 0 and self._in_flight == 0,
                    timeout,
                )
            self._state = "stopped"
            self._work_cv.notify_all()
            self._space_cv.notify_all()
        if self._scheduler is not None:
            self._scheduler.join()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._sparse_pool is not None:
            self._sparse_pool.shutdown()
        if self._pool is not None:
            self._pool.shutdown()
        return drained

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(drain=True)

    # -- admission -----------------------------------------------------
    def submit(
        self,
        graph: GraphLike,
        deadline: Optional[float] = None,
        priority: int = 0,
        request_id: Optional[str] = None,
    ) -> ResultHandle:
        """Submit one graph; returns immediately with a handle."""
        return self.submit_request(CCRequest(
            graph=graph, deadline=deadline, priority=priority,
            request_id=request_id,
        ))

    def submit_request(self, request: CCRequest) -> ResultHandle:
        """Submit a prepared :class:`~repro.serve.request.CCRequest`."""
        handle = ResultHandle(request)
        graph = request.graph
        if isinstance(graph, EdgeListGraph):
            n, m, sparse = graph.n, graph.edge_count, True
        else:
            mat = (graph.matrix if isinstance(graph, AdjacencyMatrix)
                   else np.asarray(graph))
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(
                    f"adjacency must be square, got shape {mat.shape}"
                )
            # flushes are capped by n + 2m, so count the edges now: one
            # pass over the matrix, outside the lock the planner runs under
            m = (int(np.count_nonzero(mat))
                 - int(np.count_nonzero(np.diagonal(mat)))) // 2
            n, sparse = mat.shape[0], False
        now = time.monotonic()
        budget = request.deadline
        if budget is None:
            budget = self.config.default_deadline
        pending = PendingRequest(
            handle=handle,
            n=n,
            sparse=sparse,
            submitted_at=now,
            deadline_at=None if budget is None else now + budget,
            m_known=m,
        )
        if self._cache is not None:
            # probe before admission: a verified hit costs one memoised
            # fingerprint and skips the queue, the batching window and
            # the solve entirely; it also never charges queue capacity
            pending.fingerprint = graph_fingerprint(request.graph)
            hit = self._cache.get(pending.fingerprint)
            if hit is not None:
                labels, verified = hit
                if verified:
                    with self._lock:
                        if self._state != "running":
                            raise ServerClosed(
                                f"server is {self._state}; "
                                "not accepting requests"
                            )
                        self.metrics.record_submitted(admitted=True)
                    self._resolve_ok(pending, labels, "cache", 1, now)
                    return handle
                pending.cache_unverified = True
        with self._lock:
            if self._state != "running":
                raise ServerClosed(
                    f"server is {self._state}; not accepting requests"
                )
            while self._queued_locked() >= self.config.max_queue:
                if self.config.admission == "shed":
                    self.metrics.record_submitted(admitted=False)
                    self._resolve(pending, RequestStatus.SHED)
                    return handle
                if self.config.admission == "fail":
                    self.metrics.record_submitted(admitted=False)
                    raise QueueFull(
                        f"queue full ({self.config.max_queue}); "
                        f"request {request.request_id} rejected"
                    )
                self._space_cv.wait()
                if self._state != "running":
                    raise ServerClosed(
                        f"server stopped while {request.request_id} "
                        "waited for queue space"
                    )
            self.metrics.record_submitted(admitted=True)
            # Wake the scheduler only when it could not know to wake
            # itself: the queue was empty (it may be in an unbounded
            # wait), this arrival filled a bucket to its cap, or it
            # carries a deadline that may tighten the next flush time.
            # Everything else is picked up within the batching window,
            # and waking the scheduler per submission costs more than
            # serving the request.
            was_empty = self._planner.queued_count() == 0
            full = self._planner.add(pending)
            if was_empty or full or pending.deadline_at is not None:
                self._work_cv.notify()
        return handle

    # -- observability -------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queued_locked()

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def metrics_snapshot(self) -> Dict:
        """The metrics snapshot with live server gauges merged in."""
        with self._lock:
            gauges = {
                "queue_depth": self._queued_locked(),
                "in_flight": self._in_flight,
                "buckets": len(self._planner._buckets),
                "state": self._state,
            }
        if self._sparse_pool is not None:
            gauges["process_pool_restarts"] = self._sparse_pool.restarts
        if self._pool is not None:
            gauges["pool_restarts"] = self._pool.restarts
            gauges["pool_inflight"] = self._pool.inflight
            gauges["pool_dispatch_overhead_s"] = round(
                self._pool.measured_overhead, 6
            )
        snap = self.metrics.snapshot(gauges)
        if self._cache is not None:
            snap["cache"] = self._cache.stats()
        return snap

    # -- internals -----------------------------------------------------
    def _queued_locked(self) -> int:
        return self._planner.queued_count()

    def _scheduler_loop(self) -> None:
        while True:
            with self._lock:
                if self._state == "stopped":
                    for pending in self._planner.drain_all():
                        self.metrics.record_cancelled()
                        self._resolve(pending, RequestStatus.CANCELLED)
                    self._idle_cv.notify_all()
                    return
                dispatches = self._planner.take_ready(
                    force=(self._state == "draining")
                )
                if not dispatches:
                    self._work_cv.wait(self._planner.next_due())
                    continue
                self._in_flight += sum(len(b) for b in dispatches)
                self._space_cv.notify_all()
            for batch in dispatches:
                self._executor.submit(self._execute, batch)

    def _resolve(self, pending: PendingRequest, status: RequestStatus,
                 **fields) -> None:
        now = time.monotonic()
        pending.handle._resolve(CCResponse(
            request_id=pending.request.request_id,
            status=status,
            latency_seconds=now - pending.submitted_at,
            attempts=pending.attempts,
            **fields,
        ))

    def _cache_store(self, pending: PendingRequest,
                     labels: np.ndarray, engine: str) -> None:
        """File a freshly solved result with the cache: a plain insert
        on a miss, a :meth:`~repro.serve.cache.ResultCache.confirm` when
        this solve doubled as the verification of an unverified hit."""
        if (self._cache is None or engine == "cache"
                or pending.fingerprint is None):
            return
        if pending.cache_unverified:
            self._cache.confirm(pending.fingerprint, labels)
        else:
            self._cache.put(pending.fingerprint, labels)

    def _resolve_ok(self, pending: PendingRequest, labels: np.ndarray,
                    engine: str, occupancy: int, started: float) -> None:
        self._cache_store(pending, labels, engine)
        finished = time.monotonic()
        missed = (pending.deadline_at is not None
                  and finished > pending.deadline_at)
        queued = started - pending.submitted_at
        service = finished - started
        self.metrics.record_completion(
            queued_seconds=queued,
            service_seconds=service,
            latency_seconds=finished - pending.submitted_at,
            deadline_missed=missed,
        )
        pending.handle._resolve(CCResponse(
            request_id=pending.request.request_id,
            status=RequestStatus.OK,
            labels=labels,
            engine=engine,
            batch_size=occupancy,
            queued_seconds=queued,
            service_seconds=service,
            latency_seconds=finished - pending.submitted_at,
            deadline_missed=missed,
            attempts=pending.attempts,
        ))

    def _resolve_ok_batch(self, members: List[PendingRequest],
                          labels: List[np.ndarray], engine: str,
                          started: float) -> None:
        """Resolve a whole flush: one clock read and one metrics lock
        acquisition for the batch instead of one per member."""
        for pending, vec in zip(members, labels):
            self._cache_store(pending, vec, engine)
        finished = time.monotonic()
        occupancy = len(members)
        service = finished - started
        samples = []
        for pending, vec in zip(members, labels):
            missed = (pending.deadline_at is not None
                      and finished > pending.deadline_at)
            queued = started - pending.submitted_at
            latency = finished - pending.submitted_at
            samples.append((queued, service, latency, missed))
            pending.handle._resolve(CCResponse(
                request_id=pending.request.request_id,
                status=RequestStatus.OK,
                labels=vec,
                engine=engine,
                batch_size=occupancy,
                queued_seconds=queued,
                service_seconds=service,
                latency_seconds=latency,
                deadline_missed=missed,
                attempts=pending.attempts,
            ))
        self.metrics.record_completions(samples)

    def _execute(self, batch: List[PendingRequest]) -> None:
        started = time.monotonic()
        try:
            runnable: List[PendingRequest] = []
            for pending in batch:
                if pending.handle.cancel_requested:
                    self.metrics.record_cancelled()
                    self._resolve(pending, RequestStatus.CANCELLED)
                elif pending.slack(started) <= 0:
                    self.metrics.record_timeout()
                    self._resolve(pending, RequestStatus.TIMEOUT)
                else:
                    runnable.append(pending)
            if runnable and self._cache is not None:
                runnable = self._check_cache(runnable, started)
            if runnable:
                self._run_batch(runnable, started)
        finally:
            with self._lock:
                self._in_flight -= len(batch)
                if self._in_flight == 0 and self._queued_locked() == 0:
                    self._idle_cv.notify_all()

    def _check_cache(self, runnable: List[PendingRequest],
                     started: float) -> List[PendingRequest]:
        """Resolve verified cache hits; return the members still to run.

        Requests probed at submission (``fingerprint`` already set) pass
        straight through -- their hit/miss outcome stands, and probing
        again would double-count the cache counters.  An *unverified*
        hit (verify-on-first-hit mode) is not resolved here: the member
        solves normally and :meth:`_cache_store` turns that solve into
        the entry's verification.
        """
        misses: List[PendingRequest] = []
        for pending in runnable:
            if pending.fingerprint is not None:
                misses.append(pending)
                continue
            pending.fingerprint = graph_fingerprint(pending.request.graph)
            hit = self._cache.get(pending.fingerprint)
            if hit is not None:
                labels, verified = hit
                if verified:
                    self._resolve_ok(pending, labels, "cache", 1, started)
                    continue
                pending.cache_unverified = True
            misses.append(pending)
        return misses

    def _run_batch(self, runnable: List[PendingRequest],
                   started: float) -> None:
        for pending in runnable:
            pending.attempts += 1
        occupancy = len(runnable)
        self.metrics.record_batch(occupancy)
        key = self._planner.key_for(runnable[0])
        mean_m = sample_mean_m(runnable)
        engine = self._planner.choose_batch_engine(key, occupancy, mean_m)
        if occupancy > 1 and engine == "contracting":
            pooled = (self._pool is not None
                      and self._planner.pool_pays(key, occupancy, mean_m))
            graphs = [p.request.graph for p in runnable]
            try:
                labels = (self._pool.solve_coalesced(graphs, engine)
                          if pooled else solve_coalesced(graphs, engine))
            except Exception as exc:  # noqa: BLE001 -- batch-level fallback
                if isinstance(exc, WorkerDied):
                    self.metrics.record_worker_restart()
                self.metrics.record_error()
                for pending in runnable:
                    self._run_solo(pending, started, batch_error=exc)
                return
            if pooled:
                engine = f"pool:{engine}"
            self._resolve_ok_batch(runnable, labels, engine, started)
            return
        for pending in runnable:
            self._run_solo(pending, started, engine=engine)

    def _solo_engine(self, pending: PendingRequest) -> str:
        return choose_engine(pending.n, pending.m, model=self.cost_model)

    def _run_solo(
        self,
        pending: PendingRequest,
        started: float,
        engine: Optional[str] = None,
        batch_error: Optional[Exception] = None,
    ) -> None:
        """Execute one request solo, retrying per the configuration.

        ``batch_error`` marks a member that already failed once inside a
        stacked batch: the solo run *is* its retry, so a request only
        gets here with budget left (or resolves ``ERROR`` right away).
        """
        attempts_left = self.config.retries + 1 - (1 if batch_error else 0)
        if batch_error is not None:
            if attempts_left <= 0:
                self._resolve(
                    pending, RequestStatus.ERROR,
                    error=f"batched execution failed: {batch_error}",
                )
                return
            self.metrics.record_retry()
        engine = engine or self._solo_engine(pending)
        use_pool = (
            pending.sparse
            and (self._sparse_pool is not None or self._pool is not None)
            and pending.n + 2 * pending.m >= self.config.sparse_process_units
        )
        last_error: Optional[Exception] = batch_error
        for attempt in range(max(attempts_left, 1)):
            if attempt > 0:
                self.metrics.record_retry()
                pending.attempts += 1
            try:
                if use_pool:
                    try:
                        if self._pool is not None:
                            labels = self._pool.solve_solo(
                                pending.request.graph, engine
                            )
                        else:
                            labels = self._sparse_pool.solve(
                                pending.request.graph, engine
                            )
                    except WorkerDied:
                        self.metrics.record_worker_restart()
                        # the pool already retried on a fresh worker
                        # once; any further attempt runs inline
                        use_pool = False
                        raise
                else:
                    labels = solve_solo(pending.request.graph, engine)
            except Exception as exc:  # noqa: BLE001 -- retried, then ERROR
                last_error = exc
                self.metrics.record_error()
                continue
            self._resolve_ok(pending, labels, engine, 1, started)
            return
        self._resolve(
            pending, RequestStatus.ERROR,
            error=str(last_error) if last_error else "execution failed",
        )


def serve_many(
    graphs: Sequence[GraphLike],
    deadline: Optional[float] = None,
    config: Optional[ServerConfig] = None,
    **overrides,
) -> List[CCResponse]:
    """Serve a whole workload synchronously; responses in input order.

    The convenience front-end for sweeps and the CLI: spins up a
    :class:`Server` (``config`` plus keyword ``overrides``), submits
    every graph, blocks until all resolve, drains and returns the
    :class:`~repro.serve.request.CCResponse` list.

    >>> from repro.graphs.generators import random_graph
    >>> responses = serve_many([random_graph(8, 0.3, seed=s) for s in range(4)])
    >>> [r.status.value for r in responses]
    ['ok', 'ok', 'ok', 'ok']
    """
    with Server(config, **overrides) as server:
        handles = [server.submit(g, deadline=deadline) for g in graphs]
        return [h.response() for h in handles]
