"""The in-process request server: admission, scheduling, execution.

:class:`Server` turns a stream of independent connected-components
requests into dynamically packed batches::

    from repro.serve import Server, ServerConfig

    with Server(ServerConfig(workers=4)) as server:
        handles = [server.submit(g, deadline=0.2) for g in graphs]
        labels = [h.result() for h in handles]
        print(server.metrics.to_json())

Lifecycle of one request:

1. **Admission** (caller's thread).  A bounded queue applies the
   configured backpressure policy -- ``"block"`` the caller until space
   frees, ``"shed"`` (resolve immediately with status ``SHED``) or
   ``"fail"`` (raise :class:`~repro.serve.request.QueueFull`).  A full
   queue first gives up the held requests whose deadline has passed
   (resolved ``TIMEOUT``), so dead requests never shed live ones.
2. **Scheduling** (no thread of its own).  Admitted requests are filed
   into size/kind buckets by the
   :class:`~repro.serve.scheduler.BatchPlanner`.  Each idle worker
   thread takes the most urgent ready flush from the planner itself --
   at once by default, or when a bucket fills, holds a request with a
   deadline or has been held an opt-in ``max_wait``; until then it
   waits for an arrival or the planner's next due time.  While every
   worker is busy, requests stay in the planner and keep coalescing, so
   a batch forms from whatever arrived during the previous one.
3. **Execution** (the same worker thread).  A flushed batch of more than one
   member runs as one coalesced contracting solve over the members'
   disjoint union; a single request runs the engine the dispatcher's
   rule table picks for it, as ``engine="auto"`` would.  The engines
   release the GIL inside NumPy, so the worker threads share one
   address space and copy nothing.  Expired and cancelled members are
   resolved without touching an engine.  An engine failure is retried
   once (:data:`RETRIES`) before resolving ``ERROR``; any other fault
   in a batch resolves its unresolved members ``ERROR`` and the worker
   goes on serving.
4. **Resolution.**  The request's
   :class:`~repro.serve.request.ResultHandle` receives its
   :class:`~repro.serve.request.CCResponse`; the metrics layer records
   queue/service/latency times, occupancy and any deadline miss.

``stop(drain=True)`` (and the context manager) refuses new work, flushes
everything queued, waits for in-flight batches, then shuts the worker
threads down; ``stop(drain=False)`` cancels whatever is still queued.

:func:`serve_many` is the synchronous convenience front-end: submit a
whole workload, block, get responses back in input order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graphs.adjacency import AdjacencyMatrix
from repro.hirschberg.edgelist import EdgeListGraph
from repro.serve.cache import ResultCache, graph_fingerprint
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
from repro.serve.scheduler import BatchPlanner, PendingRequest, flush_engine
from repro.serve.workers import solve_coalesced, solve_solo
# Unused here; perfbench/serve_wire.py still wraps this module attribute.
from repro.serve.workers import solve_dense_stack  # noqa: F401

#: Admission (backpressure) policies.
ADMISSION_POLICIES = ("block", "shed", "fail")

#: Re-execution attempts after an engine failure.
RETRIES = 1


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of a :class:`Server`.

    Attributes
    ----------
    max_queue:
        Admission bound: requests held by the planner (admitted, not
        yet on a worker) beyond this trigger the backpressure policy.
        Every admitted request that is not running counts, except that
        a full queue first resolves held requests past their deadline
        as ``TIMEOUT`` to free their slots.
    admission:
        ``"block"`` (default), ``"shed"`` or ``"fail"`` -- see module
        docstring.
    max_wait:
        Opt-in minimum hold in seconds before a bucket that is neither
        full nor holding a request with a deadline flushes.  The
        default 0 dispatches as soon as a worker is free.
    workers:
        Worker threads executing batches (the contracting kernels
        release the GIL inside NumPy).  Each runs one batch at a time,
        so at most this many run at once and the planner holds the
        rest.
    default_deadline:
        Deadline applied to requests submitted without one (``None`` =
        unbounded).
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
    max_wait: float = 0.0
    workers: int = 2
    default_deadline: Optional[float] = None
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
        self.metrics = ServeMetrics()
        self._planner = BatchPlanner(max_wait=config.max_wait)
        self._lock = threading.Lock()
        self._work_cv = threading.Condition(self._lock)
        self._space_cv = threading.Condition(self._lock)
        self._idle_cv = threading.Condition(self._lock)
        self._in_flight = 0  # requests taken by workers, not yet resolved
        self._state = "new"
        self._cache: Optional[ResultCache] = None
        if config.cache_bytes > 0:
            self._cache = ResultCache(
                config.cache_bytes, verify_first_hit=config.cache_verify
            )
        self._workers: List[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "Server":
        with self._lock:
            if self._state != "new":
                raise RuntimeError(f"cannot start a {self._state} server")
            self._state = "running"
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-serve-worker-{k}", daemon=True)
            for k in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()
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
            for pending in self._planner.drain_all():
                self.metrics.record_cancelled()
                self._resolve(pending, RequestStatus.CANCELLED)
            self._work_cv.notify_all()
            self._space_cv.notify_all()
        for worker in self._workers:
            worker.join()
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
            # fingerprint and skips the queue and the solve entirely; it
            # also never charges queue capacity
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
                if self._expire_held_locked():
                    continue  # expired members freed slots: re-check
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
            # Wake an idle worker only when none would otherwise come:
            # the queue was empty (idle workers may be in an unbounded
            # wait), this arrival filled a bucket to its cap, or it
            # carries a deadline, which makes its bucket ready at once.
            # Anything else joins a queue some worker will take from
            # anyway -- one already woken for it, one whose hold times
            # out, or a busy one when its batch finishes -- and a
            # wake-up per submission costs more than serving the
            # request.
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
        snap = self.metrics.snapshot(gauges)
        if self._cache is not None:
            snap["cache"] = self._cache.stats()
        return snap

    # -- internals -----------------------------------------------------
    def _queued_locked(self) -> int:
        return self._planner.queued_count()

    def _expire_held_locked(self) -> bool:
        """Resolve held requests whose deadline has passed as
        ``TIMEOUT``, freeing their queue slots; ``True`` if any were."""
        expired = self._planner.take_expired(time.monotonic())
        for pending in expired:
            self.metrics.record_timeout()
            self._resolve(pending, RequestStatus.TIMEOUT)
        if expired:
            self._space_cv.notify_all()
        return bool(expired)

    def _worker_loop(self) -> None:
        """One worker: take the most urgent ready flush, run it, repeat;
        with nothing ready, wait for an arrival or the next due time."""
        while True:
            with self._lock:
                while True:
                    if self._state == "stopped":
                        return
                    taken = self._planner.take_ready(
                        force=(self._state == "draining"), free=1
                    )
                    if taken:
                        break
                    self._work_cv.wait(self._planner.next_due())
                batch = taken[0]
                self._in_flight += len(batch)
                self._space_cv.notify_all()
                if self._planner.queued_count():
                    self._work_cv.notify()  # more work: pass it on
            self._execute(batch)

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
        except Exception as exc:  # noqa: BLE001 -- keep the worker alive
            # a fault outside the engines' own retry path: resolve what
            # is still pending (first writer wins) instead of stranding it
            self.metrics.record_error()
            for pending in batch:
                self._resolve(pending, RequestStatus.ERROR,
                              error=f"execution failed: {exc!r}")
        finally:
            with self._lock:
                self._in_flight -= len(batch)
                if self._in_flight == 0:
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
        self.metrics.record_batch(len(runnable))
        engine = flush_engine(runnable)
        if len(runnable) > 1 and engine == "contracting":
            graphs = [p.request.graph for p in runnable]
            try:
                labels = solve_coalesced(graphs, engine)
            except Exception as exc:  # noqa: BLE001 -- batch-level fallback
                self.metrics.record_error()
                for pending in runnable:
                    self._run_solo(pending, started, batch_error=exc)
                return
            self._resolve_ok_batch(runnable, labels, engine, started)
            return
        for pending in runnable:
            self._run_solo(pending, started, engine=engine)

    def _run_solo(
        self,
        pending: PendingRequest,
        started: float,
        engine: Optional[str] = None,
        batch_error: Optional[Exception] = None,
    ) -> None:
        """Execute one request solo, with up to :data:`RETRIES`
        re-executions after an engine failure.

        ``batch_error`` marks a member that already failed once inside a
        coalesced batch: the solo run *is* its retry.
        """
        if batch_error is not None:
            self.metrics.record_retry()
        engine = engine or flush_engine([pending])
        last_error: Optional[Exception] = batch_error
        for attempt in range(RETRIES + 1 - (1 if batch_error else 0)):
            if attempt > 0:
                self.metrics.record_retry()
                pending.attempts += 1
            try:
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
