"""Request/response value types of the serving layer.

A :class:`CCRequest` is one independent connected-components job: a graph
plus the caller's latency budget (``deadline``, seconds from submission)
and a ``priority`` tie-breaker.  Submitting one to a
:class:`~repro.serve.server.Server` returns a :class:`ResultHandle` --
a small thread-safe future the caller blocks on (or polls, or cancels)
-- which eventually resolves to a :class:`CCResponse` carrying the label
vector, the terminal :class:`RequestStatus` and the per-request timing
breakdown the metrics layer aggregates.

Statuses are terminal and exclusive:

``OK``
    Labels computed (possibly after its deadline -- see
    ``CCResponse.deadline_missed``; late results are still returned, the
    miss is recorded).
``SHED``
    Rejected at admission because the queue was full and the server runs
    the ``"shed"`` backpressure policy.  Never entered the queue.
``TIMEOUT``
    The deadline expired before a worker produced labels; the request
    was dropped from the queue or abandoned pre-execution.
``CANCELLED``
    :meth:`ResultHandle.cancel` won the race with execution, or the
    server was stopped without draining.
``ERROR``
    The engine raised; ``CCResponse.error`` holds the message (after
    exhausting its retry).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Union

import numpy as np

from repro.graphs.adjacency import AdjacencyMatrix
from repro.hirschberg.edgelist import EdgeListGraph

GraphLike = Union[AdjacencyMatrix, np.ndarray, EdgeListGraph]

_request_counter = itertools.count()


class RequestStatus(Enum):
    """Terminal state of a served request (see module docstring)."""

    OK = "ok"
    SHED = "shed"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"
    ERROR = "error"


class ServeError(RuntimeError):
    """A blocking wait ended without labels (timeout/shed/cancel/error)."""


class QueueFull(ServeError):
    """Admission rejected the request (``admission="fail"`` policy)."""


class ServerClosed(ServeError):
    """The server no longer accepts requests (stopping or stopped)."""


@dataclass(slots=True)
class CCRequest:
    """One connected-components job.

    Parameters
    ----------
    graph:
        An :class:`~repro.graphs.adjacency.AdjacencyMatrix`, a square
        symmetric 0/1 array (dense inputs; batched together), or an
        :class:`~repro.hirschberg.edgelist.EdgeListGraph` (sparse
        inputs; solved solo on a sparse engine).
    deadline:
        Latency budget in seconds from submission, or ``None`` for the
        server's default (possibly unbounded).  The scheduler never
        holds a request with a deadline for an opt-in ``max_wait``, and
        drops requests whose budget expires while queued.
    priority:
        Tie-breaker when a bucket overflows its batch: lower values are
        packed first (after deadline urgency).  Default 0.
    request_id:
        Caller-supplied correlation id; auto-assigned when ``None``.
    """

    graph: GraphLike
    deadline: Optional[float] = None
    priority: int = 0
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.request_id is None:
            self.request_id = f"req-{next(_request_counter)}"
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be positive seconds, got {self.deadline}"
            )


@dataclass(slots=True)
class CCResponse:
    """Terminal outcome of one request.

    Attributes
    ----------
    request_id:
        Mirrors the request.
    status:
        Terminal :class:`RequestStatus`.
    labels:
        Canonical label vector (``status == OK`` only, else ``None``).
    engine:
        Engine that produced the labels (``"contracting"``,
        ``"sharded"``, ...; ``"cache"`` for a content-addressed cache
        hit); ``None`` when no engine ran.
    batch_size:
        Occupancy of the batch this request rode in (1 for solo runs).
    queued_seconds / service_seconds / latency_seconds:
        Time spent waiting in the queue, executing, and end-to-end from
        submission to resolution.
    deadline_missed:
        The request had a deadline and resolved after it (counted in the
        metrics whether or not labels were still produced).
    attempts:
        Execution attempts (> 1 after a retry on engine/worker failure).
    error:
        Failure message when ``status == ERROR``.
    """

    request_id: str
    status: RequestStatus
    labels: Optional[np.ndarray] = None
    engine: Optional[str] = None
    batch_size: int = 0
    queued_seconds: float = 0.0
    service_seconds: float = 0.0
    latency_seconds: float = 0.0
    deadline_missed: bool = False
    attempts: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.OK

    @property
    def cache_hit(self) -> bool:
        """Resolved from the content-addressed result cache (no engine
        ran; ``labels`` are the cached read-only vector)."""
        return self.engine == "cache"


#: Module-wide guard for handle state transitions.  Handles carry no
#: per-instance lock, so creating one allocates nothing synchronisation-
#: related on the submit hot path; the blocking condition is built
#: lazily by the first caller that actually waits.
_handle_lock = threading.Lock()


class ResultHandle:
    """Thread-safe future for one submitted request.

    The server resolves it exactly once; callers block on
    :meth:`response` / :meth:`result`, poll :meth:`done`, cancel, or
    register an :meth:`add_done_callback` -- the non-blocking completion
    path the asyncio gateway bridges back into its event loop (via
    ``loop.call_soon_threadsafe``) without parking a thread per request.
    """

    __slots__ = ("request", "_cond", "_response", "_cancel_requested",
                 "_callbacks")

    def __init__(self, request: CCRequest):
        self.request = request
        self._cond: Optional[threading.Condition] = None
        self._response: Optional[CCResponse] = None
        self._cancel_requested = False
        self._callbacks: Optional[List[Callable[[CCResponse], None]]] = None

    # -- caller side ---------------------------------------------------
    def done(self) -> bool:
        """Whether a terminal response is available."""
        return self._response is not None

    def cancel(self) -> bool:
        """Request cancellation.

        Returns ``True`` when the request was still pending -- it will
        resolve as ``CANCELLED`` before any engine runs on it.  Returns
        ``False`` when it already resolved (the response stands).
        """
        with _handle_lock:
            if self._response is not None:
                return False
            self._cancel_requested = True
            return True

    def add_done_callback(self, fn: Callable[[CCResponse], None]) -> None:
        """Call ``fn(response)`` once the handle resolves.

        Registered before resolution, ``fn`` runs on the resolving
        thread (a server worker); registered after, it runs immediately
        on the caller's thread.  Callbacks must be cheap and must not
        raise -- exceptions are swallowed so a misbehaving observer
        cannot take down the resolver (hand heavy work off, e.g. with
        ``loop.call_soon_threadsafe``).
        """
        with _handle_lock:
            if self._response is None:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(fn)
                return
            response = self._response
        try:
            fn(response)
        except Exception:  # noqa: BLE001 -- observer errors never propagate
            pass

    def response(self, timeout: Optional[float] = None) -> CCResponse:
        """Block until resolved and return the full :class:`CCResponse`.

        Raises :class:`ServeError` if ``timeout`` elapses first (the
        request itself stays in flight).
        """
        if self._response is not None:  # lock-free fast path
            return self._response
        with _handle_lock:
            if self._response is not None:
                return self._response
            if self._cond is None:
                self._cond = threading.Condition()
            cond = self._cond
        # A resolution between releasing _handle_lock and entering the
        # wait is caught by wait_for's predicate-first check.
        with cond:
            if not cond.wait_for(
                lambda: self._response is not None, timeout
            ):
                raise ServeError(
                    f"no response for {self.request.request_id} "
                    f"within {timeout} s (request still in flight)"
                )
        assert self._response is not None
        return self._response

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until resolved and return the labels.

        Raises :class:`ServeError` for any non-``OK`` terminal status.
        """
        resp = self.response(timeout)
        if resp.status is not RequestStatus.OK:
            raise ServeError(
                f"request {self.request.request_id} ended "
                f"{resp.status.value}: {resp.error or 'no labels'}"
            )
        assert resp.labels is not None
        return resp.labels

    # -- server side ---------------------------------------------------
    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    def _resolve(self, response: CCResponse) -> bool:
        """Install the terminal response (first writer wins)."""
        with _handle_lock:
            if self._response is not None:
                return False
            self._response = response
            cond = self._cond
            callbacks, self._callbacks = self._callbacks, None
        if cond is not None:  # someone is (or was) blocking -- wake them
            with cond:
                cond.notify_all()
        if callbacks:
            for fn in callbacks:
                try:
                    fn(response)
                except Exception:  # noqa: BLE001 -- observer errors stay local
                    pass
        return True
