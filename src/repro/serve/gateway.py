"""The asyncio socket front door of the serving pipeline.

:class:`Gateway` listens on one TCP port and speaks three dialects,
sniffed from the first byte of each connection:

* **binary** (first byte ``R``, the frame magic) -- the zero-copy
  length-prefixed framing of :mod:`repro.serve.protocol`.  Requests may
  be pipelined; responses carry the request id and may interleave.
  Large label vectors stream back in bounded chunks with backpressure
  (``await drain()`` between chunks).  A client that half-closes
  (``shutdown(SHUT_WR)``) after its last frame still gets every answer:
  at EOF the connection waits for its own solves before it closes.
* **JSON lines** (first byte ``{`` or ``[``) -- one request object per
  line, one response object per line, processed sequentially.
* **HTTP** (a method's first byte) -- ``POST /solve`` with the JSON
  request as body, ``GET /metrics`` for the server snapshot,
  ``GET /healthz``; one request per connection.

All three share one solve path, :meth:`Gateway._solve`, and answer its
outcome alike: a binary error frame, a JSON ``status`` (every JSON and
HTTP body carries ``id``, ``null`` when undecodable) and, over HTTP,

==========================================  ====
outcome                                     HTTP
==========================================  ====
``ok``                                      200
``bad_frame`` (malformed, out of range)     400
``error`` (exception, engine failure)       500
``shed`` / ``cancelled``                    503
``timeout``                                 504
==========================================  ====

Torn binary frames, short HTTP bodies and bad input add to ``protocol_errors``.

Everything behind the socket is the existing in-process pipeline: the
gateway builds an :class:`~repro.hirschberg.edgelist.EdgeListGraph`
straight from the request's endpoint arrays and calls
``Server.submit_request`` -- which probes the content-addressed
:class:`~repro.serve.cache.ResultCache` *before* admission, so a
duplicate graph arriving over the socket resolves without touching the
planner or a worker thread.

The event loop never blocks:

* **Admission** maps onto the server's configured backpressure policy.
  Under ``"shed"`` / ``"fail"`` a full queue resolves or raises
  immediately, and the client gets a typed shed answer.  Under
  ``"block"`` the (blocking) submit runs on the gateway's small thread
  pool, so waiting for queue space parks a pool thread -- never the
  loop -- and requests keep being read from other connections.
  Requests of at most :data:`_INLINE_PAIRS` pairs on a non-blocking
  policy submit inline, whatever their dialect (the pool hop costs more
  than the submit).
* **Completion** rides :meth:`ResultHandle.add_done_callback`: the
  resolving server thread hands the response back to the loop via
  ``call_soon_threadsafe``, so no thread ever parks in
  ``handle.response()``.
* **Deadlines** in the request (or the gateway default) propagate
  into :class:`~repro.serve.request.CCRequest`, so the scheduler's
  deadline-pressure flushes and timeout drops apply to wire traffic
  exactly as to in-process traffic.

Shutdown is drain-first: :meth:`Gateway.aclose` stops accepting, sheds
requests that arrive after the drain began, waits (bounded) for in-flight
wire requests to resolve and be answered, then closes connections.  The
process-level wrapper :func:`run_gateway` additionally wires
SIGTERM/SIGINT to that drain followed by ``Server.stop(drain=True,
timeout=...)`` -- a signal never drops an admitted request.
:func:`start_gateway` runs the same gateway on a background thread for
tests, benchmarks and embedding.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from http import HTTPStatus
from typing import Any, Callable, Dict, Optional, Set, Tuple, Union

import numpy as np

from repro.hirschberg.edgelist import EdgeListGraph
from repro.serve import protocol
from repro.serve.protocol import (
    KIND_PING,
    ProtocolError,
    RequestHeader,
    STATUS_BAD_FRAME,
    STATUS_ERROR,
    STATUS_NAMES,
    STATUS_OK,
    STATUS_OVERSIZED,
    STATUS_SHED,
    STATUS_TIMEOUT,
)
from repro.serve.request import (
    CCRequest,
    CCResponse,
    QueueFull,
    ResultHandle,
    ServerClosed,
)
from repro.serve.server import Server

#: Read/drain granularity for rejected payloads (bounded memory).
_DRAIN_CHUNK = 1 << 16

#: A rejected frame whose declared payload exceeds this multiple of the
#: configured ceiling is not drained -- the connection closes instead of
#: reading an unbounded stream just to stay in sync.
_DRAIN_FACTOR = 4

#: asyncio stream limit: bounds one JSON line / HTTP header block.
_STREAM_LIMIT = 8 << 20

#: HTTP method first-bytes for connection sniffing.
_HTTP_FIRST = frozenset(b"GPHDOT")

#: Requests of at most this many pairs submit inline on the event loop
#: (cheaper than a pool hop) -- only when admission cannot block.
_INLINE_PAIRS = 8192

#: HTTP status of each wire status; shed and cancelled answer 503.
_HTTP_STATUS = {STATUS_OK: 200, STATUS_BAD_FRAME: 400, STATUS_ERROR: 500,
                STATUS_TIMEOUT: 504}

#: What :meth:`Gateway._solve` resolves to: the server's response, or a
#: ``(wire status, message)`` failure that never reached a response.
_Outcome = Union[CCResponse, Tuple[int, str]]


def _verdict(outcome: _Outcome) -> Tuple[int, str]:
    """``(wire status, message)`` of any outcome."""
    if isinstance(outcome, CCResponse):
        return (protocol.status_of_response(outcome),
                outcome.error or outcome.status.value)
    return outcome


def _json_answer(request_id: Any, outcome: _Outcome) -> bytes:
    """The JSON line (or HTTP body) answering an outcome."""
    if isinstance(outcome, CCResponse):
        return protocol.encode_json_response(request_id, outcome)
    status, message = outcome
    return protocol.encode_json_response(
        request_id, error=message, status=STATUS_NAMES[status])


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs of a :class:`Gateway`.

    Attributes
    ----------
    host, port:
        Bind address; port 0 picks an ephemeral port (reported by
        :meth:`Gateway.start`).
    max_payload_bytes:
        Ceiling on one frame's declared edge payload; larger
        declarations get a typed OVERSIZED error frame without any
        allocation sized from them.
    chunk_labels:
        Label values per response chunk when streaming a result vector
        (64k labels = 512 KiB per frame by default).
    submit_threads:
        Thread-pool size for graph construction + blocking submits.
    default_deadline:
        Deadline applied to wire requests that do not carry one
        (``None`` = server default).
    drain_timeout:
        Bound (seconds) on waiting for in-flight wire requests during a
        drain; also the bound :func:`run_gateway` passes to
        ``Server.stop``.
    backlog:
        Listen backlog (sized for thousand-connection open-loop runs).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_payload_bytes: int = protocol.DEFAULT_MAX_PAYLOAD
    chunk_labels: int = 65536
    submit_threads: int = 4
    default_deadline: Optional[float] = None
    drain_timeout: float = 10.0
    backlog: int = 2048

    def __post_init__(self) -> None:
        if self.max_payload_bytes < protocol.REQUEST_HEADER_SIZE:
            raise ValueError(
                f"max_payload_bytes too small: {self.max_payload_bytes}"
            )
        if self.chunk_labels < 1:
            raise ValueError(
                f"chunk_labels must be >= 1, got {self.chunk_labels}"
            )
        if self.submit_threads < 1:
            raise ValueError(
                f"submit_threads must be >= 1, got {self.submit_threads}"
            )
        if self.drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be positive, got {self.drain_timeout}"
            )


class _Connection:
    """Per-connection state: the writer, a lock serialising response
    writes (pipelined requests complete out of order; each response's
    chunks must not interleave with another's) and the solve tasks the
    connection spawned, which it awaits before it closes."""

    __slots__ = ("reader", "writer", "lock", "tasks")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()
        self.tasks: Set["asyncio.Task[None]"] = set()


class Gateway:
    """Asyncio TCP gateway in front of a running :class:`Server`.

    The gateway never starts or stops the server it fronts -- lifecycle
    composition belongs to the caller (see :func:`run_gateway` /
    :func:`start_gateway`).  Construct with a started server, ``await
    start()``, and the listener is live.
    """

    def __init__(self, server: Server,
                 config: Optional[GatewayConfig] = None,
                 **overrides: Any):
        self.config = replace(config or GatewayConfig(), **overrides)
        self.server = server
        self.metrics = server.metrics
        self._listener: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._connections: Set[_Connection] = set()
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        self._draining = False
        self._address: Optional[Tuple[str, int]] = None
        # inline submission is only safe when admission cannot block
        self._inline_ok = server.config.admission != "block"

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the actual ``(host, port)``."""
        if self._listener is not None:
            raise RuntimeError("gateway already started")
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.submit_threads,
            thread_name_prefix="repro-gateway-submit",
        )
        self._listener = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            backlog=self.config.backlog,
            limit=_STREAM_LIMIT,
        )
        sock = self._listener.sockets[0]
        addr = sock.getsockname()
        self._address = (str(addr[0]), int(addr[1]))
        return self._address

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; raises before :meth:`start`."""
        if self._address is None:
            raise RuntimeError("gateway not started")
        return self._address

    @property
    def inflight(self) -> int:
        """Wire requests admitted but not yet resolved."""
        return self._inflight

    async def aclose(self, drain: bool = True,
                     timeout: Optional[float] = None) -> bool:
        """Stop listening and shut the wire layer down.

        ``drain=True`` sheds requests that arrive from here on but waits
        (bounded by ``timeout``, default the configured
        ``drain_timeout``) for already-admitted wire requests to
        resolve and their responses to flush.  Returns ``False`` when
        the bound elapsed with requests still in flight.
        """
        self._draining = True
        drained = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        if drain and self._idle is not None:
            bound = self.config.drain_timeout if timeout is None else timeout
            try:
                await asyncio.wait_for(self._settled(), bound)
            except asyncio.TimeoutError:
                drained = False
        for conn in list(self._connections):
            conn.writer.close()
        tasks = self._solve_tasks()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        return drained

    def _solve_tasks(self) -> Set["asyncio.Task[None]"]:
        return {task for conn in self._connections for task in conn.tasks}

    async def _settled(self) -> None:
        """Every admitted request resolved and its answer written."""
        assert self._idle is not None
        await self._idle.wait()
        await asyncio.gather(*self._solve_tasks(), return_exceptions=True)

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.metrics.record_connection_open()
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        try:
            first = await reader.read(1)
            if first == b"R":
                await self._binary_loop(conn, first)
            elif first in (b"{", b"["):
                await self._json_loop(conn, first)
            elif first and first[0] in _HTTP_FIRST:
                await self._http_exchange(conn, first)
            elif first:
                self.metrics.record_wire_error()
                await self._write_frame(conn, protocol.encode_error(
                    0, STATUS_BAD_FRAME,
                    f"unrecognised first byte 0x{first[0]:02x}",
                ))
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                asyncio.CancelledError):
            # the peer went away, or loop teardown cancelled the handler
            # mid-read: finish cleanly so the streams machinery logs nothing
            pass
        finally:
            self._connections.discard(conn)
            self.metrics.record_connection_close()
            try:
                writer.close()
            except OSError:  # already torn down
                pass

    async def _binary_loop(self, conn: _Connection, first: bytes) -> None:
        """Read framed requests until EOF; pipelining allowed.

        Each solve runs as a task of the connection; at EOF, a
        half-close included, the loop awaits them so every admitted
        frame is answered before the connection closes.  A frame torn
        by EOF (in its header or its payload) counts one protocol error.
        """
        reader = conn.reader
        at_boundary = False  # EOF here is clean: between two frames
        try:
            head = first + await reader.readexactly(
                protocol.REQUEST_HEADER_SIZE - 1)
            while True:
                try:
                    header = protocol.decode_request_header(
                        head, self.config.max_payload_bytes)
                except ProtocolError as exc:
                    self.metrics.record_wire_error()
                    self.metrics.record_wire_in(len(head), frames=0)
                    at_boundary = True  # counted: EOF in its drain adds none
                    if not await self._reject_frame(conn, head, exc):
                        return
                else:
                    payload = await reader.readexactly(header.payload_bytes)
                    self.metrics.record_wire_in(len(head) + len(payload))
                    if header.kind == KIND_PING:
                        await self._write_frame(
                            conn, protocol.encode_pong(header.request_id)
                        )
                    else:
                        task = asyncio.ensure_future(
                            self._binary_solve(conn, header, payload))
                        conn.tasks.add(task)
                        task.add_done_callback(conn.tasks.discard)
                at_boundary = True
                head = await reader.readexactly(protocol.REQUEST_HEADER_SIZE)
                at_boundary = False
        except asyncio.IncompleteReadError as exc:
            if exc.partial or not at_boundary:
                self.metrics.record_wire_error()
        finally:
            await asyncio.gather(*conn.tasks, return_exceptions=True)

    async def _reject_frame(self, conn: _Connection, head: bytes,
                            exc: ProtocolError) -> bool:
        """Answer a rejected header; returns whether the stream survives.

        Recoverable rejections (oversized / unknown dtype / inconsistent
        length) drain the declared payload in bounded chunks so framing
        stays intact; unrecoverable ones (bad magic) close.
        """
        recover = exc.recoverable
        if recover:
            declared = protocol.declared_payload_bytes(head)
            if declared > _DRAIN_FACTOR * self.config.max_payload_bytes:
                recover = False  # not worth reading that much to resync
            else:
                await self._drain_payload(conn.reader, declared)
        await self._write_frame(conn, protocol.encode_error(
            protocol.declared_request_id(head), exc.status, str(exc),
        ))
        return recover

    async def _drain_payload(self, reader: asyncio.StreamReader,
                             declared: int) -> None:
        """Discard ``declared`` payload bytes in bounded chunks."""
        remaining = declared
        while remaining > 0:
            chunk = await reader.read(min(_DRAIN_CHUNK, remaining))
            if not chunk:
                raise asyncio.IncompleteReadError(b"", remaining)
            self.metrics.record_wire_in(len(chunk), frames=0)
            remaining -= len(chunk)

    async def _binary_solve(self, conn: _Connection, header: RequestHeader,
                            payload: bytes) -> None:
        """One SOLVE frame -> label chunks or a typed error frame."""
        rid = header.request_id
        outcome = await self._solve(
            lambda: protocol.graph_from_frame(header, payload),
            header.deadline, header.m, f"wire-{rid}",
        )
        status, message = _verdict(outcome)
        try:
            if isinstance(outcome, CCResponse) and status == STATUS_OK:
                assert outcome.labels is not None
                await self._write_labels(conn, rid, outcome.labels)
            else:
                await self._write_frame(
                    conn, protocol.encode_error(rid, status, message))
        except (ConnectionError, OSError):
            pass  # peer went away; the solve result is simply dropped

    # -- the solve path, shared by every dialect -----------------------
    async def _solve(self, build: Callable[[], EdgeListGraph],
                     deadline: Optional[float], pairs: int,
                     request_id: Optional[str]) -> _Outcome:
        """Build a request's graph, submit it and await its response.

        ``pairs`` sizes the request for the inline rule.  A failure that
        never reached a response comes back as ``(wire status,
        message)``: shed (draining, admission), bad frame (a
        ``ValueError`` / ``IndexError``, counted in ``protocol_errors``)
        or error (any other exception).
        """
        assert self._loop is not None and self._idle is not None
        if self._draining:
            return STATUS_SHED, "gateway draining"
        received = self._loop.time()
        if deadline is None:
            deadline = self.config.default_deadline

        def submit() -> ResultHandle:
            # probes the result cache before admission, so a duplicate
            # graph resolves here without entering the queue
            return self.server.submit_request(CCRequest(
                graph=build(), deadline=deadline, request_id=request_id,
            ))

        self._inflight += 1
        self._idle.clear()
        try:
            try:
                if self._inline_ok and pairs <= _INLINE_PAIRS:
                    handle = submit()
                else:
                    handle = await self._loop.run_in_executor(self._pool, submit)
            except (QueueFull, ServerClosed) as exc:
                return STATUS_SHED, str(exc)
            except (ValueError, IndexError) as exc:
                self.metrics.record_wire_error()
                return STATUS_BAD_FRAME, str(exc)
            except Exception as exc:  # noqa: BLE001 -- wire must answer
                return STATUS_ERROR, str(exc)
            self.metrics.record_admit(self._loop.time() - received)
            return await self._bridge(handle)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    def _bridge(self, handle: ResultHandle) -> "asyncio.Future[CCResponse]":
        """The thread-to-loop completion bridge.

        The server's resolving thread fires the done-callback, which
        posts the response onto the loop; nothing blocks anywhere.
        """
        assert self._loop is not None
        loop = self._loop
        future: "asyncio.Future[CCResponse]" = loop.create_future()

        def _deliver(response: CCResponse) -> None:
            if not future.done():
                future.set_result(response)

        def _from_thread(response: CCResponse) -> None:
            try:
                loop.call_soon_threadsafe(_deliver, response)
            except RuntimeError:  # loop already closed (shutdown race)
                pass

        handle.add_done_callback(_from_thread)
        return future

    # -- response writing ----------------------------------------------
    async def _write_frame(self, conn: _Connection, frame: bytes) -> None:
        # counted before the drain: by the time the peer can observe
        # the bytes, the snapshot already reflects them
        self.metrics.record_wire_out(len(frame))
        async with conn.lock:
            conn.writer.write(frame)
            await conn.writer.drain()

    async def _write_labels(self, conn: _Connection, request_id: int,
                            labels: np.ndarray) -> None:
        """Stream a label vector as bounded chunks under backpressure."""
        chunks = protocol.iter_label_chunks(
            request_id, labels, self.config.chunk_labels
        )
        async with conn.lock:
            for head, payload in chunks:
                self.metrics.record_wire_out(len(head) + len(payload))
                conn.writer.write(head)
                if len(payload):
                    conn.writer.write(payload)
                await conn.writer.drain()

    # -- JSON dialects: lines and the HTTP body ------------------------
    async def _json_loop(self, conn: _Connection, first: bytes) -> None:
        reader = conn.reader
        line = first + await reader.readline()
        while line.strip():
            self.metrics.record_wire_in(len(line))
            rid, outcome = await self._json_solve(line)
            await self._write_frame(conn, _json_answer(rid, outcome))
            line = await reader.readline()

    async def _json_solve(self, body: bytes) -> Tuple[Any, _Outcome]:
        """One JSON request -> its ``id`` and outcome."""
        try:
            fields = protocol.decode_json_request(body)
        except ProtocolError as exc:
            self.metrics.record_wire_error()
            return None, (STATUS_BAD_FRAME, str(exc))
        return fields["id"], await self._solve(
            lambda: EdgeListGraph.from_arrays(
                fields["n"], fields["u"], fields["v"]),
            fields["deadline"], int(fields["u"].size), None,
        )

    async def _http_exchange(self, conn: _Connection, first: bytes) -> None:
        """One HTTP request per connection (``Connection: close``)."""
        reader = conn.reader
        try:
            raw = first + await reader.readuntil(b"\r\n\r\n")
        except (asyncio.LimitOverrunError, asyncio.IncompleteReadError):
            self.metrics.record_wire_error()
            return
        self.metrics.record_wire_in(len(raw), frames=0)
        head = raw.decode("latin-1", errors="replace")
        request_line, _, header_block = head.partition("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            await self._write_http(conn, 400, _json_answer(
                None, (STATUS_BAD_FRAME, "malformed request")))
            return
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for raw_line in header_block.split("\r\n"):
            name, sep, value = raw_line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        if method == "GET" and path == "/metrics":
            await self._write_http(conn, 200, self.server.metrics_snapshot())
        elif method == "GET" and path == "/healthz":
            state = "draining" if self._draining else "ok"
            await self._write_http(conn, 200, {"status": state})
        elif method == "POST" and path == "/solve":
            await self._http_solve(conn, headers)
        else:
            await self._write_http(conn, 404, _json_answer(
                None, (STATUS_BAD_FRAME, f"no route {method} {path}")))

    async def _http_solve(self, conn: _Connection,
                          headers: Dict[str, str]) -> None:
        declared = headers.get("content-length", "")
        if not declared.isdecimal():
            await self._write_http(conn, 411, _json_answer(
                None, (STATUS_BAD_FRAME, "Content-Length required")))
            return
        length = int(declared)
        if length > self.config.max_payload_bytes:
            self.metrics.record_wire_error()
            await self._write_http(conn, 413, _json_answer(None, (
                STATUS_OVERSIZED, f"body of {length} bytes exceeds the "
                f"{self.config.max_payload_bytes}-byte ceiling")))
            return
        try:
            body = await conn.reader.readexactly(length)
        except asyncio.IncompleteReadError:
            self.metrics.record_wire_error()
            return
        self.metrics.record_wire_in(len(body))
        rid, outcome = await self._json_solve(body)
        code = _HTTP_STATUS.get(_verdict(outcome)[0], 503)
        await self._write_http(conn, code, _json_answer(rid, outcome))

    async def _write_http(self, conn: _Connection, code: int,
                          body: Union[bytes, Dict[str, Any]]) -> None:
        if not isinstance(body, bytes):
            body = (json.dumps(body, separators=(",", ":")) + "\n").encode()
        head = (
            f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        await self._write_frame(conn, head + body)


# ----------------------------------------------------------------------
# process-level runners
# ----------------------------------------------------------------------

def run_gateway(
    server: Server,
    config: Optional[GatewayConfig] = None,
    handle_signals: bool = True,
    ready: Optional["threading.Event"] = None,
    announce: Optional[Any] = None,
    **overrides: Any,
) -> bool:
    """Run a gateway in the foreground until SIGTERM/SIGINT.

    The ``serve --listen`` CLI path.  On a signal the shutdown is
    drain-first and bounded: the listener closes, frames arriving after
    the signal are shed with a typed error frame, in-flight wire
    requests get up to ``drain_timeout`` seconds to resolve, and then
    ``Server.stop(drain=True, timeout=drain_timeout)`` flushes whatever
    the signal found already admitted -- a signal never drops admitted
    requests.  Returns whether the drain completed inside its bounds.

    ``announce(host, port)`` is called once the listener is live;
    ``ready`` (if given) is set at the same moment.
    """
    config = replace(config or GatewayConfig(), **overrides)

    async def _main() -> bool:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        gateway = Gateway(server, config)
        host, port = await gateway.start()
        if announce is not None:
            announce(host, port)
        if ready is not None:
            ready.set()
        installed = []
        if handle_signals:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stop.set)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError):
                    def _request_stop(*_: object) -> None:
                        try:
                            loop.call_soon_threadsafe(stop.set)
                        except RuntimeError:
                            pass  # loop already closed by a racing stop
                    signal.signal(signum, _request_stop)
        try:
            await stop.wait()
            wire_drained = await gateway.aclose(drain=True)
            server_drained = await loop.run_in_executor(
                None, lambda: server.stop(
                    drain=True, timeout=config.drain_timeout
                )
            )
            return wire_drained and server_drained
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    return asyncio.run(_main())


class GatewayHandle:
    """A gateway running on a background thread with its own loop.

    The embedding used by tests, benchmarks and ``serve-bench
    --listen``: the caller keeps driving the (thread-safe)
    :class:`Server` API while the gateway serves sockets beside it.
    """

    def __init__(self, server: Server,
                 config: Optional[GatewayConfig] = None,
                 **overrides: Any):
        self.config = replace(config or GatewayConfig(), **overrides)
        self.server = server
        self.gateway: Optional[Gateway] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._drain = True
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway", daemon=True
        )

    def start(self) -> "GatewayHandle":
        # idempotent so ``with start_gateway(...)`` (already started)
        # doesn't trip the one-shot thread
        if not self._thread.is_alive() and not self._ready.is_set():
            self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise RuntimeError(
                f"gateway failed to start: {self._error}"
            ) from self._error
        return self

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise RuntimeError("gateway not started")
        return self._address

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain (optionally) and stop the gateway thread.

        Does **not** stop the fronted server -- the caller owns it.
        """
        if not self._thread.is_alive():
            return
        self._drain = drain
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # loop already gone
                pass
        self._thread.join(timeout)

    def __enter__(self) -> "GatewayHandle":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 -- surfaced via start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        gateway = Gateway(self.server, self.config)
        try:
            self._address = await gateway.start()
        except BaseException as exc:  # noqa: BLE001 -- surfaced via start()
            self._error = exc
            self._ready.set()
            return
        self.gateway = gateway
        self._ready.set()
        await self._stop.wait()
        await gateway.aclose(drain=self._drain)


def start_gateway(server: Server,
                  config: Optional[GatewayConfig] = None,
                  **overrides: Any) -> GatewayHandle:
    """Start a :class:`GatewayHandle` fronting ``server``; returns it
    listening (``handle.address`` is live)."""
    return GatewayHandle(server, config, **overrides).start()
