"""The gateway's wire protocol: compact binary frames + a JSON dialect.

A served request's solve is often well under a millisecond, so the
wire layer in front of it has a number to answer to: comms cost per
request must stay small relative to the solve itself.  This
module is that layer's *codec* -- pure functions over bytes, no sockets,
no threads -- shared by the server-side
:class:`~repro.serve.gateway.Gateway` and the client side of the socket
load generator (and any external client that speaks the format).

Binary framing (little-endian, fixed headers, length-prefixed payload)::

    request header -- 40 bytes
    +-------+---------+------+-------+-------+----------+------------+
    | magic | version | kind | dtype | flags | reserved | request_id |
    |  u16  |   u8    |  u8  |  u8   |  u8   |   u16    |    u32     |
    +-------+---------+------+-------+-------+----------+------------+
    |    n    |    m    | payload_bytes | deadline_us |
    |   u64   |   u64   |      u64      |     u32     |
    +---------+---------+---------------+-------------+
    payload: m values of u then m values of v (two contiguous blocks,
    dtype per the header's code), declaring one edge {u[i], v[i]} each.

    response header -- 36 bytes
    +-------+---------+------+--------+-------+----------+------------+
    | magic | version | kind | status | flags | reserved | request_id |
    |  u16  |   u8    |  u8  |   u8   |  u8   |   u16    |    u32     |
    +-------+---------+------+--------+-------+----------+------------+
    |    n    | offset  |  count  |
    |   u64   |   u64   |   u64   |
    +---------+---------+---------+
    payload: ``count`` int64 labels for ``labels[offset:offset+count]``
    (kind LABELS; large vectors stream as several chunks, the last one
    carrying FLAG_FINAL), or ``count`` UTF-8 bytes of message (kind
    ERROR).

Two properties the framing is built around:

* **Zero-copy decode.**  The u/v blocks are *contiguous per endpoint*
  (not interleaved pairs), so :func:`decode_pairs` returns
  ``np.frombuffer`` views straight into the received buffer -- no copy
  of the edge payload beyond the socket read itself (asserted via
  ``np.shares_memory`` in the tests).  Interleaved ``(u0, v0, u1, ...)``
  pairs would decode to strided column views that every downstream
  ``ascontiguousarray`` silently copies.
* **Bounded reads.**  ``payload_bytes`` is declared up front and
  validated against both the header's own ``m``/``dtype`` arithmetic
  and the gateway's configured ceiling *before* any buffer is sized
  from it, so a hostile or buggy frame can be drained and answered
  with a typed error frame instead of an allocation.

The JSON dialect (one object per line, and the same object as an HTTP
``POST /solve`` body) is the convenience mode for humans and scripting;
see :func:`decode_json_request` / :func:`encode_json_response`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.hirschberg.edgelist import EdgeListGraph
from repro.serve.request import CCResponse, RequestStatus

#: ``b"RG"`` little-endian; the first byte on the wire (``R``) is how a
#: gateway connection is sniffed as binary rather than JSON/HTTP.
MAGIC = 0x4752
VERSION = 1

# -- frame kinds -------------------------------------------------------
KIND_SOLVE = 1  #: request: solve connected components of the edge payload
KIND_PING = 2  #: request: liveness probe, empty payload
KIND_LABELS = 3  #: response: a chunk of the label vector
KIND_ERROR = 4  #: response: typed failure, payload is a UTF-8 message
KIND_PONG = 5  #: response: liveness answer, empty payload

REQUEST_KINDS = (KIND_SOLVE, KIND_PING)

# -- dtype codes for the edge payload ----------------------------------
DTYPE_I64 = 0
DTYPE_I32 = 1
DTYPES: Dict[int, np.dtype] = {
    DTYPE_I64: np.dtype("<i8"),
    DTYPE_I32: np.dtype("<i4"),
}

# -- flags -------------------------------------------------------------
FLAG_FINAL = 0x01  #: last chunk of a streamed label vector
FLAG_CANONICAL = 0x02  #: payload is sorted duplicate-free u < v pairs

# -- status codes (response header) ------------------------------------
STATUS_OK = 0
STATUS_SHED = 1  #: rejected by admission (queue full / draining)
STATUS_TIMEOUT = 2
STATUS_CANCELLED = 3
STATUS_ERROR = 4  #: engine failure after retries
STATUS_BAD_FRAME = 5  #: malformed header or inconsistent payload
STATUS_OVERSIZED = 6  #: declared payload exceeds the gateway's ceiling
STATUS_UNSUPPORTED = 7  #: unknown kind / version / dtype

_STATUS_OF_REQUEST = {
    RequestStatus.OK: STATUS_OK,
    RequestStatus.SHED: STATUS_SHED,
    RequestStatus.TIMEOUT: STATUS_TIMEOUT,
    RequestStatus.CANCELLED: STATUS_CANCELLED,
    RequestStatus.ERROR: STATUS_ERROR,
}

STATUS_NAMES = {
    STATUS_OK: "ok",
    STATUS_SHED: "shed",
    STATUS_TIMEOUT: "timeout",
    STATUS_CANCELLED: "cancelled",
    STATUS_ERROR: "error",
    STATUS_BAD_FRAME: "bad_frame",
    STATUS_OVERSIZED: "oversized",
    STATUS_UNSUPPORTED: "unsupported",
}

_REQ_STRUCT = struct.Struct("<HBBBBHIQQQI")
_RESP_STRUCT = struct.Struct("<HBBBBHIQQQ")

REQUEST_HEADER_SIZE = _REQ_STRUCT.size  # 40
RESPONSE_HEADER_SIZE = _RESP_STRUCT.size  # 36

#: Default ceiling on one frame's declared payload (256 MiB -- a 16M-pair
#: int64 frame).  The gateway config can lower or raise it.
DEFAULT_MAX_PAYLOAD = 256 << 20

#: Deadline ceiling expressible in the 32-bit microsecond field (~71.6
#: minutes); anything above is clamped by the encoder.
MAX_DEADLINE_US = 2**32 - 1

BufferLike = Union[bytes, bytearray, memoryview]


class ProtocolError(ValueError):
    """A frame violated the wire format.

    ``status`` carries the :data:`STATUS_BAD_FRAME` /
    :data:`STATUS_OVERSIZED` / :data:`STATUS_UNSUPPORTED` code the
    gateway should answer with; ``recoverable`` says whether the stream
    is still framed (the declared payload length can be drained and the
    connection kept) or lost (bad magic -- nothing downstream can be
    trusted, close).
    """

    def __init__(self, message: str, status: int = STATUS_BAD_FRAME,
                 recoverable: bool = True):
        super().__init__(message)
        self.status = status
        self.recoverable = recoverable


@dataclass(frozen=True)
class RequestHeader:
    """Decoded request-frame header (see module docstring for layout)."""

    kind: int
    dtype: int
    flags: int
    request_id: int
    n: int
    m: int
    payload_bytes: int
    deadline_us: int

    @property
    def deadline(self) -> Optional[float]:
        """Deadline in seconds, ``None`` when the field is 0."""
        return self.deadline_us / 1e6 if self.deadline_us else None

    @property
    def canonical(self) -> bool:
        return bool(self.flags & FLAG_CANONICAL)


@dataclass(frozen=True)
class ResponseHeader:
    """Decoded response-frame header."""

    kind: int
    status: int
    flags: int
    request_id: int
    n: int
    offset: int
    count: int

    @property
    def final(self) -> bool:
        return bool(self.flags & FLAG_FINAL)

    @property
    def payload_bytes(self) -> int:
        """Bytes of payload following this header on the wire."""
        if self.kind == KIND_LABELS:
            return int(self.count) * 8
        if self.kind == KIND_ERROR:
            return int(self.count)
        return 0


# ----------------------------------------------------------------------
# request encode / decode
# ----------------------------------------------------------------------

def encode_solve_request(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    request_id: int = 0,
    deadline: Optional[float] = None,
    dtype_code: int = DTYPE_I64,
    canonical: bool = False,
) -> bytes:
    """One SOLVE frame for the edge arrays ``(u, v)``.

    ``canonical=True`` stamps :data:`FLAG_CANONICAL`: the pairs are
    promised to be the sorted duplicate-free ``u < v`` set, letting the
    gateway skip normalisation (only set it when that promise holds --
    e.g. when encoding an :class:`EdgeListGraph`'s own canonical halves;
    see :func:`encode_graph_request`).
    """
    wire_dtype = DTYPES.get(dtype_code)
    if wire_dtype is None:
        raise ValueError(f"unknown dtype code {dtype_code}")
    u = np.ascontiguousarray(u, dtype=wire_dtype)
    v = np.ascontiguousarray(v, dtype=wire_dtype)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(
            f"endpoint arrays must be equal-length 1-d, got "
            f"{u.shape} vs {v.shape}"
        )
    deadline_us = 0
    if deadline is not None:
        if deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        deadline_us = min(int(deadline * 1e6), MAX_DEADLINE_US) or 1
    flags = FLAG_CANONICAL if canonical else 0
    payload_bytes = 2 * u.size * wire_dtype.itemsize
    header = _REQ_STRUCT.pack(
        MAGIC, VERSION, KIND_SOLVE, dtype_code, flags, 0,
        request_id & 0xFFFFFFFF, n, u.size, payload_bytes, deadline_us,
    )
    return b"".join((header, u.tobytes(), v.tobytes()))


def encode_graph_request(
    graph: EdgeListGraph,
    request_id: int = 0,
    deadline: Optional[float] = None,
    dtype_code: int = DTYPE_I64,
) -> bytes:
    """A SOLVE frame for an :class:`EdgeListGraph`.

    The first half of ``(src, dst)`` is the graph's sorted duplicate-free
    ``u < v`` pair set (the constructors normalise), so the frame is
    stamped :data:`FLAG_CANONICAL` and the gateway rebuilds the graph
    without re-normalising.
    """
    m = graph.edge_count
    return encode_solve_request(
        graph.n, graph.src[:m], graph.dst[:m], request_id=request_id,
        deadline=deadline, dtype_code=dtype_code, canonical=True,
    )


def encode_ping(request_id: int = 0) -> bytes:
    """A PING frame (empty payload)."""
    return _REQ_STRUCT.pack(MAGIC, VERSION, KIND_PING, DTYPE_I64, 0, 0,
                            request_id & 0xFFFFFFFF, 0, 0, 0, 0)


def decode_request_header(
    buf: BufferLike, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> RequestHeader:
    """Decode and validate one request header.

    Raises :class:`ProtocolError` with the status code the gateway
    should answer with; ``recoverable`` is ``False`` only for bad magic
    (framing lost).  Oversized declarations are rejected *before* any
    allocation is sized from them.
    """
    if len(buf) < REQUEST_HEADER_SIZE:
        raise ProtocolError(
            f"truncated header: {len(buf)} of {REQUEST_HEADER_SIZE} bytes",
            recoverable=False,
        )
    (magic, version, kind, dtype_code, flags, _reserved, request_id,
     n, m, payload_bytes, deadline_us) = _REQ_STRUCT.unpack_from(buf)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad magic 0x{magic:04x} (expected 0x{MAGIC:04x})",
            recoverable=False,
        )
    if version != VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} (speaking {VERSION})",
            status=STATUS_UNSUPPORTED,
        )
    if kind not in REQUEST_KINDS:
        raise ProtocolError(f"unknown request kind {kind}",
                            status=STATUS_UNSUPPORTED)
    header = RequestHeader(kind=kind, dtype=dtype_code, flags=flags,
                           request_id=request_id, n=n, m=m,
                           payload_bytes=payload_bytes,
                           deadline_us=deadline_us)
    if kind == KIND_PING:
        if payload_bytes:
            raise ProtocolError("ping frames carry no payload")
        return header
    wire_dtype = DTYPES.get(dtype_code)
    if wire_dtype is None:
        raise ProtocolError(f"unknown dtype code {dtype_code}",
                            status=STATUS_UNSUPPORTED)
    if payload_bytes > max_payload:
        raise ProtocolError(
            f"declared payload of {payload_bytes} bytes exceeds the "
            f"gateway ceiling of {max_payload}",
            status=STATUS_OVERSIZED,
        )
    if payload_bytes != 2 * m * wire_dtype.itemsize:
        raise ProtocolError(
            f"payload length {payload_bytes} does not match m={m} "
            f"pairs of {wire_dtype.name}"
        )
    if n < 1:
        raise ProtocolError(f"n must be >= 1, got {n}")
    return header


def declared_payload_bytes(buf: BufferLike) -> int:
    """The raw ``payload_bytes`` field of a request header.

    Used to resync the stream after a *recoverable* header rejection
    (unknown dtype, inconsistent length, oversized declaration): the
    declared payload can be drained and the connection kept, because the
    length field itself is still trusted framing.  Returns 0 when the
    buffer is too short to carry one.
    """
    if len(buf) < REQUEST_HEADER_SIZE:
        return 0
    return int(_REQ_STRUCT.unpack_from(buf)[9])


def declared_request_id(buf: BufferLike) -> int:
    """The raw ``request_id`` field of a request header.

    Lets a rejection's error frame still echo the caller's correlation
    id even though the rest of the header failed validation.  Returns 0
    when the buffer is too short to carry one.
    """
    if len(buf) < REQUEST_HEADER_SIZE:
        return 0
    return int(_REQ_STRUCT.unpack_from(buf)[6])


def decode_pairs(
    header: RequestHeader, payload: BufferLike
) -> Tuple[np.ndarray, np.ndarray]:
    """The zero-copy endpoint views of a SOLVE payload.

    Both returned arrays are ``np.frombuffer`` views into ``payload``
    (``np.shares_memory(u, payload)`` holds) -- the edge data is never
    copied by the decode itself.
    """
    if len(payload) != header.payload_bytes:
        raise ProtocolError(
            f"payload is {len(payload)} bytes, header declared "
            f"{header.payload_bytes}"
        )
    wire_dtype = DTYPES[header.dtype]
    flat = np.frombuffer(payload, dtype=wire_dtype)
    if flat.size != 2 * header.m:
        raise ProtocolError(
            f"header declares m={header.m} edges but the payload holds "
            f"{flat.size} {wire_dtype.name} words; refusing to shear "
            "the endpoint arrays"
        )
    return flat[:header.m], flat[header.m:]


def graph_from_frame(header: RequestHeader,
                     payload: BufferLike) -> EdgeListGraph:
    """Decode a SOLVE frame straight into an :class:`EdgeListGraph`.

    The endpoint views feed ``EdgeListGraph.from_arrays`` directly;
    :data:`FLAG_CANONICAL` frames skip normalisation.
    """
    u, v = decode_pairs(header, payload)
    return EdgeListGraph.from_arrays(header.n, u, v,
                                     assume_canonical=header.canonical)


# ----------------------------------------------------------------------
# response encode / decode
# ----------------------------------------------------------------------

def encode_labels_header(
    request_id: int, n: int, offset: int, count: int, final: bool
) -> bytes:
    """Header of one LABELS chunk (``count`` int64 labels follow).

    The payload is written separately by the caller (typically a
    ``memoryview`` slice of the label vector) so streaming a large
    result copies nothing.
    """
    flags = FLAG_FINAL if final else 0
    return _RESP_STRUCT.pack(MAGIC, VERSION, KIND_LABELS, STATUS_OK,
                             flags, 0, request_id & 0xFFFFFFFF,
                             n, offset, count)


def iter_label_chunks(
    request_id: int, labels: np.ndarray, chunk_labels: int
) -> List[Tuple[bytes, memoryview]]:
    """``(header, payload_view)`` pairs streaming ``labels`` in bounded
    chunks of at most ``chunk_labels`` values each.

    Payloads are memoryviews over one contiguous little-endian int64
    copy of the vector (a no-op view when the labels already are) --
    the chunking itself never re-slices into fresh arrays.
    """
    if chunk_labels < 1:
        raise ValueError(f"chunk_labels must be >= 1, got {chunk_labels}")
    wire = np.ascontiguousarray(labels, dtype="<i8")
    n = int(wire.size)
    view = memoryview(wire).cast("B")
    frames: List[Tuple[bytes, memoryview]] = []
    offset = 0
    while True:
        count = min(chunk_labels, n - offset)
        final = offset + count >= n
        header = encode_labels_header(request_id, n, offset, count, final)
        frames.append((header, view[offset * 8:(offset + count) * 8]))
        if final:
            break
        offset += count
    return frames


def encode_error(request_id: int, status: int, message: str,
                 n: int = 0) -> bytes:
    """One ERROR frame; the payload is the UTF-8 message."""
    body = message.encode("utf-8", errors="replace")
    header = _RESP_STRUCT.pack(MAGIC, VERSION, KIND_ERROR, status,
                               FLAG_FINAL, 0, request_id & 0xFFFFFFFF,
                               n, 0, len(body))
    return header + body


def encode_pong(request_id: int) -> bytes:
    """One PONG frame (empty payload)."""
    return _RESP_STRUCT.pack(MAGIC, VERSION, KIND_PONG, STATUS_OK,
                             FLAG_FINAL, 0, request_id & 0xFFFFFFFF,
                             0, 0, 0)


def status_of_response(response: CCResponse) -> int:
    """The wire status code of a served :class:`CCResponse`."""
    return _STATUS_OF_REQUEST.get(response.status, STATUS_ERROR)


def decode_response_header(buf: BufferLike) -> ResponseHeader:
    """Decode one response header (client side)."""
    if len(buf) < RESPONSE_HEADER_SIZE:
        raise ProtocolError(
            f"truncated header: {len(buf)} of {RESPONSE_HEADER_SIZE} bytes",
            recoverable=False,
        )
    (magic, version, kind, status, flags, _reserved, request_id,
     n, offset, count) = _RESP_STRUCT.unpack_from(buf)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04x}", recoverable=False)
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}",
                            status=STATUS_UNSUPPORTED)
    if kind not in (KIND_LABELS, KIND_ERROR, KIND_PONG):
        raise ProtocolError(f"unknown response kind {kind}",
                            status=STATUS_UNSUPPORTED)
    return ResponseHeader(kind=kind, status=status, flags=flags,
                          request_id=request_id, n=n, offset=offset,
                          count=count)


def decode_labels(header: ResponseHeader, payload: BufferLike) -> np.ndarray:
    """The zero-copy label view of one LABELS chunk."""
    if len(payload) != header.payload_bytes:
        raise ProtocolError(
            f"labels payload is {len(payload)} bytes, header declared "
            f"{header.payload_bytes}"
        )
    return np.frombuffer(payload, dtype="<i8")


# ----------------------------------------------------------------------
# JSON dialect (line protocol and HTTP body)
# ----------------------------------------------------------------------

def decode_json_request(line: Union[str, bytes]) -> Dict[str, Any]:
    """Parse and validate one JSON request object.

    Accepted shapes::

        {"n": 5, "edges": [[0, 1], [2, 3]], "id": 7, "deadline": 0.5}
        {"n": 5, "u": [0, 2], "v": [1, 3]}

    Returns ``{"id", "n", "u", "v", "deadline"}`` with ``u``/``v`` as
    int64 arrays.  Raises :class:`ProtocolError` on malformed input.
    """
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError("JSON request must be an object")
    if "n" not in doc:
        raise ProtocolError("JSON request missing 'n'")
    try:
        n = int(doc["n"])
    except (TypeError, ValueError):
        raise ProtocolError(f"bad n {doc.get('n')!r}") from None
    try:
        if "edges" in doc:
            edges = np.asarray(doc["edges"], dtype=np.int64)
            if edges.size == 0:
                u = v = np.empty(0, dtype=np.int64)
            elif edges.ndim != 2 or edges.shape[1] != 2:
                raise ProtocolError(
                    "'edges' must be a list of [u, v] pairs"
                )
            else:
                u, v = edges[:, 0].copy(), edges[:, 1].copy()
        else:
            u = np.asarray(doc.get("u", ()), dtype=np.int64).ravel()
            v = np.asarray(doc.get("v", ()), dtype=np.int64).ravel()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"bad edge arrays: {exc}") from None
    if u.shape != v.shape:
        raise ProtocolError(
            f"'u' and 'v' differ in length: {u.size} vs {v.size}"
        )
    deadline = doc.get("deadline")
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"bad deadline {doc.get('deadline')!r}"
            ) from None
        if deadline <= 0:
            raise ProtocolError(f"deadline must be positive, got {deadline}")
    return {"id": doc.get("id"), "n": n, "u": u, "v": v,
            "deadline": deadline}


def encode_json_response(
    request_id: Any,
    response: Optional[CCResponse] = None,
    error: Optional[str] = None,
    status: str = "error",
) -> bytes:
    """One JSON response line (newline-terminated UTF-8).

    With ``response`` the line mirrors the :class:`CCResponse` (status,
    labels on OK, engine attribution, latency); without it, a protocol-
    level failure line with ``status`` and ``error``.
    """
    doc: Dict[str, Any] = {"id": request_id}
    if response is not None:
        doc["status"] = response.status.value
        if response.status is RequestStatus.OK and response.labels is not None:
            doc["n"] = int(response.labels.size)
            doc["labels"] = response.labels.tolist()
            doc["engine"] = response.engine
            doc["batch_size"] = response.batch_size
        elif response.error:
            doc["error"] = response.error
        doc["latency_ms"] = round(response.latency_seconds * 1e3, 4)
    else:
        doc["status"] = status
        doc["error"] = error or "request failed"
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")
