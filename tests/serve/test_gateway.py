"""End-to-end tests for the asyncio socket gateway.

Every test drives a real TCP connection against a
:class:`~repro.serve.gateway.GatewayHandle` fronting a live
:class:`~repro.serve.server.Server` -- binary framing, JSON lines and
the HTTP surface all travel the loopback, and label vectors are checked
against the in-process oracle the wire layer must reproduce.
"""

import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.hirschberg.edgelist import random_edge_list
from repro.serve import protocol
from repro.serve.gateway import Gateway, GatewayConfig, GatewayHandle
from repro.serve.loadgen import (
    LoadSpec,
    make_workload,
    oracle_labels,
    run_socket_closed_loop,
    run_socket_open_loop,
)
from repro.serve.server import Server, ServerConfig


@pytest.fixture()
def server():
    with Server(ServerConfig(workers=1, max_wait=0.002)) as s:
        yield s


@pytest.fixture()
def gateway(server):
    with GatewayHandle(server, chunk_labels=256) as gw:
        yield gw


def _connect(gateway):
    sock = socket.create_connection(gateway.address)
    return sock, sock.makefile("rwb")


def _read_to_eof(sock):
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def _http(address, raw):
    """One HTTP exchange: (status code, JSON body or None)."""
    sock = socket.create_connection(address)
    sock.sendall(raw)
    head, _, body = _read_to_eof(sock).partition(b"\r\n\r\n")
    sock.close()
    return int(head.split(b" ", 2)[1]), json.loads(body) if body else None


def _read_response(stream):
    """One full response: (header, message_or_labels)."""
    head = stream.read(protocol.RESPONSE_HEADER_SIZE)
    assert len(head) == protocol.RESPONSE_HEADER_SIZE
    rh = protocol.decode_response_header(head)
    if rh.kind == protocol.KIND_ERROR:
        return rh, stream.read(rh.payload_bytes).decode()
    if rh.kind != protocol.KIND_LABELS:
        return rh, None
    labels = np.empty(rh.n, dtype=np.int64)
    while True:
        payload = stream.read(rh.payload_bytes)
        labels[rh.offset:rh.offset + rh.count] = \
            protocol.decode_labels(rh, payload)
        if rh.final:
            return rh, labels
        rh = protocol.decode_response_header(
            stream.read(protocol.RESPONSE_HEADER_SIZE))


class TestBinaryDialect:
    def test_solve_round_trip_matches_oracle(self, gateway):
        g = random_edge_list(500, 1200, seed=4)
        sock, stream = _connect(gateway)
        stream.write(protocol.encode_graph_request(g, request_id=21))
        stream.flush()
        rh, labels = _read_response(stream)
        assert rh.request_id == 21
        assert np.array_equal(labels, oracle_labels(g))
        sock.close()

    def test_chunked_streaming_reassembles(self, gateway):
        # chunk_labels=256 in the fixture forces a multi-chunk stream
        g = random_edge_list(2000, 4000, seed=5)
        sock, stream = _connect(gateway)
        stream.write(protocol.encode_graph_request(g, request_id=1))
        stream.flush()
        head = stream.read(protocol.RESPONSE_HEADER_SIZE)
        rh = protocol.decode_response_header(head)
        chunks = 0
        labels = np.empty(rh.n, dtype=np.int64)
        while True:
            chunks += 1
            labels[rh.offset:rh.offset + rh.count] = protocol.decode_labels(
                rh, stream.read(rh.payload_bytes))
            if rh.final:
                break
            rh = protocol.decode_response_header(
                stream.read(protocol.RESPONSE_HEADER_SIZE))
        assert chunks > 1
        assert np.array_equal(labels, oracle_labels(g))
        sock.close()

    def test_pipelined_requests_both_answered(self, gateway):
        a = random_edge_list(100, 200, seed=1)
        b = random_edge_list(120, 240, seed=2)
        sock, stream = _connect(gateway)
        stream.write(protocol.encode_graph_request(a, request_id=1))
        stream.write(protocol.encode_graph_request(b, request_id=2))
        stream.flush()
        got = {}
        for _ in range(2):
            rh, labels = _read_response(stream)
            got[rh.request_id] = labels
        assert np.array_equal(got[1], oracle_labels(a))
        assert np.array_equal(got[2], oracle_labels(b))
        sock.close()

    def test_ping_pong(self, gateway):
        sock, stream = _connect(gateway)
        stream.write(protocol.encode_ping(request_id=77))
        stream.flush()
        rh, _ = _read_response(stream)
        assert rh.kind == protocol.KIND_PONG and rh.request_id == 77
        sock.close()

    def test_deadline_propagates_into_request(self, gateway):
        # an already-hopeless deadline resolves TIMEOUT (or OK if the
        # scheduler wins the race); the wire must carry it either way
        g = random_edge_list(64, 128, seed=3)
        sock, stream = _connect(gateway)
        stream.write(protocol.encode_graph_request(
            g, request_id=5, deadline=1e-6))
        stream.flush()
        rh, body = _read_response(stream)
        assert rh.request_id == 5
        if rh.kind == protocol.KIND_ERROR:
            assert rh.status == protocol.STATUS_TIMEOUT, body
        sock.close()


class TestRejectionOverTheWire:
    def test_recoverable_rejection_keeps_the_connection(self, gateway):
        g = random_edge_list(50, 100, seed=6)
        bad = bytearray(protocol.encode_graph_request(g, request_id=8))
        bad[4] = 200  # unknown dtype code
        sock, stream = _connect(gateway)
        stream.write(bytes(bad))
        stream.flush()
        rh, message = _read_response(stream)
        assert rh.kind == protocol.KIND_ERROR
        assert rh.status == protocol.STATUS_UNSUPPORTED
        assert rh.request_id == 8
        assert "dtype" in message
        # the declared payload was drained: the stream is still framed
        stream.write(protocol.encode_graph_request(g, request_id=9))
        stream.flush()
        rh, labels = _read_response(stream)
        assert rh.request_id == 9
        assert np.array_equal(labels, oracle_labels(g))
        sock.close()

    def test_oversized_declaration_bounded_and_typed(self, server):
        with GatewayHandle(server, max_payload_bytes=1 << 16) as gw:
            header = bytearray(protocol.encode_ping())
            struct.pack_into("<B", header, 3, protocol.KIND_SOLVE)
            struct.pack_into("<B", header, 4, protocol.DTYPE_I64)
            struct.pack_into("<Q", header, 12, 10)        # n
            struct.pack_into("<Q", header, 20, 1 << 40)   # m
            struct.pack_into("<Q", header, 28, 1 << 44)   # payload_bytes
            sock, stream = _connect(gw)
            stream.write(bytes(header))
            stream.flush()
            rh, message = _read_response(stream)
            assert rh.status == protocol.STATUS_OVERSIZED
            # declared size is beyond any drain bound: connection closes
            # without the gateway ever reading (or allocating) 16 TiB
            assert stream.read(1) == b""
            sock.close()

    def test_bad_magic_closes_the_connection(self, gateway):
        sock, stream = _connect(gateway)
        stream.write(b"R" + b"\x00" * (protocol.REQUEST_HEADER_SIZE - 1))
        stream.flush()
        rh, _ = _read_response(stream)
        assert rh.status == protocol.STATUS_BAD_FRAME
        assert stream.read(1) == b""
        sock.close()

    def test_shed_maps_to_typed_error_frame(self):
        config = ServerConfig(workers=1, max_wait=0.05, max_queue=1,
                              admission="shed")
        g = random_edge_list(64, 128, seed=7)
        with Server(config) as server:
            with GatewayHandle(server) as gw:
                sock, stream = _connect(gw)
                # enough pipelined frames to overflow a queue of 1
                for i in range(30):
                    stream.write(protocol.encode_graph_request(
                        random_edge_list(64, 128, seed=100 + i),
                        request_id=i))
                stream.flush()
                statuses = []
                for _ in range(30):
                    rh, _ = _read_response(stream)
                    status = (protocol.STATUS_OK
                              if rh.kind == protocol.KIND_LABELS
                              else rh.status)
                    statuses.append(status)
                sock.close()
        assert protocol.STATUS_SHED in statuses
        assert protocol.STATUS_OK in statuses


class TestCacheOverTheWire:
    def test_duplicate_socket_requests_hit_the_result_cache(self):
        config = ServerConfig(workers=1, max_wait=0.0,
                              cache_bytes=32 << 20)
        g = random_edge_list(1000, 2500, seed=8)
        with Server(config) as server:
            with GatewayHandle(server) as gw:
                sock, stream = _connect(gw)
                first = None
                for rid in (1, 2):
                    stream.write(protocol.encode_graph_request(
                        g, request_id=rid))
                    stream.flush()
                    _, labels = _read_response(stream)
                    if first is None:
                        first = labels
                    else:
                        assert np.array_equal(labels, first)
                sock.close()
                snap = server.metrics_snapshot()
        # the duplicate resolved from the content-addressed cache: it
        # never touched the planner or an engine
        assert snap["cache"]["hits"] == 1
        assert snap["cache"]["misses"] == 1


class TestJsonAndHttp:
    def test_json_lines_round_trip(self, gateway):
        sock, stream = _connect(gateway)
        stream.write(
            b'{"id": 4, "n": 6, "edges": [[0, 1], [1, 2], [4, 5]]}\n')
        stream.flush()
        doc = json.loads(stream.readline())
        assert doc["id"] == 4 and doc["status"] == "ok"
        assert doc["labels"] == [0, 0, 0, 3, 4, 4]
        stream.write(b'{"n": 3, "u": [0]}\n')  # u without v
        stream.flush()
        doc = json.loads(stream.readline())
        assert doc["status"] == "bad_frame"
        sock.close()

    def test_http_solve(self, gateway):
        body = json.dumps({"n": 4, "edges": [[0, 3]]}).encode()
        status, doc = _http(
            gateway.address,
            b"POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)
        assert status == 200
        assert doc["labels"] == [0, 1, 2, 0]

    def test_http_metrics_and_healthz(self, gateway):
        status, doc = _http(
            gateway.address, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        assert status == 200 and "wire" in doc
        status, doc = _http(
            gateway.address, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert status == 200 and doc["status"] == "ok"

    def test_http_unknown_route_404(self, gateway):
        status, doc = _http(
            gateway.address, b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
        assert status == 404
        assert doc["id"] is None and "no route" in doc["error"]


class TestWireMetrics:
    def test_wire_section_counts_traffic(self, server, gateway):
        g = random_edge_list(100, 200, seed=9)
        sock, stream = _connect(gateway)
        stream.write(protocol.encode_graph_request(g, request_id=1))
        stream.flush()
        _read_response(stream)
        sock.close()
        snap = server.metrics_snapshot()["wire"]
        assert snap["connections_total"] >= 1
        assert snap["frames_in"] >= 1
        assert snap["frames_out"] >= 1
        assert snap["bytes_in"] > protocol.REQUEST_HEADER_SIZE
        assert snap["bytes_out"] > protocol.RESPONSE_HEADER_SIZE
        assert snap["accept_to_admit"]["count"] >= 1


class TestLoadgenDrivers:
    def test_open_loop_verifies_against_oracle(self, gateway):
        graphs = make_workload(LoadSpec(count=40, sizes=(8, 16, 32),
                                        seed=12))
        results = run_socket_open_loop(gateway.address, graphs,
                                       offered_rps=2000, connections=8,
                                       seed=1)
        assert all(r is not None and r.ok for r in results)
        for r in results:
            assert np.array_equal(r.labels,
                                  oracle_labels(graphs[r.request_id]))

    def test_closed_loop_verifies_against_oracle(self, gateway):
        graphs = make_workload(LoadSpec(count=24, sizes=(8, 16), seed=13))
        results = run_socket_closed_loop(gateway.address, graphs,
                                         connections=4)
        assert all(r is not None and r.ok for r in results)
        for r in results:
            assert np.array_equal(r.labels,
                                  oracle_labels(graphs[r.request_id]))

    def test_dense_graphs_rejected(self, gateway):
        from repro.graphs.generators import random_graph

        with pytest.raises(TypeError):
            run_socket_closed_loop(gateway.address,
                                   [random_graph(8, 0.5, seed=1)])


class TestDrain:
    def test_aclose_waits_for_inflight_then_sheds_new(self):
        with Server(ServerConfig(workers=1, max_wait=0.002)) as server:
            handle = GatewayHandle(server).start()
            g = random_edge_list(200, 400, seed=10)
            sock, stream = _connect(handle)
            stream.write(protocol.encode_graph_request(g, request_id=1))
            stream.flush()
            rh, labels = _read_response(stream)
            assert np.array_equal(labels, oracle_labels(g))
            handle.stop(drain=True)
            sock.close()
        assert handle.gateway is not None
        assert handle.gateway.inflight == 0

    def test_stop_does_not_stop_the_fronted_server(self):
        with Server(ServerConfig(workers=1)) as server:
            handle = GatewayHandle(server).start()
            handle.stop()
            # the server is still the caller's: in-process traffic works
            g = random_edge_list(32, 64, seed=11)
            assert np.array_equal(server.submit(g).result(timeout=30),
                                  oracle_labels(g))

    def test_gateway_requires_a_running_loop_for_start(self):
        with Server(ServerConfig(workers=1)) as server:
            gw = Gateway(server, GatewayConfig())
            with pytest.raises(RuntimeError):
                gw.address  # not started

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(chunk_labels=0)
        with pytest.raises(ValueError):
            GatewayConfig(drain_timeout=0.0)
        with pytest.raises(ValueError):
            GatewayConfig(submit_threads=0)


class TestConcurrentConnections:
    def test_many_connections_share_one_gateway(self, gateway):
        graphs = [random_edge_list(64, 128, seed=20 + i) for i in range(8)]
        expected = [oracle_labels(g) for g in graphs]
        errors = []

        def client(idx):
            try:
                sock, stream = _connect(gateway)
                stream.write(protocol.encode_graph_request(
                    graphs[idx], request_id=idx))
                stream.flush()
                rh, labels = _read_response(stream)
                assert rh.request_id == idx
                assert np.array_equal(labels, expected[idx])
                sock.close()
            except Exception as exc:  # noqa: BLE001 -- collected for assert
                errors.append((idx, exc))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(graphs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


def _ask(address, dialect, n, edges, rid=3):
    """One solve in ``dialect``: (status name, labels, HTTP code).

    JSON and HTTP answers must echo the request ``id``."""
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    if dialect == "binary":
        sock = socket.create_connection(address)
        stream = sock.makefile("rwb")
        stream.write(protocol.encode_solve_request(n, u, v, request_id=rid))
        stream.flush()
        rh, body = _read_response(stream)
        sock.close()
        assert rh.request_id == rid
        if rh.kind == protocol.KIND_LABELS:
            return "ok", body, None
        return protocol.STATUS_NAMES[rh.status], None, None
    doc = json.dumps({"id": rid, "n": n, "edges": edges}).encode()
    if dialect == "json":
        sock = socket.create_connection(address)
        stream = sock.makefile("rwb")
        stream.write(doc + b"\n")
        stream.flush()
        answer, code = json.loads(stream.readline()), None
        sock.close()
    else:
        code, answer = _http(address, b"POST /solve HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: " + str(len(doc)).encode()
                             + b"\r\n\r\n" + doc)
    assert answer["id"] == rid
    return answer["status"], answer.get("labels"), code


_DIALECTS = ("binary", "json", "http")
_EDGES = [[0, 1], [2, 3], [1, 2], [5, 6]]
_ORACLE = [0, 0, 0, 0, 4, 5, 5]


def _errors(server):
    return server.metrics_snapshot()["wire"]["protocol_errors"]


class TestDialectParity:
    """Every dialect answers every outcome of the one solve path with a
    typed status, and keeps serving afterwards."""

    HTTP = {"ok": 200, "shed": 503, "bad_frame": 400, "error": 500}

    def _check(self, gw, dialect, expected, answer):
        status, _, code = answer
        assert status == expected
        if dialect == "http":
            assert code == self.HTTP[expected]
        # the gateway answers a normal request afterwards
        status, labels, _ = _ask(gw.address, dialect, 7, _EDGES)
        assert status == "ok" and list(labels) == _ORACLE

    @pytest.mark.parametrize("dialect", _DIALECTS)
    def test_ok(self, gateway, dialect):
        self._check(gateway, dialect, "ok",
                    _ask(gateway.address, dialect, 7, _EDGES))

    @pytest.mark.parametrize("dialect", _DIALECTS)
    def test_shed(self, dialect):
        config = ServerConfig(workers=1, max_wait=0.5, max_queue=1,
                              admission="shed")
        with Server(config) as server, GatewayHandle(server) as gw:
            # a request held by the batching window fills the queue
            held = server.submit(random_edge_list(16, 20, seed=1))
            answer = _ask(gw.address, dialect, 7, _EDGES)
            assert held.response(timeout=30).ok
            self._check(gw, dialect, "shed", answer)

    @pytest.mark.parametrize("dialect", _DIALECTS)
    def test_bad_input(self, server, gateway, dialect):
        before = _errors(server)
        self._check(gateway, dialect, "bad_frame",
                    _ask(gateway.address, dialect, 4, [[0, 9]]))
        assert _errors(server) == before + 1

    @pytest.mark.parametrize("dialect", _DIALECTS)
    def test_exception_in_submit(self, server, gateway, dialect,
                                 monkeypatch):
        def boom(request):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(server, "submit_request", boom)
        answer = _ask(gateway.address, dialect, 7, _EDGES)
        monkeypatch.undo()
        self._check(gateway, dialect, "error", answer)

    @pytest.mark.parametrize("dialect", _DIALECTS)
    def test_draining(self, gateway, dialect):
        gateway.gateway._draining = True
        try:
            answer = _ask(gateway.address, dialect, 7, _EDGES)
        finally:
            gateway.gateway._draining = False
        self._check(gateway, dialect, "shed", answer)

    @pytest.mark.parametrize("dialect", _DIALECTS)
    def test_n_past_int64_is_bad_input(self, server, gateway, dialect):
        before = _errors(server)
        self._check(gateway, dialect, "bad_frame",
                    _ask(gateway.address, dialect, 2**63, [[0, 1]]))
        assert _errors(server) == before + 1


class TestHalfCloseAndTruncation:
    def test_half_closed_connection_gets_every_answer(self, gateway):
        a = random_edge_list(100, 200, seed=1)
        b = random_edge_list(120, 240, seed=2)
        sock, stream = _connect(gateway)
        stream.write(protocol.encode_graph_request(a, request_id=1))
        stream.write(protocol.encode_graph_request(b, request_id=2))
        stream.flush()
        sock.shutdown(socket.SHUT_WR)
        got = {}
        for _ in range(2):
            rh, labels = _read_response(stream)
            got[rh.request_id] = labels
        assert stream.read(1) == b""  # then the gateway closes
        sock.close()
        assert np.array_equal(got[1], oracle_labels(a))
        assert np.array_equal(got[2], oracle_labels(b))

    @pytest.mark.parametrize("cut", ["first_header", "later_header",
                                     "payload", "rejected_payload",
                                     "http_body"])
    def test_truncated_frame_counts_one_protocol_error(self, server,
                                                       gateway, cut):
        g = random_edge_list(50, 100, seed=3)
        frame = protocol.encode_graph_request(g, request_id=1)
        rejected = bytearray(frame)
        rejected[4] = 200  # unknown dtype: counted, then its payload drained
        doc = json.dumps({"id": 1, "n": 4, "edges": [[0, 1]]}).encode()
        data = {
            "first_header": frame[:10],
            "later_header": frame + frame[:10],
            "payload": frame[:protocol.REQUEST_HEADER_SIZE + 20],
            "rejected_payload": bytes(
                rejected[:protocol.REQUEST_HEADER_SIZE + 20]),
            "http_body": b"POST /solve HTTP/1.1\r\nContent-Length: "
                         + str(len(doc)).encode() + b"\r\n\r\n" + doc[:5],
        }[cut]
        before = _errors(server)
        sock = socket.create_connection(gateway.address)
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        _read_to_eof(sock)  # the gateway closes once it has counted
        sock.close()
        assert _errors(server) == before + 1

    def test_clean_eof_between_frames_is_not_an_error(self, server,
                                                      gateway):
        g = random_edge_list(50, 100, seed=3)
        before = _errors(server)
        sock = socket.create_connection(gateway.address)
        sock.sendall(protocol.encode_graph_request(g, request_id=1))
        sock.shutdown(socket.SHUT_WR)
        assert _read_to_eof(sock)  # the answer, then EOF
        sock.close()
        assert _errors(server) == before


class TestAdmitMetricCoversEveryDialect:
    def test_http_solves_count_in_accept_to_admit(self, server, gateway):
        for dialect in _DIALECTS:
            assert _ask(gateway.address, dialect, 7, _EDGES)[0] == "ok"
        snap = server.metrics_snapshot()["wire"]
        assert snap["accept_to_admit"]["count"] == 3
