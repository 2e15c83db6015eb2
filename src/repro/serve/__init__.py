"""``repro.serve`` -- dynamic micro-batching request serving.

The step from "fast library" to "service": a stream of independent
connected-components requests is admitted through a bounded queue,
packed into size buckets, and executed as one coalesced contracting
solve per batch (or a solo run of the engine the dispatcher's rule
table picks) on the server's worker threads -- with per-request
deadlines, cancellation, retries, backpressure, graceful drain and a
full serve-side metrics layer.

Quickstart::

    from repro.serve import Server, serve_many

    responses = serve_many(graphs, deadline=0.5, workers=4)

    # a bucket flushes on a free worker, a full bucket, deadline
    # pressure, or an opt-in max_wait (a minimum hold, 0 by default)
    with Server(workers=4) as server:
        handle = server.submit(graph, deadline=0.2)
        labels = handle.result()
        print(server.metrics.to_json())

Modules
-------
``repro.serve.request``
    :class:`CCRequest` / :class:`CCResponse` / :class:`ResultHandle`
    value types and the terminal :class:`RequestStatus`.
``repro.serve.scheduler``
    The thread-free batching policy: buckets, flush triggers (a free
    worker, a full bucket, a request with a deadline, or an opt-in
    ``max_wait``), engine choice.
``repro.serve.workers``
    The solve paths the worker threads run: coalesced unions and solo
    engines.
``repro.serve.executor``
    The persistent pre-forked :class:`PoolExecutor` behind the sharded
    and parallel engines: tasks on all cores through shared-memory
    slabs, with heartbeats and crash replacement.
``repro.serve.cache``
    The content-addressed :class:`ResultCache` keyed by
    :func:`graph_fingerprint`.
``repro.serve.metrics``
    Counters, occupancy and latency percentiles with JSON snapshots.
``repro.serve.server``
    The :class:`Server` tying it all together, and :func:`serve_many`.
``repro.serve.protocol``
    The compact length-prefixed binary wire codec (plus the JSON-lines
    convenience dialect): zero-copy encode/decode of edge payloads and
    chunked label streams.
``repro.serve.gateway``
    The asyncio TCP front door: :class:`Gateway` /
    :class:`GatewayHandle` / :func:`run_gateway` speaking the binary
    protocol, JSON lines and a minimal HTTP surface in front of a
    :class:`Server`.

Network quickstart::

    from repro.serve import Server, start_gateway

    with Server(workers=4) as server:
        with start_gateway(server, port=7421) as gw:
            print("listening on", gw.address)
            ...

or from the shell: ``python -m repro serve --listen 127.0.0.1:7421``.
"""

from repro.serve.cache import ResultCache, graph_fingerprint
from repro.serve.executor import PoolExecutor
from repro.serve.gateway import (
    Gateway,
    GatewayConfig,
    GatewayHandle,
    run_gateway,
    start_gateway,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.request import (
    CCRequest,
    CCResponse,
    QueueFull,
    RequestStatus,
    ResultHandle,
    ServeError,
    ServerClosed,
)
from repro.serve.scheduler import BatchPlanner
from repro.serve.server import Server, ServerConfig, serve_many
from repro.serve.workers import WorkerDied

__all__ = [
    "BatchPlanner",
    "CCRequest",
    "CCResponse",
    "Gateway",
    "GatewayConfig",
    "GatewayHandle",
    "PoolExecutor",
    "QueueFull",
    "RequestStatus",
    "ResultCache",
    "ResultHandle",
    "ServeError",
    "ServeMetrics",
    "Server",
    "ServerClosed",
    "ServerConfig",
    "WorkerDied",
    "graph_fingerprint",
    "run_gateway",
    "serve_many",
    "start_gateway",
]
