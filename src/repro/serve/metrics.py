"""Serve-side metrics: counters, latency percentiles, JSON snapshots.

One :class:`ServeMetrics` instance aggregates everything the operator of
a :class:`~repro.serve.server.Server` needs to see at a glance:

* monotonic counters (submitted / completed / shed / timed-out /
  deadline-missed / retries / worker restarts / batches dispatched);
* batch occupancy (how full the dynamic batches actually are -- the
  whole point of micro-batching);
* sliding-window latency reservoirs for time-in-queue, service time and
  end-to-end latency, summarised as p50/p95/p99/mean/max;
* throughput over the lifetime of the window;
* wire-level gauges and counters for the socket gateway: open
  connections, bytes and frames in/out, protocol errors, and an
  accept-to-admit latency reservoir (frame fully received to admission
  decided -- the gateway's own overhead, separate from solve latency).

Everything is thread-safe (one lock, updated on the worker path) and
cheap: recording a completion is a few counter bumps plus three deque
appends.  :meth:`ServeMetrics.snapshot` renders a plain-``dict`` /
JSON-ready view; gauges that live in the server (queue depth, in-flight
batches) are merged in by the caller so this module stays free of server
internals.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional, Sequence, Tuple

import numpy as np

#: Samples kept per latency reservoir (a sliding window of the most
#: recent completions; enough for stable tail percentiles).
RESERVOIR_SIZE = 8192

#: Percentiles reported for every latency series.
PERCENTILES = (50.0, 95.0, 99.0)


def _summary(samples: Deque[float]) -> Dict[str, Optional[float]]:
    """p50/p95/p99/mean/max (milliseconds) of one reservoir.

    With zero samples every statistic is ``None`` (JSON ``null``), never
    ``0.0``: a dashboard must be able to tell "no traffic yet" apart
    from "everything resolved instantly".
    """
    if not samples:
        out: Dict[str, Optional[float]] = {"count": 0}
        for p in PERCENTILES:
            out[f"p{p:g}_ms"] = None
        out["mean_ms"] = None
        out["max_ms"] = None
        return out
    arr = np.fromiter(samples, dtype=np.float64) * 1e3
    out: Dict[str, float] = {"count": int(arr.size)}
    for p, value in zip(PERCENTILES, np.percentile(arr, PERCENTILES)):
        out[f"p{p:g}_ms"] = round(float(value), 4)
    out["mean_ms"] = round(float(arr.mean()), 4)
    out["max_ms"] = round(float(arr.max()), 4)
    return out


class ServeMetrics:
    """Aggregated serve metrics; see module docstring.

    All ``record_*`` methods are safe to call from any thread.
    """

    def __init__(self, reservoir_size: int = RESERVOIR_SIZE):
        self._lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self._started_wall = time.time()
        self.submitted = 0
        self.admitted = 0
        self.completed = 0
        self.shed = 0
        self.timed_out = 0
        self.cancelled = 0
        self.errors = 0
        self.deadline_misses = 0
        self.retries = 0
        self.batches = 0
        self._occupancy_sum = 0
        self._occupancy_max = 0
        self._queue_s: Deque[float] = deque(maxlen=reservoir_size)
        self._service_s: Deque[float] = deque(maxlen=reservoir_size)
        self._latency_s: Deque[float] = deque(maxlen=reservoir_size)
        # wire-level (socket gateway) state; stays all-zero for a
        # purely in-process server
        self.wire_connections_open = 0
        self.wire_connections_total = 0
        self.wire_bytes_in = 0
        self.wire_bytes_out = 0
        self.wire_frames_in = 0
        self.wire_frames_out = 0
        self.wire_protocol_errors = 0
        self._admit_s: Deque[float] = deque(maxlen=reservoir_size)

    # -- recording -----------------------------------------------------
    def record_submitted(self, admitted: bool) -> None:
        with self._lock:
            self.submitted += 1
            if admitted:
                self.admitted += 1
            else:
                self.shed += 1

    def record_batch(self, occupancy: int) -> None:
        with self._lock:
            self.batches += 1
            self._occupancy_sum += occupancy
            self._occupancy_max = max(self._occupancy_max, occupancy)

    def record_completion(
        self,
        queued_seconds: float,
        service_seconds: float,
        latency_seconds: float,
        deadline_missed: bool = False,
    ) -> None:
        with self._lock:
            self.completed += 1
            if deadline_missed:
                self.deadline_misses += 1
            self._queue_s.append(queued_seconds)
            self._service_s.append(service_seconds)
            self._latency_s.append(latency_seconds)

    def record_completions(
        self,
        samples: Sequence[Tuple[float, float, float, bool]],
    ) -> None:
        """Batch form of :meth:`record_completion`: one lock acquisition
        for a whole coalesced/stacked flush.  Each sample is
        ``(queued_seconds, service_seconds, latency_seconds, missed)``.
        """
        with self._lock:
            self.completed += len(samples)
            for queued, service, latency, missed in samples:
                if missed:
                    self.deadline_misses += 1
                self._queue_s.append(queued)
                self._service_s.append(service)
                self._latency_s.append(latency)

    def record_timeout(self) -> None:
        with self._lock:
            self.timed_out += 1
            self.deadline_misses += 1

    def record_cancelled(self) -> None:
        with self._lock:
            self.cancelled += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_retry(self) -> None:
        with self._lock:
            self.retries += 1

    # -- wire (socket gateway) -----------------------------------------
    def record_connection_open(self) -> None:
        with self._lock:
            self.wire_connections_open += 1
            self.wire_connections_total += 1

    def record_connection_close(self) -> None:
        with self._lock:
            self.wire_connections_open -= 1

    def record_wire_in(self, nbytes: int, frames: int = 1) -> None:
        """Bytes (and decoded frames) received on gateway sockets."""
        with self._lock:
            self.wire_bytes_in += nbytes
            self.wire_frames_in += frames

    def record_wire_out(self, nbytes: int, frames: int = 1) -> None:
        """Bytes (and frames) written back to gateway sockets."""
        with self._lock:
            self.wire_bytes_out += nbytes
            self.wire_frames_out += frames

    def record_wire_error(self) -> None:
        """A malformed / rejected frame (bad magic, oversized, ...)."""
        with self._lock:
            self.wire_protocol_errors += 1

    def record_admit(self, seconds: float) -> None:
        """Accept-to-admit: request fully received -> admission decided."""
        with self._lock:
            self._admit_s.append(seconds)

    # -- reporting -----------------------------------------------------
    def snapshot(self, gauges: Optional[Dict[str, float]] = None) -> Dict:
        """A JSON-ready view of every counter, rate and percentile.

        ``gauges`` (e.g. current queue depth) are merged under a
        ``"gauges"`` key; the caller owns their meaning.
        """
        with self._lock:
            elapsed = max(time.monotonic() - self._started_monotonic, 1e-9)
            snap: Dict = {
                "uptime_seconds": round(elapsed, 3),
                "started_at_unix": round(self._started_wall, 3),
                "counters": {
                    "submitted": self.submitted,
                    "admitted": self.admitted,
                    "completed": self.completed,
                    "shed": self.shed,
                    "timed_out": self.timed_out,
                    "cancelled": self.cancelled,
                    "errors": self.errors,
                    "deadline_misses": self.deadline_misses,
                    "retries": self.retries,
                    "batches": self.batches,
                },
                "throughput_rps": round(self.completed / elapsed, 3),
                # mean is null (not 0.0) before the first batch: "no
                # batches yet" and "empty batches" must not look alike
                "batch_occupancy": {
                    "mean": round(self._occupancy_sum / self.batches, 3)
                    if self.batches else None,
                    "max": self._occupancy_max,
                },
                "queue_time": _summary(self._queue_s),
                "service_time": _summary(self._service_s),
                "latency": _summary(self._latency_s),
                "wire": {
                    "open_connections": self.wire_connections_open,
                    "connections_total": self.wire_connections_total,
                    "bytes_in": self.wire_bytes_in,
                    "bytes_out": self.wire_bytes_out,
                    "frames_in": self.wire_frames_in,
                    "frames_out": self.wire_frames_out,
                    "protocol_errors": self.wire_protocol_errors,
                    "accept_to_admit": _summary(self._admit_s),
                },
            }
        if gauges:
            snap["gauges"] = dict(gauges)
        return snap

    def to_json(self, gauges: Optional[Dict[str, float]] = None,
                indent: int = 2) -> str:
        """The snapshot serialised as JSON."""
        return json.dumps(self.snapshot(gauges), indent=indent, sort_keys=True)
