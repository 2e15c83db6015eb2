"""Batch planning: buckets, flush triggers and engine choice.

The scheduler's job is to turn a FIFO stream of independent requests
into batches that one *coalesced* contracting run serves
(:func:`~repro.serve.workers.solve_coalesced`: one sparse solve over the
members' disjoint union, so the engine's per-level NumPy dispatch is
paid once per batch instead of once per request).  This module holds the
*decisions* as plain, thread-free logic (the
:class:`~repro.serve.server.Server` owns the threads):

* **Bucketing** -- dense (adjacency) and sparse (edge-list) requests
  are grouped by kind and node count, padded up to the next power of
  two so near-miss sizes share a flush.  The union keeps every member
  at its own size, so nothing is padded at solve time and no dense
  graph is stacked.
* **Batch-size cap** -- one flush holds at most :data:`COALESCE_UNITS`
  of union work (``n + 2m`` summed over its members) and at most
  :data:`MAX_BATCH` members.
* **Flush triggers** -- a bucket is ready when it is full, when its
  oldest member has been held ``max_wait``, when it holds a member
  with a deadline, or on drain.  Each idle worker of the server asks
  :meth:`BatchPlanner.take_ready` for one flush, the most urgent ready
  bucket (tightest deadline, then oldest member), and otherwise waits
  out :meth:`BatchPlanner.next_due`.  With the default ``max_wait=0``
  any queued bucket is ready as soon as a worker is free; while every
  worker is busy, requests stay here and keep coalescing up to the
  batch-size cap (the adaptive batching of Clipper, Crankshaw et al.,
  NSDI 2017).  A positive ``max_wait`` is an opt-in minimum hold for
  requests without a deadline; a request with one is never held, so
  no flush-time prediction is needed to keep it on time.
* **Engine choice** -- :func:`flush_engine`: a flush with more than one
  member, dense or sparse, runs coalesced ``"contracting"``; a single
  request goes through the dispatcher's rule table
  (:func:`~repro.core.dispatch.choose_engine`) on its own ``(n, m)``,
  under the same host-probed model as ``engine="auto"``, which sends a
  request too big for memory to the sharded engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.api import _graph_shape, _probed_cost_model
from repro.core.dispatch import choose_engine
from repro.serve.request import CCRequest, ResultHandle

#: Hard occupancy cap of one flush.
MAX_BATCH = 512

#: Work budget (``n + 2m`` summed over members) of one coalesced flush.
#: The contracting engine's level count grows with the union's node
#: count, so past a few tens of thousands of units a bigger union costs
#: more per member than it amortises -- tuned to that knee, not to
#: memory.
COALESCE_UNITS = 32_768


@dataclass(slots=True)
class PendingRequest:
    """A queued request plus the bookkeeping the scheduler needs."""

    handle: ResultHandle
    n: int
    sparse: bool
    submitted_at: float
    deadline_at: Optional[float]  # absolute monotonic, None = unbounded
    attempts: int = 0
    m_known: Optional[int] = None  # edge count; None = not yet measured
    fingerprint: Optional[str] = None  # content address, computed lazily
    cache_unverified: bool = False  # hit awaiting verified-on-first-hit

    @property
    def request(self) -> CCRequest:
        return self.handle.request

    @property
    def m(self) -> int:
        """Edge count, measured lazily.

        Counting the edges of a dense adjacency is an O(n^2) reduction;
        doing it on the submission hot path would cost more than serving
        the request.  Edge-list requests carry it for free; dense ones
        pay only when something (bucket units, solo dispatch) actually
        asks.
        """
        if self.m_known is None:
            self.m_known = _graph_shape(self.request.graph)[1]
        return self.m_known

    def slack(self, now: float) -> float:
        """Remaining latency budget in seconds (``inf`` when unbounded)."""
        if self.deadline_at is None:
            return float("inf")
        return self.deadline_at - now

    def sort_key(self, now: float) -> Tuple[float, int, float]:
        """Urgency ordering: tightest slack, then priority, then age."""
        return (self.slack(now), self.request.priority, self.submitted_at)


@dataclass(frozen=True)
class BucketKey:
    """Identity of one batching bucket.

    ``kind`` is ``"dense"`` (adjacency requests) or ``"sparse"``
    (edge-list requests); ``size`` is the node count padded up to a
    power of two.
    """

    kind: str
    size: int


def flush_engine(batch: List[PendingRequest]) -> str:
    """Engine for one flush: ``"contracting"`` over the members'
    disjoint union when there is more than one member, else the
    dispatcher's rule table on the single request's own ``(n, m)``
    under the model ``engine="auto"`` uses."""
    if batch[0].n == 0:
        return "vectorized"  # degenerate; resolved without an engine
    if len(batch) > 1:
        return "contracting"
    pending = batch[0]
    return choose_engine(pending.n, pending.m, model=_probed_cost_model())


@dataclass
class Bucket:
    """The queued members of one bucket plus cached aggregates.

    The aggregates (work units, oldest arrival, tightest deadline) are
    maintained incrementally on admit and recomputed only after a flush
    removes members -- idle workers consult them on every wake-up, so
    they must not cost a scan of the members.
    """

    key: BucketKey
    members: List[PendingRequest] = field(default_factory=list)
    units: int = 0  # sum of n + 2m over members
    oldest: float = float("inf")  # min submitted_at
    min_deadline: float = float("inf")  # min absolute deadline
    needs_sort: bool = False  # any member with a deadline or priority

    def admit(self, pending: PendingRequest) -> None:
        self.members.append(pending)
        self.units += pending.n + 2 * pending.m
        if pending.submitted_at < self.oldest:
            self.oldest = pending.submitted_at
        if pending.deadline_at is not None:
            if pending.deadline_at < self.min_deadline:
                self.min_deadline = pending.deadline_at
            self.needs_sort = True
        elif pending.request.priority:
            self.needs_sort = True

    def refresh(self) -> None:
        """Recompute the aggregates after members were removed."""
        self.units = sum(p.n + 2 * p.m for p in self.members)
        self.oldest = min(
            (p.submitted_at for p in self.members), default=float("inf")
        )
        self.min_deadline = min(
            (p.deadline_at for p in self.members
             if p.deadline_at is not None),
            default=float("inf"),
        )


class BatchPlanner:
    """Pure batching policy; see the module docstring.

    Parameters
    ----------
    max_wait:
        Opt-in minimum hold in seconds: a bucket that is neither full
        nor holding a member with a deadline is not flushed before its
        oldest member has been held this long, even with a worker free.
        The default 0 dispatches as soon as a worker is free.
    """

    def __init__(self, max_wait: float = 0.0):
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.max_wait = max_wait
        self._buckets: Dict[Tuple[bool, int], Bucket] = {}
        self._queued = 0

    # -- bucket membership --------------------------------------------
    @staticmethod
    def _units_cap(units: int, count: int) -> int:
        """Occupancy cap for one flush of a bucket holding ``count``
        members and ``units`` of union work (``n + 2m`` per member): at
        most :data:`COALESCE_UNITS` of work, so one flush stays at the
        knee where amortisation pays."""
        mean_units = units / count if count else 1.0
        fit = int(COALESCE_UNITS // max(mean_units, 1.0))
        return max(1, min(MAX_BATCH, fit))

    def add(self, pending: PendingRequest) -> bool:
        """File one admitted request into its bucket.

        Returns ``True`` when the bucket reached its flush cap -- the
        caller should wake an idle worker rather than wait out an
        opt-in hold.

        This is the per-submission hot path: buckets live under plain
        ``(sparse, size)`` tuple keys and the full check is arithmetic
        on the cached aggregates, so no :class:`BucketKey` is built and
        no cap recomputed per arrival.
        """
        size = pending.n
        if size > 1:
            size = 1 << (size - 1).bit_length()  # next power of two
        sparse = pending.sparse
        bucket = self._buckets.get((sparse, size))
        if bucket is None:
            bucket = Bucket(BucketKey("sparse" if sparse else "dense", size))
            self._buckets[(sparse, size)] = bucket
        self._queued += 1
        bucket.admit(pending)
        # unit-wise form of ``count >= _units_cap(units, count)`` (one
        # more coalesced flush is paid for), saving the division on
        # every arrival
        return (bucket.units >= COALESCE_UNITS
                or len(bucket.members) >= MAX_BATCH)

    def queued_count(self) -> int:
        return self._queued

    def drain_all(self) -> List[PendingRequest]:
        """Remove and return everything still queued (server shutdown)."""
        out = [p for b in self._buckets.values() for p in b.members]
        self._buckets.clear()
        self._queued = 0
        return out

    def take_expired(self, now: float) -> List[PendingRequest]:
        """Remove and return the held members whose deadline has passed
        (``deadline_at <= now``), so they stop taking queue slots.

        Buckets whose cached tightest deadline is still ahead are
        skipped without a scan of their members.
        """
        expired: List[PendingRequest] = []
        for key, bucket in list(self._buckets.items()):
            if bucket.min_deadline > now:
                continue
            live = []
            for pending in bucket.members:
                if pending.deadline_at is not None and pending.deadline_at <= now:
                    expired.append(pending)
                else:
                    live.append(pending)
            bucket.members = live
            if live:
                bucket.refresh()
            else:
                del self._buckets[key]
        self._queued -= len(expired)
        return expired

    # -- flush policy --------------------------------------------------
    def _most_urgent_ready(
        self, now: float, force: bool
    ) -> Optional[Tuple[Tuple[bool, int], Bucket, int]]:
        """The most urgent bucket that may flush now, with its dict key
        and cap: tightest deadline first, then oldest member."""
        best = None
        for key, bucket in self._buckets.items():
            cap = self._units_cap(bucket.units, len(bucket.members))
            ready = (
                force
                or len(bucket.members) >= cap
                or now - bucket.oldest >= self.max_wait
                or bucket.min_deadline != float("inf")
            )
            if ready and (best is None or (bucket.min_deadline, bucket.oldest)
                          < (best[1].min_deadline, best[1].oldest)):
                best = (key, bucket, cap)
        return best

    def take_ready(
        self,
        now: Optional[float] = None,
        force: bool = False,
        free: Optional[int] = None,
    ) -> List[List[PendingRequest]]:
        """Remove and return the batches to dispatch now.

        ``free`` caps how many flushes are handed out (``None`` =
        unbounded; an idle worker asks for 1), each from the most urgent
        ready bucket (tightest deadline, then oldest member).  A bucket
        is ready when full, when its oldest member has been held
        ``max_wait`` (at once by default), or when it holds a member with
        a deadline; members are packed most-urgent-first when the bucket
        overflows its cap.  ``force=True`` (drain) makes every bucket
        ready.

        This runs on every worker wake-up: the no-flush path must stay
        O(buckets), using only the cached bucket aggregates.
        """
        now = time.monotonic() if now is None else now
        flushes: List[List[PendingRequest]] = []
        while free is None or len(flushes) < free:
            pick = self._most_urgent_ready(now, force)
            if pick is None:
                break
            key, bucket, cap = pick
            if bucket.needs_sort:
                # without deadlines/priorities, arrival order already
                # IS the urgency order -- skip the O(B log B) sort
                bucket.members.sort(key=lambda p: p.sort_key(now))
            flushes.append(bucket.members[:cap])
            del bucket.members[:cap]
            self._queued -= len(flushes[-1])
            if not bucket.members:
                del self._buckets[key]
            else:
                bucket.refresh()
        return flushes

    def next_due(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the earliest time-based flush trigger (0 when a
        bucket holds a member with a deadline), or ``None`` when nothing
        is queued: an idle worker then waits for an arrival instead of
        polling."""
        now = time.monotonic() if now is None else now
        due = None
        for bucket in self._buckets.values():
            if bucket.min_deadline != float("inf"):
                return 0.0
            window = self.max_wait - (now - bucket.oldest)
            due = window if due is None else min(due, window)
        if due is None:
            return None
        return max(due, 0.0)
