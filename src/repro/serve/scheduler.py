"""Batch planning: buckets, flush triggers and engine choice.

The scheduler's job is to turn a FIFO stream of independent requests
into batches that one *coalesced* contracting run serves
(:func:`~repro.serve.workers.solve_coalesced`: one sparse solve over the
members' disjoint union, so the engine's per-level NumPy dispatch is
paid once per batch instead of once per request).  This module holds the
*decisions* as plain, thread-free logic (the
:class:`~repro.serve.server.Server` owns the threads):

* **Bucketing** -- dense (adjacency) and sparse (edge-list) requests
  are grouped by kind and node count, optionally padded up to the next
  power of two (:attr:`ServerConfig.pad_buckets`) so near-miss sizes
  share a flush.  The union keeps every member at its own size, so
  nothing is padded at solve time and no dense graph is stacked.
* **Batch-size cap** -- one flush holds at most ``coalesce_units`` of
  union work (``n + 2m`` summed over its members), clamped by
  ``max_batch``.
* **Flush triggers** -- a bucket flushes when it is full, when its
  oldest member has waited ``max_wait`` seconds (the batching window),
  or under *deadline pressure*: when some member's remaining budget no
  longer covers the estimated flush time plus margin, waiting any
  longer would turn a hit into a miss.
* **Engine choice** -- a flush with more than one member, dense or
  sparse, runs coalesced ``"contracting"``; a single request goes
  through the dispatcher's rule table
  (:func:`~repro.core.dispatch.choose_engine`), which sends a request
  too big for memory to the sharded engine.  The flush estimate behind
  deadline pressure and :meth:`BatchPlanner.pool_pays` is the union's
  ``n + 2m`` units times
  :attr:`~repro.core.dispatch.CostModel.contracting_unit` plus one
  call's :attr:`~repro.core.dispatch.CostModel.request_overhead`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.api import _graph_shape
from repro.core.dispatch import CostModel, DEFAULT_COST_MODEL, choose_engine
from repro.serve.request import CCRequest, ResultHandle


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
        pay only when something (solo dispatch, a pricing sample)
        actually asks.
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
    (edge-list requests); ``size`` is the -- possibly padded -- node
    count.
    """

    kind: str
    size: int


def sample_mean_m(members: List[PendingRequest], k: int = 4) -> float:
    """Mean edge count of (a sample of) one bucket's members.

    Sampling keeps the lazy :attr:`PendingRequest.m` measurement O(k)
    per flush instead of O(B) -- same-bucket members have the same node
    count, so a small sample prices the batch well enough.
    """
    if not members:
        return 0.0
    if len(members) > k:
        members = members[:: max(1, len(members) // k)][:k]
    return sum(p.m for p in members) / len(members)


@dataclass
class Bucket:
    """The queued members of one bucket plus cached aggregates.

    The aggregates (work units, oldest arrival, tightest deadline) are
    maintained incrementally on admit and recomputed only after a flush
    removes members -- the scheduler consults them on every wake-up, so
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
    max_batch:
        Hard occupancy cap per flush.
    max_wait:
        Batching window in seconds: no admitted request waits longer
        than this for co-batchable traffic before its bucket flushes.
    deadline_margin:
        Safety margin (seconds) subtracted from a request's slack when
        testing deadline pressure.
    pad_buckets:
        Pad node counts up to powers of two so near-miss sizes share a
        bucket.
    coalesce_units:
        Work budget (``n + 2m`` summed over members) of one coalesced
        flush.  The contracting engine's level count grows with the
        union's node count, so past a few tens of thousands of units a
        bigger union costs more per member than it amortises -- the
        default is tuned to that knee, not to memory.
    model:
        The cost model behind the flush estimate (deadline pressure,
        :meth:`pool_pays`) and a single request's rule-table dispatch.
    """

    def __init__(
        self,
        max_batch: int = 512,
        max_wait: float = 0.002,
        deadline_margin: float = 0.005,
        pad_buckets: bool = True,
        coalesce_units: int = 32_768,
        model: Optional[CostModel] = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if coalesce_units < 1:
            raise ValueError(
                f"coalesce_units must be >= 1, got {coalesce_units}"
            )
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.deadline_margin = deadline_margin
        self.pad_buckets = pad_buckets
        self.coalesce_units = coalesce_units
        self.model = model or DEFAULT_COST_MODEL
        self._buckets: Dict[Tuple[bool, int], Bucket] = {}
        self._queued = 0

    # -- bucket membership --------------------------------------------
    def key_for(self, pending: PendingRequest) -> BucketKey:
        size = pending.n
        if self.pad_buckets and size > 1:
            # inline next_power_of_two: this runs once per submit
            size = 1 << (size - 1).bit_length()
        return BucketKey("sparse" if pending.sparse else "dense", size)

    def bucket_cap(self, key: BucketKey,
                   members: Optional[List[PendingRequest]] = None) -> int:
        """Occupancy cap for one flush of the bucket ``key``: at most
        ``coalesce_units`` of union work (``n + 2m`` per member,
        measured over the actual members) so one flush stays at the
        knee where amortisation pays."""
        if not members:
            return self.max_batch
        units = sum(p.n + 2 * p.m for p in members)
        return self._units_cap(units, len(members))

    def _units_cap(self, units: int, count: int) -> int:
        mean_units = units / count if count else 1.0
        fit = int(self.coalesce_units // max(mean_units, 1.0))
        return max(1, min(self.max_batch, fit))

    def add(self, pending: PendingRequest) -> bool:
        """File one admitted request into its bucket.

        Returns ``True`` when the bucket reached its flush cap -- the
        caller should wake the scheduler rather than wait the window
        out.

        This is the per-submission hot path: buckets live under plain
        ``(sparse, size)`` tuple keys and the full check is arithmetic
        on the cached aggregates, so no :class:`BucketKey` is built and
        no cap recomputed per arrival.
        """
        size = pending.n
        if self.pad_buckets and size > 1:
            size = 1 << (size - 1).bit_length()
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
        return (bucket.units >= self.coalesce_units
                or len(bucket.members) >= self.max_batch)

    def queued_count(self) -> int:
        return self._queued

    def drain_all(self) -> List[PendingRequest]:
        """Remove and return everything still queued (server shutdown)."""
        out = [p for b in self._buckets.values() for p in b.members]
        self._buckets.clear()
        self._queued = 0
        return out

    # -- estimates and engine choice ---------------------------------
    def estimate_batch_seconds(self, key: BucketKey, occupancy: int,
                               mean_m: float) -> float:
        """Estimated wall seconds to serve one flush of this bucket: the
        union's ``n + 2m`` units of contraction plus one call's fixed
        overhead."""
        if key.size == 0:
            return 0.0
        units = max(occupancy, 1) * (key.size + 2 * max(mean_m, 0.0))
        return (units * self.model.contracting_unit
                + self.model.request_overhead)

    def pool_pays(self, key: BucketKey, occupancy: int,
                  mean_m: float) -> bool:
        """Whether shipping one flush to the process pool beats inline.

        A pool dispatch adds one measured round trip
        (:attr:`~repro.core.dispatch.CostModel.pool_dispatch_overhead`)
        but runs the batch on another core.  With ``W`` workers the
        batch costs ``c/W + o`` instead of ``c``, which wins exactly
        when ``c`` dominates the overhead -- the factor-2 test below is
        that break-even for the worst useful case ``W = 2``, so small
        flushes stay inline on any pool size.
        """
        if key.size == 0:
            return False
        est = self.estimate_batch_seconds(key, occupancy, mean_m)
        return est >= 2.0 * self.model.pool_dispatch_overhead

    def choose_batch_engine(self, key: BucketKey, occupancy: int,
                            mean_m: float) -> str:
        """Engine for one flush: ``"contracting"`` over the members'
        disjoint union when there is more than one member, else the
        dispatcher's rule table for the single request."""
        if key.size == 0:
            return "vectorized"  # degenerate; resolved without an engine
        if occupancy > 1:
            return "contracting"
        return choose_engine(key.size, max(int(mean_m), 0), model=self.model)

    # -- flush policy --------------------------------------------------
    def _pressure(self, bucket: Bucket, now: float, cap: int) -> bool:
        if bucket.min_deadline == float("inf"):
            return False
        occupancy = min(len(bucket.members), cap)
        mean_m = sample_mean_m(bucket.members)
        est = self.estimate_batch_seconds(bucket.key, occupancy, mean_m)
        return bucket.min_deadline - now <= est + self.deadline_margin

    def take_ready(
        self, now: Optional[float] = None, force: bool = False
    ) -> List[List[PendingRequest]]:
        """Remove and return every batch that should flush now.

        A bucket flushes when full, when its oldest member has aged past
        the batching window, or under deadline pressure; members are
        packed most-urgent-first when the bucket overflows its cap.
        ``force=True`` (drain) flushes everything regardless of triggers.

        This runs on every scheduler wake-up: the no-flush path must
        stay O(buckets), using only the cached bucket aggregates.
        """
        now = time.monotonic() if now is None else now
        flushes: List[List[PendingRequest]] = []
        for key in list(self._buckets):
            bucket = self._buckets[key]
            cap = self._units_cap(bucket.units, len(bucket.members))
            timed_out = (
                force
                or now - bucket.oldest >= self.max_wait
                or self._pressure(bucket, now, cap)
            )
            if len(bucket.members) < cap and not timed_out:
                continue
            if bucket.needs_sort:
                # without deadlines/priorities, arrival order already
                # IS the urgency order -- skip the O(B log B) sort
                bucket.members.sort(key=lambda p: p.sort_key(now))
            while len(bucket.members) >= cap:
                flushes.append(bucket.members[:cap])
                del bucket.members[:cap]
                self._queued -= cap
            if bucket.members and timed_out:
                flushes.append(bucket.members[:])
                self._queued -= len(bucket.members)
                bucket.members.clear()
            if not bucket.members:
                del self._buckets[key]
            else:
                bucket.refresh()
        return flushes

    def next_due(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the earliest time-based flush trigger, or
        ``None`` when nothing is queued (pure event-driven wait)."""
        now = time.monotonic() if now is None else now
        due = None
        for bucket in self._buckets.values():
            window = self.max_wait - (now - bucket.oldest)
            if bucket.min_deadline != float("inf"):
                window = min(
                    window, bucket.min_deadline - now - self.deadline_margin
                )
            due = window if due is None else min(due, window)
        if due is None:
            return None
        return max(due, 0.0)
