"""Tests for the thread-free batching policy (BatchPlanner)."""

import numpy as np
import pytest

import repro.core.api as api
import repro.serve.scheduler as scheduler
from repro.core.dispatch import CostModel
from repro.hirschberg.edgelist import random_edge_list
from repro.serve.request import CCRequest, ResultHandle
from repro.serve.scheduler import (
    BatchPlanner,
    BucketKey,
    PendingRequest,
    flush_engine,
)


def _pending(n=8, sparse=True, m=16, submitted_at=0.0, deadline_at=None,
             priority=0, graph=None):
    if graph is None:
        graph = (random_edge_list(n, m, seed=0) if sparse
                 else np.zeros((n, n), dtype=np.int8))
    handle = ResultHandle(CCRequest(graph=graph, priority=priority))
    return PendingRequest(
        handle=handle, n=n, sparse=sparse, submitted_at=submitted_at,
        deadline_at=deadline_at, m_known=m if sparse else None,
    )


@pytest.fixture()
def units80(monkeypatch):
    """A flush holds 80 units: two n = 8, m = 16 members."""
    monkeypatch.setattr(scheduler, "COALESCE_UNITS", 80)


def _key(pending):
    planner = BatchPlanner()
    planner.add(pending)
    (bucket,) = planner._buckets.values()
    return bucket.key


def _flush_sizes(members):
    planner = BatchPlanner()
    for p in members:
        planner.add(p)
    return [len(b) for b in planner.take_ready(force=True)]


class TestPendingRequest:
    def test_lazy_edge_count_for_dense(self):
        g = np.zeros((4, 4), dtype=np.int8)
        g[0, 1] = g[1, 0] = 1
        p = _pending(n=4, sparse=False, graph=g)
        assert p.m_known is None  # not measured at admission
        assert p.m == 1
        assert p.m_known == 1  # memoised

    def test_slack_unbounded(self):
        assert _pending().slack(1e9) == float("inf")

    def test_slack_counts_down(self):
        p = _pending(deadline_at=10.0)
        assert p.slack(4.0) == pytest.approx(6.0)

    def test_sort_key_urgency_order(self):
        tight = _pending(deadline_at=5.0, submitted_at=1.0)
        loose = _pending(deadline_at=50.0, submitted_at=0.0)
        assert tight.sort_key(0.0) < loose.sort_key(0.0)


class TestBucketing:
    def test_dense_padded_to_power_of_two(self):
        assert _key(_pending(n=12, sparse=False)) == BucketKey("dense", 16)

    def test_padding_preserves_exact_powers(self):
        assert _key(_pending(n=16, sparse=False)).size == 16

    def test_sparse_and_dense_never_share_buckets(self):
        planner = BatchPlanner()
        planner.add(_pending(n=8, sparse=True))
        planner.add(_pending(n=8, sparse=False))
        keys = {b.key for b in planner._buckets.values()}
        assert keys == {BucketKey("sparse", 8), BucketKey("dense", 8)}

    def test_sparse_cap_respects_coalesce_units(self, monkeypatch):
        monkeypatch.setattr(scheduler, "COALESCE_UNITS", 100)
        members = [_pending(n=8, m=16) for _ in range(10)]  # 40 units each
        assert _flush_sizes(members) == [2] * 5  # 100 // 40

    def test_sparse_cap_never_below_one(self, monkeypatch):
        monkeypatch.setattr(scheduler, "COALESCE_UNITS", 1)
        assert _flush_sizes([_pending(n=1000, m=2000)] * 2) == [1, 1]

    def test_dense_cap_respects_coalesce_units(self, monkeypatch):
        monkeypatch.setattr(scheduler, "COALESCE_UNITS", 1_000)
        g = np.zeros((16, 16), dtype=np.int8)
        g[0, 1] = g[1, 0] = g[2, 3] = g[3, 2] = 1  # 16 + 2 * 2 units
        members = [_pending(n=16, sparse=False, graph=g) for _ in range(60)]
        assert _flush_sizes(members) == [50, 10]

    def test_max_batch_clamps(self, monkeypatch):
        monkeypatch.setattr(scheduler, "MAX_BATCH", 3)
        members = [_pending(n=2, m=1) for _ in range(10)]
        assert _flush_sizes(members) == [3, 3, 3, 1]


class TestFlushTriggers:
    def test_no_flush_inside_window(self):
        planner = BatchPlanner(max_wait=10.0)
        planner.add(_pending(submitted_at=100.0))
        assert planner.take_ready(now=100.001) == []
        assert planner.queued_count() == 1

    def test_window_timeout_flushes(self):
        planner = BatchPlanner(max_wait=0.002)
        planner.add(_pending(submitted_at=100.0))
        flushes = planner.take_ready(now=100.5)
        assert [len(b) for b in flushes] == [1]
        assert planner.queued_count() == 0

    def test_full_bucket_flushes_immediately(self, units80):
        planner = BatchPlanner(max_wait=10.0)
        # 40 units each -> cap 2
        assert not planner.add(_pending(n=8, m=16, submitted_at=100.0))
        assert planner.add(_pending(n=8, m=16, submitted_at=100.0))
        flushes = planner.take_ready(now=100.0)
        assert [len(b) for b in flushes] == [2]

    def test_deadline_pressure_flushes_early(self):
        planner = BatchPlanner(max_wait=10.0)
        planner.add(_pending(submitted_at=100.0, deadline_at=100.004))
        # window far from closing, but the deadline is about to pass
        flushes = planner.take_ready(now=100.0)
        assert [len(b) for b in flushes] == [1]

    def test_a_member_with_a_deadline_is_not_held(self):
        """Under an opt-in hold, a bucket holding a member with a
        deadline is ready at once, however far away the deadline is."""
        planner = BatchPlanner(max_wait=10.0)
        planner.add(_pending(submitted_at=100.0))
        assert planner.next_due(now=100.0) == pytest.approx(10.0)
        planner.add(_pending(submitted_at=100.0, deadline_at=101.0))
        assert planner.next_due(now=100.0) == 0.0
        flushes = planner.take_ready(now=100.0)
        assert [len(b) for b in flushes] == [2]

    def test_force_flushes_everything(self):
        planner = BatchPlanner(max_wait=10.0)
        for _ in range(3):
            planner.add(_pending(submitted_at=100.0))
        flushes = planner.take_ready(now=100.0, force=True)
        assert sum(len(b) for b in flushes) == 3
        assert planner.queued_count() == 0

    def test_urgent_members_packed_first_on_overflow(self, units80):
        planner = BatchPlanner(max_wait=10.0)
        loose = _pending(n=8, m=16, submitted_at=100.0, deadline_at=200.0)
        tight = _pending(n=8, m=16, submitted_at=100.0, deadline_at=101.0)
        mid = _pending(n=8, m=16, submitted_at=100.0, deadline_at=150.0)
        for p in (loose, tight, mid):
            planner.add(p)
        flushes = planner.take_ready(now=100.0, force=True)
        first = flushes[0]
        assert first[0] is tight

    def test_fifo_without_deadlines_skips_sort(self):
        planner = BatchPlanner(max_wait=10.0)
        a = _pending(submitted_at=100.0)
        b = _pending(submitted_at=100.1)
        planner.add(a)
        planner.add(b)
        flushes = planner.take_ready(now=200.0)
        assert flushes[0][0] is a  # arrival order preserved

    def test_remainder_requeued_when_not_timed_out(self, units80):
        planner = BatchPlanner(max_wait=10.0)
        for _ in range(3):  # cap 2: one full flush + 1 leftover
            planner.add(_pending(n=8, m=16, submitted_at=100.0))
        flushes = planner.take_ready(now=100.0)
        assert [len(b) for b in flushes] == [2]
        assert planner.queued_count() == 1

    def test_drain_all_empties(self):
        planner = BatchPlanner()
        for _ in range(5):
            planner.add(_pending())
        drained = planner.drain_all()
        assert len(drained) == 5
        assert planner.queued_count() == 0
        assert planner.take_ready(force=True) == []


class TestWorkConserving:
    """The flush rule: at most one flush per free worker, most urgent
    bucket first; nothing flushes while every worker is busy."""

    def test_default_dispatches_at_once(self):
        planner = BatchPlanner()
        planner.add(_pending(submitted_at=100.0))
        assert [len(b) for b in planner.take_ready(now=100.0, free=1)] == [1]

    def test_no_free_worker_returns_nothing(self, units80):
        planner = BatchPlanner()
        for _ in range(3):  # full bucket, and past any window
            planner.add(_pending(n=8, m=16, submitted_at=100.0))
        assert planner.take_ready(now=200.0, free=0) == []
        assert planner.queued_count() == 3

    def test_busy_workers_let_the_bucket_coalesce(self):
        planner = BatchPlanner()
        for t in range(5):
            planner.add(_pending(submitted_at=100.0 + t))
            assert planner.take_ready(now=100.0 + t, free=0) == []
        flushes = planner.take_ready(now=105.0, free=1)
        assert [len(b) for b in flushes] == [5]

    def test_one_free_worker_takes_the_most_urgent_bucket(self):
        planner = BatchPlanner()
        older = _pending(n=8, submitted_at=100.0)
        newer = _pending(n=64, m=128, submitted_at=101.0)
        urgent = _pending(n=512, m=1024, submitted_at=102.0,
                          deadline_at=150.0)
        for p in (older, newer, urgent):
            planner.add(p)
        assert planner.take_ready(now=103.0, free=1) == [[urgent]]
        assert planner.take_ready(now=103.0, free=1) == [[older]]
        assert planner.take_ready(now=103.0, free=1) == [[newer]]

    def test_free_caps_the_flush_count(self, units80):
        planner = BatchPlanner()
        for _ in range(5):  # cap 2: three flushes' worth
            planner.add(_pending(n=8, m=16, submitted_at=100.0))
        flushes = planner.take_ready(now=100.0, free=2)
        assert [len(b) for b in flushes] == [2, 2]
        assert planner.queued_count() == 1

    def test_force_respects_free(self, units80):
        # a draining worker takes one flush at a time; the other
        # workers drain the rest in parallel
        planner = BatchPlanner()
        for _ in range(5):  # cap 2: three flushes' worth
            planner.add(_pending(n=8, m=16, submitted_at=100.0))
        flushes = planner.take_ready(now=100.0, force=True, free=1)
        assert [len(b) for b in flushes] == [2]
        assert planner.queued_count() == 3
        flushes = planner.take_ready(now=100.0, force=True)
        assert [len(b) for b in flushes] == [2, 1]
        assert planner.queued_count() == 0

    def test_opt_in_hold_still_applies_with_a_free_worker(self):
        planner = BatchPlanner(max_wait=0.5)
        planner.add(_pending(submitted_at=100.0))
        assert planner.take_ready(now=100.1, free=1) == []
        assert planner.next_due(now=100.1) == pytest.approx(0.4)

    def test_deadline_pressure_is_due_at_once(self):
        planner = BatchPlanner()
        planner.add(_pending(submitted_at=100.0, deadline_at=100.001))
        assert planner.next_due(now=100.0) == 0.0
        assert len(planner.take_ready(now=100.0, free=1)) == 1


class TestNextDue:
    def test_none_when_empty(self):
        assert BatchPlanner().next_due(now=0.0) is None

    def test_window_remaining(self):
        planner = BatchPlanner(max_wait=0.5)
        planner.add(_pending(submitted_at=100.0))
        assert planner.next_due(now=100.1) == pytest.approx(0.4)

    def test_deadline_tightens_due(self):
        planner = BatchPlanner(max_wait=10.0)
        planner.add(_pending(submitted_at=100.0, deadline_at=100.25))
        assert planner.next_due(now=100.0) == 0.0

    def test_never_negative(self):
        planner = BatchPlanner(max_wait=0.001)
        planner.add(_pending(submitted_at=100.0))
        assert planner.next_due(now=200.0) == 0.0


class TestEngineChoice:
    def test_degenerate_size_zero(self):
        empty = _pending(n=0, sparse=False)
        assert flush_engine([empty] * 4) == "vectorized"

    def test_sparse_batch_coalesces_on_contracting(self):
        assert flush_engine([_pending(n=8, m=16)] * 64) == "contracting"

    def test_sparse_solo_offers_sparse_engines(self):
        assert flush_engine([_pending(n=8, m=16)]) == "contracting"

    def test_dense_batch_prefers_a_batching_strategy(self):
        # the coalesced union, never the stacked field or solo runs
        members = [_pending(n=16, sparse=False)] * 32
        assert flush_engine(members) == "contracting"

    def test_dense_batch_coalesces_at_any_size(self):
        for size in (8, 128, 1024):
            g = np.ones((size, size), dtype=np.int8)
            np.fill_diagonal(g, 0)
            members = [_pending(n=size, sparse=False, graph=g)] * 2
            assert flush_engine(members) == "contracting"

    def test_solo_request_follows_the_rule_table(self, monkeypatch):
        monkeypatch.setattr(api, "_PROBED_MODEL",
                            CostModel(memory_budget=1e6))
        big = _pending(n=100_000, m=400_000,
                       graph=random_edge_list(8, 16, seed=0))
        assert flush_engine([big]) == "sharded"
        assert flush_engine([big, big]) == "contracting"


class TestValidation:
    def test_bad_max_wait(self):
        with pytest.raises(ValueError, match="max_wait"):
            BatchPlanner(max_wait=-1.0)


class TestTakeExpired:
    def test_removes_only_past_deadline_members(self):
        planner = BatchPlanner()
        dead = [_pending(submitted_at=0.0, deadline_at=1.0),
                _pending(submitted_at=0.5, deadline_at=2.0)]
        live = [_pending(submitted_at=1.0, deadline_at=9.0),
                _pending(submitted_at=3.0)]
        for p in (*dead, *live):
            planner.add(p)
        assert planner.take_expired(2.0) == dead
        assert planner.queued_count() == 2
        (bucket,) = planner._buckets.values()
        assert bucket.members == live
        # the cached aggregates describe the survivors only
        assert bucket.oldest == 1.0 and bucket.min_deadline == 9.0
        assert bucket.units == sum(p.n + 2 * p.m for p in live)

    def test_drops_emptied_buckets_and_skips_unexpired(self):
        planner = BatchPlanner()
        planner.add(_pending(n=8, deadline_at=1.0))
        planner.add(_pending(n=64, m=100, deadline_at=50.0))
        assert planner.take_expired(0.5) == []
        assert len(planner.take_expired(1.0)) == 1
        assert [b.key.size for b in planner._buckets.values()] == [64]
        assert planner.queued_count() == 1
