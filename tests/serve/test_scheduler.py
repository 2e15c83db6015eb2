"""Tests for the thread-free batching policy (BatchPlanner)."""

import numpy as np
import pytest

from repro.core.dispatch import CostModel
from repro.hirschberg.edgelist import random_edge_list
from repro.serve.request import CCRequest, ResultHandle
from repro.serve.scheduler import (
    BatchPlanner,
    BucketKey,
    PendingRequest,
    sample_mean_m,
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


class TestSampleMeanM:
    def test_empty(self):
        assert sample_mean_m([]) == 0.0

    def test_small_list_exact(self):
        members = [_pending(m=10), _pending(m=30)]
        assert sample_mean_m(members) == pytest.approx(20.0)

    def test_large_list_samples_at_most_k(self):
        members = [_pending(m=7) for _ in range(100)]
        assert sample_mean_m(members, k=4) == pytest.approx(7.0)


class TestBucketing:
    def test_dense_padded_to_power_of_two(self):
        planner = BatchPlanner(pad_buckets=True)
        key = planner.key_for(_pending(n=12, sparse=False))
        assert key == BucketKey("dense", 16)

    def test_dense_unpadded(self):
        planner = BatchPlanner(pad_buckets=False)
        assert planner.key_for(_pending(n=12, sparse=False)).size == 12

    def test_padding_preserves_exact_powers(self):
        planner = BatchPlanner(pad_buckets=True)
        assert planner.key_for(_pending(n=16, sparse=False)).size == 16

    def test_sparse_and_dense_never_share_buckets(self):
        planner = BatchPlanner()
        sparse_key = planner.key_for(_pending(n=8, sparse=True))
        dense_key = planner.key_for(_pending(n=8, sparse=False))
        assert sparse_key != dense_key

    def test_sparse_cap_respects_coalesce_units(self):
        planner = BatchPlanner(coalesce_units=100)
        members = [_pending(n=8, m=16) for _ in range(10)]  # 40 units each
        cap = planner.bucket_cap(BucketKey("sparse", 8), members)
        assert cap == 2  # 100 // 40

    def test_sparse_cap_never_below_one(self):
        planner = BatchPlanner(coalesce_units=1)
        members = [_pending(n=1000, m=2000)]
        assert planner.bucket_cap(BucketKey("sparse", 1000), members) == 1

    def test_dense_cap_respects_coalesce_units(self):
        planner = BatchPlanner(coalesce_units=1_000)
        g = np.zeros((16, 16), dtype=np.int8)
        g[0, 1] = g[1, 0] = g[2, 3] = g[3, 2] = 1  # 16 + 2 * 2 units
        members = [_pending(n=16, sparse=False, graph=g) for _ in range(9)]
        assert planner.bucket_cap(BucketKey("dense", 16), members) == 50

    def test_max_batch_clamps(self):
        planner = BatchPlanner(max_batch=3)
        members = [_pending(n=2, m=1) for _ in range(10)]
        assert planner.bucket_cap(BucketKey("sparse", 2), members) <= 3


class TestPoolPays:
    def test_small_batches_stay_inline(self):
        model = CostModel(pool_dispatch_overhead=10.0)  # absurdly costly
        planner = BatchPlanner(model=model)
        assert not planner.pool_pays(BucketKey("sparse", 64), 4, 128.0)
        assert not planner.pool_pays(BucketKey("dense", 64), 16, 0.0)

    def test_expensive_batches_pay(self):
        model = CostModel(pool_dispatch_overhead=0.0)
        planner = BatchPlanner(model=model)
        assert planner.pool_pays(BucketKey("sparse", 512), 8, 1024.0)

    def test_empty_key_never_pays(self):
        model = CostModel(pool_dispatch_overhead=0.0)
        planner = BatchPlanner(model=model)
        assert not planner.pool_pays(BucketKey("dense", 0), 1, 0.0)

    def test_one_constant_estimate_separates_tiny_from_large(self):
        """Under the shipped model, a flush of tiny graphs stays inline
        and a flush of large ones rides the pool."""
        planner = BatchPlanner()
        assert not planner.pool_pays(BucketKey("sparse", 8), 4, 16.0)
        assert not planner.pool_pays(BucketKey("dense", 64), 8, 200.0)
        assert planner.pool_pays(BucketKey("sparse", 4096), 64, 16_384.0)
        assert planner.pool_pays(BucketKey("dense", 1024), 2, 260_000.0)

    def test_break_even_is_twice_the_overhead(self):
        planner = BatchPlanner(model=CostModel(pool_dispatch_overhead=1.0))
        key = BucketKey("sparse", 256)
        # grow occupancy until the estimate crosses 2x the overhead;
        # pool_pays must flip exactly there
        for occupancy in (1, 4, 16, 64, 256, 1024, 4096):
            est = planner.estimate_batch_seconds(key, occupancy, 512.0)
            assert planner.pool_pays(key, occupancy, 512.0) == (est >= 2.0)


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

    def test_full_bucket_flushes_immediately(self):
        planner = BatchPlanner(max_wait=10.0, coalesce_units=80)
        # 40 units each -> cap 2
        assert not planner.add(_pending(n=8, m=16, submitted_at=100.0))
        assert planner.add(_pending(n=8, m=16, submitted_at=100.0))
        flushes = planner.take_ready(now=100.0)
        assert [len(b) for b in flushes] == [2]

    def test_deadline_pressure_flushes_early(self):
        planner = BatchPlanner(max_wait=10.0, deadline_margin=0.005)
        planner.add(_pending(submitted_at=100.0, deadline_at=100.004))
        # window far from closing, but the deadline is about to pass
        flushes = planner.take_ready(now=100.0)
        assert [len(b) for b in flushes] == [1]

    def test_deadline_pressure_separates_tiny_from_large(self):
        """The same 10 ms of slack is plenty for a tiny graph but not
        for 900k units of contraction."""
        planner = BatchPlanner(max_wait=10.0, deadline_margin=0.0)
        tiny = _pending(n=8, m=16, submitted_at=100.0, deadline_at=100.01)
        planner.add(tiny)
        assert planner.take_ready(now=100.0) == []
        large = _pending(n=100_000, m=400_000, submitted_at=100.0,
                         deadline_at=100.01,
                         graph=random_edge_list(8, 16, seed=0))
        planner.add(large)
        assert planner.take_ready(now=100.0) == [[large]]
        assert planner.queued_count() == 1

    def test_force_flushes_everything(self):
        planner = BatchPlanner(max_wait=10.0)
        for _ in range(3):
            planner.add(_pending(submitted_at=100.0))
        flushes = planner.take_ready(now=100.0, force=True)
        assert sum(len(b) for b in flushes) == 3
        assert planner.queued_count() == 0

    def test_urgent_members_packed_first_on_overflow(self):
        planner = BatchPlanner(max_wait=10.0, coalesce_units=80)
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

    def test_remainder_requeued_when_not_timed_out(self):
        planner = BatchPlanner(max_wait=10.0, coalesce_units=80)
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


class TestNextDue:
    def test_none_when_empty(self):
        assert BatchPlanner().next_due(now=0.0) is None

    def test_window_remaining(self):
        planner = BatchPlanner(max_wait=0.5)
        planner.add(_pending(submitted_at=100.0))
        assert planner.next_due(now=100.1) == pytest.approx(0.4)

    def test_deadline_tightens_due(self):
        planner = BatchPlanner(max_wait=10.0, deadline_margin=0.0)
        planner.add(_pending(submitted_at=100.0, deadline_at=100.25))
        assert planner.next_due(now=100.0) == pytest.approx(0.25)

    def test_never_negative(self):
        planner = BatchPlanner(max_wait=0.001)
        planner.add(_pending(submitted_at=100.0))
        assert planner.next_due(now=200.0) == 0.0


class TestEngineChoice:
    def test_degenerate_size_zero(self):
        planner = BatchPlanner()
        assert planner.choose_batch_engine(BucketKey("dense", 0), 4, 0) == (
            "vectorized"
        )

    def test_sparse_batch_coalesces_on_contracting(self):
        planner = BatchPlanner()
        engine = planner.choose_batch_engine(BucketKey("sparse", 8), 64, 16)
        assert engine == "contracting"

    def test_sparse_solo_offers_sparse_engines(self):
        planner = BatchPlanner()
        engine = planner.choose_batch_engine(BucketKey("sparse", 8), 1, 16)
        assert engine == "contracting"

    def test_dense_batch_prefers_a_batching_strategy(self):
        planner = BatchPlanner()
        engine = planner.choose_batch_engine(BucketKey("dense", 16), 32, 24)
        # the coalesced union, never the stacked field or solo runs
        assert engine == "contracting"

    def test_dense_batch_coalesces_at_any_size(self):
        planner = BatchPlanner()
        for size in (8, 128, 1024):
            full = size * (size - 1) / 2
            assert planner.choose_batch_engine(
                BucketKey("dense", size), 2, full) == "contracting"

    def test_solo_request_follows_the_rule_table(self):
        tight = CostModel(memory_budget=1e6)
        planner = BatchPlanner(model=tight)
        assert planner.choose_batch_engine(
            BucketKey("sparse", 100_000), 1, 400_000) == "sharded"
        assert planner.choose_batch_engine(
            BucketKey("sparse", 100_000), 2, 400_000) == "contracting"

    def test_estimate_scales_with_occupancy(self):
        planner = BatchPlanner()
        key = BucketKey("sparse", 8)
        one = planner.estimate_batch_seconds(key, 1, 16)
        many = planner.estimate_batch_seconds(key, 64, 16)
        assert many > one
        assert many < one * 64  # amortisation: far below linear


class TestValidation:
    def test_bad_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchPlanner(max_batch=0)

    def test_bad_max_wait(self):
        with pytest.raises(ValueError, match="max_wait"):
            BatchPlanner(max_wait=-1.0)

    def test_bad_coalesce_units(self):
        with pytest.raises(ValueError, match="coalesce_units"):
            BatchPlanner(coalesce_units=0)
