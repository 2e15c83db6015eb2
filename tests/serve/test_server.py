"""End-to-end tests for the micro-batching Server."""

import threading
import time

import numpy as np
import pytest

import repro.serve.server as server_module
from repro.graphs.components import components_union_find
from repro.graphs.generators import random_graph
from repro.graphs.union_find import UnionFind
from repro.hirschberg.edgelist import EdgeListGraph, random_edge_list
from repro.serve import (
    CCRequest,
    QueueFull,
    RequestStatus,
    Server,
    ServerClosed,
    ServerConfig,
    serve_many,
)
from repro.serve.loadgen import (
    LoadSpec,
    make_workload,
    run_closed_loop,
    run_open_loop,
)


def _oracle(graph) -> np.ndarray:
    if isinstance(graph, EdgeListGraph):
        uf = UnionFind(graph.n)
        for s, d in zip(graph.src, graph.dst):
            uf.union(int(s), int(d))
        return uf.canonical_labels()
    return components_union_find(graph)


def _quick_config(**overrides) -> ServerConfig:
    defaults = dict(workers=1, max_wait=0.001)
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestLifecycle:
    def test_context_manager_starts_and_stops(self):
        with Server(_quick_config()) as server:
            assert server.submit(random_edge_list(8, 16, seed=0)).result(
                timeout=5.0
            ).shape == (8,)
        with pytest.raises(ServerClosed):
            server.submit(random_edge_list(8, 16, seed=0))

    def test_double_start_rejected(self):
        server = Server(_quick_config()).start()
        try:
            with pytest.raises(RuntimeError, match="running"):
                server.start()
        finally:
            server.stop()

    def test_stop_before_start_is_safe(self):
        assert Server(_quick_config()).stop()

    def test_keyword_overrides(self):
        server = Server(workers=1, max_wait=0.003)
        assert server.config.max_wait == 0.003

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            ServerConfig(admission="drop")
        with pytest.raises(ValueError, match="max_queue"):
            ServerConfig(max_queue=0)


class TestCorrectness:
    def test_sparse_batch_matches_oracle(self):
        graphs = [random_edge_list(8, 16, seed=s) for s in range(40)]
        responses = serve_many(graphs, config=_quick_config())
        for g, resp in zip(graphs, responses):
            assert resp.status is RequestStatus.OK
            assert np.array_equal(resp.labels, _oracle(g))

    def test_dense_batch_matches_oracle(self):
        graphs = [random_graph(12, 0.3, seed=s) for s in range(16)]
        responses = serve_many(graphs, config=_quick_config())
        for g, resp in zip(graphs, responses):
            assert resp.status is RequestStatus.OK
            assert np.array_equal(resp.labels, _oracle(g))

    def test_dense_bucket_coalesces_padded_sizes(self):
        """Dense graphs of 9..16 nodes share the padded 16-node bucket;
        the flush runs one coalesced contracting solve, no stacked
        field, and every member keeps its own size."""
        graphs = [random_graph(n, 0.3, seed=n) for n in range(9, 17)]
        graphs += [random_graph(16, 1.0, seed=0), random_graph(12, 0.0)]
        config = _quick_config(max_wait=0.5)
        with Server(config) as server:
            handles = [server.submit(g) for g in graphs]
            responses = [h.response(timeout=10.0) for h in handles]
        for g, resp in zip(graphs, responses):
            assert resp.status is RequestStatus.OK
            assert resp.engine == "contracting"
            assert resp.batch_size == len(graphs)
            assert np.array_equal(resp.labels, _oracle(g))

    def test_dense_flushes_respect_coalesce_units(self):
        """Dense edges are counted at submission, so a dense flush is
        capped by ``n + 2m`` like a sparse one."""
        graphs = [random_graph(16, 1.0, seed=s) for s in range(6)]
        # 16 + 2 * 120 = 256 units each -> two members per flush
        config = _quick_config(max_wait=0.5, coalesce_units=512)
        responses = serve_many(graphs, config=config)
        assert [r.batch_size for r in responses] == [2] * 6
        for g, resp in zip(graphs, responses):
            assert np.array_equal(resp.labels, _oracle(g))

    def test_mixed_sizes_and_kinds(self):
        spec = LoadSpec(count=60, sizes=(8, 16, 32), dense_fraction=0.3,
                        seed=3)
        graphs = make_workload(spec)
        responses = serve_many(graphs, config=_quick_config())
        for g, resp in zip(graphs, responses):
            assert resp.status is RequestStatus.OK
            assert np.array_equal(resp.labels, _oracle(g))

    def test_degenerate_inputs(self):
        empty_dense = np.zeros((0, 0), dtype=np.int8)
        single = np.zeros((1, 1), dtype=np.int8)
        empty_sparse = EdgeListGraph(
            n=0,
            src=np.empty(0, dtype=np.int64),
            dst=np.empty(0, dtype=np.int64),
        )
        edgeless = EdgeListGraph(
            n=3,
            src=np.empty(0, dtype=np.int64),
            dst=np.empty(0, dtype=np.int64),
        )
        responses = serve_many(
            [empty_dense, single, empty_sparse, edgeless],
            config=_quick_config(),
        )
        assert [r.status for r in responses] == [RequestStatus.OK] * 4
        assert responses[0].labels.shape == (0,)
        assert np.array_equal(responses[1].labels, [0])
        assert responses[2].labels.shape == (0,)
        assert np.array_equal(responses[3].labels, [0, 1, 2])

    def test_non_square_adjacency_rejected_at_submit(self):
        with Server(_quick_config()) as server:
            with pytest.raises(ValueError, match="square"):
                server.submit(np.zeros((3, 4), dtype=np.int8))

    def test_batched_responses_report_occupancy(self):
        graphs = [random_edge_list(8, 16, seed=s) for s in range(30)]
        responses = serve_many(graphs, config=_quick_config())
        assert max(r.batch_size for r in responses) > 1
        assert all(r.engine is not None for r in responses)


class TestBackpressure:
    def test_shed_policy_resolves_shed(self):
        config = _quick_config(max_queue=1, admission="shed", max_wait=5.0)
        with Server(config) as server:
            first = server.submit(random_edge_list(8, 16, seed=0))
            handles = [server.submit(random_edge_list(8, 16, seed=s))
                       for s in range(8)]
            statuses = [h.response(timeout=10.0).status
                        for h in [first, *handles]]
        assert RequestStatus.SHED in statuses
        assert server.metrics.shed > 0
        snap = server.metrics_snapshot()
        assert snap["counters"]["shed"] == server.metrics.shed

    def test_fail_policy_raises_queue_full(self):
        config = _quick_config(max_queue=1, admission="fail", max_wait=5.0)
        with Server(config) as server:
            server.submit(random_edge_list(8, 16, seed=0))
            with pytest.raises(QueueFull):
                for s in range(8):
                    server.submit(random_edge_list(8, 16, seed=s))

    def test_block_policy_eventually_admits(self):
        config = _quick_config(max_queue=2, admission="block")
        graphs = [random_edge_list(8, 16, seed=s) for s in range(12)]
        responses = serve_many(graphs, config=config)
        assert all(r.status is RequestStatus.OK for r in responses)


def _slow_engines(monkeypatch, seconds: float) -> None:
    """Patch every execution backend to sleep before solving, so a
    single worker can be saturated deterministically."""
    real_coalesced = server_module.solve_coalesced
    real_solo = server_module.solve_solo

    def slow_coalesced(graphs, engine="contracting"):
        time.sleep(seconds)
        return real_coalesced(graphs, engine)

    def slow_solo(graph, engine):
        time.sleep(seconds)
        return real_solo(graph, engine)

    monkeypatch.setattr(server_module, "solve_coalesced", slow_coalesced)
    monkeypatch.setattr(server_module, "solve_solo", slow_solo)


class TestDeadlines:
    def test_expired_deadline_resolves_timeout(self, monkeypatch):
        # the lone worker is busy for far longer than the victim's
        # budget, so the victim expires while queued and must resolve
        # TIMEOUT without ever running an engine
        _slow_engines(monkeypatch, 0.08)
        config = _quick_config()
        with Server(config) as server:
            blocker = server.submit(random_edge_list(8, 16, seed=0))
            time.sleep(0.02)  # let the blocker reach the worker
            victim = server.submit(random_edge_list(16, 32, seed=1),
                                   deadline=0.01)
            resp = victim.response(timeout=10.0)
            assert blocker.response(timeout=10.0).status is RequestStatus.OK
        assert resp.status is RequestStatus.TIMEOUT
        assert server.metrics.timed_out >= 1
        assert server.metrics.deadline_misses >= 1

    def test_default_deadline_applies(self, monkeypatch):
        _slow_engines(monkeypatch, 0.08)
        config = _quick_config(default_deadline=0.01)
        with Server(config) as server:
            server.submit(random_edge_list(8, 16, seed=0))
            time.sleep(0.02)
            handle = server.submit(random_edge_list(16, 32, seed=1))
            resp = handle.response(timeout=10.0)
        assert resp.status is RequestStatus.TIMEOUT

    def test_generous_deadline_is_met(self):
        responses = serve_many(
            [random_edge_list(8, 16, seed=s) for s in range(10)],
            deadline=30.0,
            config=_quick_config(),
        )
        assert all(r.status is RequestStatus.OK for r in responses)
        assert not any(r.deadline_missed for r in responses)


class TestOverload:
    def test_overload_exercises_shed_and_misses(self, monkeypatch):
        """The acceptance overload scenario: offered load far beyond
        service capacity must exercise both the shed counter and the
        deadline-miss counter, while everything actually served stays
        correct."""
        _slow_engines(monkeypatch, 0.02)  # capacity ~50 batches/second
        config = _quick_config(max_queue=4, admission="shed")
        graphs = make_workload(LoadSpec(count=60, sizes=(16, 32), seed=11))
        with Server(config) as server:
            handles = run_open_loop(server, graphs, offered_rps=100_000.0,
                                    deadline=0.03)
            responses = [h.response(timeout=30.0) for h in handles]
        statuses = {r.status for r in responses}
        snap = server.metrics_snapshot()
        assert snap["counters"]["shed"] > 0
        assert RequestStatus.SHED in statuses
        assert (snap["counters"]["deadline_misses"] > 0
                or snap["counters"]["timed_out"] > 0)
        # whatever was served is still correct
        for g, r in zip(graphs, responses):
            if r.status is RequestStatus.OK:
                assert np.array_equal(r.labels, _oracle(g))


class TestCancellation:
    def test_cancel_queued_request(self):
        config = _quick_config(max_wait=0.5)
        with Server(config) as server:
            handle = server.submit(random_edge_list(8, 16, seed=0))
            assert handle.cancel()
            resp = handle.response(timeout=10.0)
        assert resp.status is RequestStatus.CANCELLED
        assert server.metrics.cancelled >= 1

    def test_stop_without_drain_cancels_queued(self):
        config = _quick_config(max_wait=5.0)
        server = Server(config).start()
        handles = [server.submit(random_edge_list(8, 16, seed=s))
                   for s in range(4)]
        server.stop(drain=False)
        statuses = {h.response(timeout=10.0).status for h in handles}
        assert statuses <= {RequestStatus.CANCELLED, RequestStatus.OK}
        assert RequestStatus.CANCELLED in statuses


class TestDrain:
    def test_graceful_drain_serves_everything_queued(self):
        config = _quick_config(max_wait=0.2)
        server = Server(config).start()
        graphs = [random_edge_list(8, 16, seed=s) for s in range(50)]
        handles = [server.submit(g) for g in graphs]
        assert server.stop(drain=True)
        for g, h in zip(graphs, handles):
            resp = h.response(timeout=0)  # already resolved by the drain
            assert resp.status is RequestStatus.OK
            assert np.array_equal(resp.labels, _oracle(g))
        assert server.queue_depth == 0
        assert server.in_flight == 0


class TestRetries:
    def test_engine_failure_retried_then_ok(self, monkeypatch):
        calls = {"count": 0}
        real = server_module.solve_solo

        def flaky(graph, engine):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient engine failure")
            return real(graph, engine)

        monkeypatch.setattr(server_module, "solve_solo", flaky)
        g = random_edge_list(8, 16, seed=0)
        with Server(_quick_config(retries=1, coalesce_units=1)) as server:
            resp = server.submit(g).response(timeout=10.0)
        assert resp.status is RequestStatus.OK
        assert resp.attempts == 2
        assert np.array_equal(resp.labels, _oracle(g))
        assert server.metrics.retries >= 1

    def test_exhausted_retries_resolve_error(self, monkeypatch):
        def broken(graph, engine):
            raise RuntimeError("permanent failure")

        monkeypatch.setattr(server_module, "solve_solo", broken)
        with Server(_quick_config(retries=1, coalesce_units=1)) as server:
            resp = server.submit(
                random_edge_list(8, 16, seed=0)
            ).response(timeout=10.0)
        assert resp.status is RequestStatus.ERROR
        assert "permanent failure" in resp.error

    def test_batch_failure_falls_back_to_solo(self, monkeypatch):
        def broken_coalesce(graphs, engine="contracting"):
            raise RuntimeError("union solver crashed")

        monkeypatch.setattr(server_module, "solve_coalesced",
                            broken_coalesce)
        graphs = [random_edge_list(8, 16, seed=s) for s in range(6)]
        responses = serve_many(graphs, config=_quick_config(retries=1))
        for g, resp in zip(graphs, responses):
            assert resp.status is RequestStatus.OK
            assert np.array_equal(resp.labels, _oracle(g))


class TestProcessPool:
    def test_large_sparse_request_uses_pool(self):
        config = _quick_config(
            process_workers=1, sparse_process_units=100,
        )
        g = random_edge_list(200, 400, seed=0)
        with Server(config) as server:
            resp = server.submit(g).response(timeout=60.0)
        assert resp.status is RequestStatus.OK
        assert np.array_equal(resp.labels, _oracle(g))


class TestServeManyAndLoadgen:
    def test_serve_many_preserves_input_order(self):
        graphs = [random_edge_list(8, 16, seed=s) for s in range(12)]
        ids = [f"job-{i}" for i in range(len(graphs))]
        with Server(_quick_config()) as server:
            handles = [
                server.submit(g, request_id=rid)
                for g, rid in zip(graphs, ids)
            ]
            responses = [h.response(timeout=10.0) for h in handles]
        assert [r.request_id for r in responses] == ids

    def test_closed_loop_resolves_everything(self):
        graphs = make_workload(LoadSpec(count=40, sizes=(8, 16), seed=5))
        with Server(_quick_config()) as server:
            handles = run_closed_loop(server, graphs, concurrency=4)
            responses = [h.response(timeout=30.0) for h in handles]
        assert len(responses) == len(graphs)
        assert all(r.status is RequestStatus.OK for r in responses)

    def test_submit_request_front_end(self):
        g = random_edge_list(8, 16, seed=0)
        with Server(_quick_config()) as server:
            handle = server.submit_request(CCRequest(graph=g))
            assert np.array_equal(handle.result(timeout=10.0), _oracle(g))

    def test_poisson_arrivals_are_seeded_and_monotone(self):
        from repro.serve.loadgen import poisson_arrivals

        a = poisson_arrivals(100, offered_rps=500.0, seed=42)
        b = poisson_arrivals(100, offered_rps=500.0, seed=42)
        c = poisson_arrivals(100, offered_rps=500.0, seed=43)
        assert np.array_equal(a, b)           # explicit seed: reproducible
        assert not np.array_equal(a, c)
        assert np.all(np.diff(a) > 0)         # cumulative offsets
        assert a.shape == (100,)
        # mean inter-arrival ~ 1/rate
        assert np.diff(a).mean() == pytest.approx(1 / 500.0, rel=0.5)

    def test_poisson_arrivals_validates_inputs(self):
        from repro.serve.loadgen import poisson_arrivals

        with pytest.raises(ValueError, match="offered_rps"):
            poisson_arrivals(10, offered_rps=0.0, seed=0)
        with pytest.raises(ValueError, match="count"):
            poisson_arrivals(-1, offered_rps=1.0, seed=0)
        assert poisson_arrivals(0, offered_rps=1.0, seed=0).size == 0

    def test_workload_duplicate_fraction(self):
        spec = LoadSpec(count=200, sizes=(8, 16), duplicate_fraction=0.5,
                        seed=3)
        graphs = make_workload(spec)
        unique = len({id(g) for g in graphs})
        assert unique < len(graphs)  # repeats present by identity
        no_dup = make_workload(LoadSpec(count=200, sizes=(8, 16), seed=3))
        assert len({id(g) for g in no_dup}) == len(no_dup)


class TestObservability:
    def test_snapshot_has_gauges_and_counters(self):
        with Server(_quick_config()) as server:
            server.submit(random_edge_list(8, 16, seed=0)).response(
                timeout=10.0
            )
            snap = server.metrics_snapshot()
        assert snap["gauges"]["state"] == "running"
        assert snap["counters"]["completed"] == 1
        assert snap["latency"]["count"] == 1
        assert snap["throughput_rps"] > 0
