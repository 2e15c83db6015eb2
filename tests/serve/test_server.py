"""End-to-end tests for the micro-batching Server."""

import sys
import threading
import time

import numpy as np
import pytest

import repro.core.api as api
import repro.serve.scheduler as scheduler
import repro.serve.server as server_module
from repro.core.dispatch import CostModel
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

    def test_dense_flushes_respect_coalesce_units(self, monkeypatch):
        """Dense edges are counted at submission, so a dense flush is
        capped by ``n + 2m`` like a sparse one."""
        graphs = [random_graph(16, 1.0, seed=s) for s in range(6)]
        # 16 + 2 * 120 = 256 units each -> two members per flush
        monkeypatch.setattr(scheduler, "COALESCE_UNITS", 512)
        config = _quick_config(max_wait=0.5)
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


class TestSoloEngine:
    def test_a_single_request_follows_the_probed_model(self, monkeypatch):
        """A lone request's engine comes from the rule table on its own
        ``(n, m)`` under the model ``engine="auto"`` uses, not the
        shipped default budget."""
        tiny = CostModel(memory_budget=1.0)
        monkeypatch.setattr(api, "_PROBED_MODEL", tiny)
        calls = []
        real = scheduler.choose_engine

        def spy(n, m, model=None, **kwargs):
            calls.append((n, m, model))
            return real(n, m, model=model, **kwargs)

        monkeypatch.setattr(scheduler, "choose_engine", spy)
        g = random_edge_list(50, 70, seed=4)
        with Server(_quick_config()) as server:
            resp = server.submit(g).response(timeout=30.0)
        assert calls == [(50, g.edge_count, tiny)]
        assert resp.status is RequestStatus.OK
        assert resp.engine == "sharded"
        assert np.array_equal(resp.labels, _oracle(g))


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


def _hook_engines(monkeypatch, before) -> None:
    """Patch every execution backend to call ``before()`` first."""
    real_coalesced = server_module.solve_coalesced
    real_solo = server_module.solve_solo

    def hooked_coalesced(graphs, engine="contracting"):
        before()
        return real_coalesced(graphs, engine)

    def hooked_solo(graph, engine):
        before()
        return real_solo(graph, engine)

    monkeypatch.setattr(server_module, "solve_coalesced", hooked_coalesced)
    monkeypatch.setattr(server_module, "solve_solo", hooked_solo)


def _slow_engines(monkeypatch, seconds: float) -> None:
    """Patch every execution backend to sleep before solving, so a
    single worker can be saturated deterministically."""
    _hook_engines(monkeypatch, lambda: time.sleep(seconds))


def _gate_engines(monkeypatch):
    """Patch the execution backends to block until ``release`` is set;
    ``entered`` fires when a worker reaches one.  Patch after the
    server started, or its warm-up solve blocks too."""
    entered, release = threading.Event(), threading.Event()

    def gate():
        entered.set()
        release.wait(10.0)

    _hook_engines(monkeypatch, gate)
    return entered, release


class TestWorkConservingFlush:
    def test_requests_coalesce_while_the_only_worker_is_held(
            self, monkeypatch):
        graphs = [random_edge_list(8, 16, seed=s) for s in range(6)]
        with Server(workers=1) as server:
            entered, release = _gate_engines(monkeypatch)
            wakeups = {"count": 0}
            real_take = server._planner.take_ready

            def counting_take(*args, **kwargs):
                wakeups["count"] += 1
                return real_take(*args, **kwargs)

            server._planner.take_ready = counting_take
            try:
                blocker = server.submit(graphs[0])
                assert entered.wait(10.0)
                handles = [server.submit(g) for g in graphs[1:]]
                before = wakeups["count"]
                time.sleep(0.1)
                # no free worker: the scheduler blocks, it does not poll
                assert wakeups["count"] - before <= 2
                assert server.queue_depth == 5
            finally:
                release.set()
            responses = [h.response(timeout=10.0) for h in handles]
            assert blocker.response(timeout=10.0).status is RequestStatus.OK
        assert [r.batch_size for r in responses] == [5] * 5
        for g, resp in zip(graphs[1:], responses):
            assert resp.status is RequestStatus.OK
            assert np.array_equal(resp.labels, _oracle(g))

    def test_a_worker_that_leaves_work_wakes_an_idle_one(self, monkeypatch):
        # Both requests arrive within one hold, so only the first
        # arrival wakes a worker.  That worker takes the older bucket
        # and must pass the other on to the idle worker rather than
        # leave it queued behind its own (held) batch.
        both, release = threading.Event(), threading.Event()
        running = []

        def gate():
            running.append(threading.current_thread().name)
            if len(running) == 2:
                both.set()
            release.wait(10.0)

        with Server(workers=2, max_wait=0.05) as server:
            _hook_engines(monkeypatch, gate)
            try:
                first = server.submit(random_edge_list(8, 16, seed=0))
                second = server.submit(random_edge_list(64, 128, seed=1))
                assert both.wait(5.0), "the second batch never started"
                assert len(set(running)) == 2
            finally:
                release.set()
            for handle in (first, second):
                assert handle.response(timeout=10.0).status is (
                    RequestStatus.OK)

    def test_held_requests_count_against_max_queue(self, monkeypatch):
        config = ServerConfig(workers=1, max_queue=3, admission="fail")
        with Server(config) as server:
            entered, release = _gate_engines(monkeypatch)
            try:
                blocker = server.submit(random_edge_list(8, 16, seed=0))
                assert entered.wait(10.0)
                held = [server.submit(random_edge_list(8, 16, seed=s))
                        for s in range(1, 4)]
                # long past any batching window: the held requests are
                # still the scheduler's, not an executor queue's
                time.sleep(0.05)
                with pytest.raises(QueueFull):
                    server.submit(random_edge_list(8, 16, seed=4))
            finally:
                release.set()
            for handle in (blocker, *held):
                assert handle.response(timeout=10.0).status is (
                    RequestStatus.OK)

    def test_expired_held_requests_free_their_slots(self, monkeypatch):
        config = ServerConfig(workers=1, max_queue=2, admission="shed")
        with Server(config) as server:
            entered, release = _gate_engines(monkeypatch)
            try:
                blocker = server.submit(random_edge_list(8, 16, seed=0))
                assert entered.wait(10.0)
                expired = [server.submit(random_edge_list(8, 16, seed=s),
                                         deadline=0.001)
                           for s in (1, 2)]
                time.sleep(0.02)
                assert server.queue_depth == 2
                admitted = server.submit(random_edge_list(8, 16, seed=3))
                assert not admitted.done()  # held, not shed
                assert server.queue_depth == 1
            finally:
                release.set()
            for handle in expired:
                assert handle.response(timeout=10.0).status is (
                    RequestStatus.TIMEOUT)
            assert admitted.response(timeout=10.0).status is RequestStatus.OK
            assert blocker.response(timeout=10.0).status is RequestStatus.OK
        assert server.metrics.timed_out == 2 and server.metrics.shed == 0

    def test_dispatched_batches_never_exceed_workers(self):
        """Stress: four submitting threads, three workers, a tiny switch
        interval.  A worker that took a second batch, or a lost update
        of the in-flight count, would run more batches at once than
        there are workers, or leave the count off zero at the end."""
        seen = []
        running = {"count": 0}
        count_lock = threading.Lock()
        graphs = [random_edge_list(8 << (s % 3), 16 << (s % 3), seed=s)
                  for s in range(300)]
        handles = [None] * len(graphs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        server = Server(workers=3).start()
        try:
            real_execute = server._execute

            def counting_execute(batch):
                with count_lock:
                    running["count"] += 1
                    seen.append(running["count"])
                try:
                    real_execute(batch)
                finally:
                    with count_lock:
                        running["count"] -= 1

            server._execute = counting_execute

            def submit(offset):
                for i in range(offset, len(graphs), 4):
                    handles[i] = server.submit(graphs[i])

            threads = [threading.Thread(target=submit, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
            responses = [h.response(timeout=30.0) for h in handles]
        finally:
            sys.setswitchinterval(interval)
            server.stop()
        assert seen and max(seen) <= 3
        assert running["count"] == 0 and server.in_flight == 0
        for g, resp in zip(graphs, responses):
            assert resp.status is RequestStatus.OK
            assert np.array_equal(resp.labels, _oracle(g))


class TestFaults:
    def test_fault_outside_the_engines_resolves_error(self, monkeypatch):
        """A fault that escapes the engines' retry path (here the
        planner's engine choice) resolves the batch ``ERROR`` within a
        bounded time, and the only worker goes on serving."""
        g = random_edge_list(8, 16, seed=0)
        server = Server(_quick_config()).start()
        try:
            real_choose = server_module.flush_engine
            calls = {"count": 0}

            def faulty_choose(*args, **kwargs):
                calls["count"] += 1
                if calls["count"] == 1:
                    raise RuntimeError("injected planner fault")
                return real_choose(*args, **kwargs)

            monkeypatch.setattr(server_module, "flush_engine", faulty_choose)
            failed = server.submit(g).response(timeout=5.0)
            assert failed.status is RequestStatus.ERROR
            assert "injected planner fault" in failed.error
            served = server.submit(g).response(timeout=5.0)
            assert served.status is RequestStatus.OK
            assert np.array_equal(served.labels, _oracle(g))
        finally:
            assert server.stop(timeout=5.0)
        assert server.metrics.errors == 1 and server.in_flight == 0


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

    def test_a_request_with_a_deadline_is_not_held(self):
        """An opt-in hold applies only to requests without a deadline:
        one with a deadline, however generous, is dispatched at once."""
        with Server(_quick_config(max_wait=2.0)) as server:
            started = time.monotonic()
            resp = server.submit(random_edge_list(8, 16, seed=0),
                                 deadline=30.0).response(timeout=10.0)
            elapsed = time.monotonic() - started
        assert resp.status is RequestStatus.OK
        assert elapsed < 1.0

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

    def test_stop_without_drain_cancels_queued(self, monkeypatch):
        # the only worker is held inside a running batch: stop cancels
        # the queued requests at once, then waits for the running batch
        server = Server(_quick_config()).start()
        entered, release = _gate_engines(monkeypatch)
        try:
            running = server.submit(random_edge_list(8, 16, seed=0))
            assert entered.wait(10.0)
            queued = [server.submit(random_edge_list(8, 16, seed=s))
                      for s in range(1, 5)]
            stopper = threading.Thread(target=server.stop,
                                       kwargs={"drain": False})
            stopper.start()
            for handle in queued:
                assert handle.response(timeout=10.0).status is (
                    RequestStatus.CANCELLED)
            assert not running.done() and stopper.is_alive()
        finally:
            release.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        assert running.response(timeout=0).status is RequestStatus.OK
        assert server.metrics.cancelled == 4
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("repro-serve-worker")]


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
        with Server(_quick_config()) as server:
            resp = server.submit(g).response(timeout=10.0)
        assert resp.status is RequestStatus.OK
        assert resp.attempts == 2
        assert np.array_equal(resp.labels, _oracle(g))
        assert server.metrics.retries >= 1

    def test_exhausted_retries_resolve_error(self, monkeypatch):
        def broken(graph, engine):
            raise RuntimeError("permanent failure")

        monkeypatch.setattr(server_module, "solve_solo", broken)
        with Server(_quick_config()) as server:
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
        responses = serve_many(graphs, config=_quick_config())
        for g, resp in zip(graphs, responses):
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
