"""Tests for the persistent shared-memory pool executor.

Covers the PoolExecutor in isolation (round trips against a union-find
oracle, crash replacement with single-retry failover, leak-free
shutdown) and through the Server (``executor="pool"``), including a
worker killed mid-``serve_many`` with every unrelated request still
resolving correctly.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.analysis.shm import live_segments
from repro.graphs.components import components_union_find
from repro.graphs.generators import random_graph
from repro.graphs.union_find import UnionFind
from repro.hirschberg.edgelist import EdgeListGraph, random_edge_list
from repro.serve import (
    PoolExecutor,
    RequestStatus,
    Server,
    ServerConfig,
    WorkerDied,
    serve_many,
)


def _oracle_sparse(graph: EdgeListGraph) -> np.ndarray:
    uf = UnionFind(graph.n)
    for s, d in zip(graph.src, graph.dst):
        uf.union(int(s), int(d))
    return uf.canonical_labels()


@pytest.fixture
def pool():
    executor = PoolExecutor(workers=1, calibrate=False).start()
    yield executor
    executor.shutdown()


class TestPoolExecutor:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            PoolExecutor(0)

    def test_ping_round_trip(self, pool):
        pool.ping()
        assert pool.inflight == 0

    def test_dense_stack_matches_oracle(self, pool):
        graphs = [random_graph(n, 0.3, seed=n) for n in (3, 5, 8)]
        labels = pool.solve_dense_stack([g.matrix for g in graphs], 8)
        for g, vec in zip(graphs, labels):
            assert vec.shape == (g.n,)
            assert np.array_equal(vec, components_union_find(g))

    def test_coalesced_matches_oracle(self, pool):
        graphs = [random_edge_list(40, 90, seed=s) for s in range(4)]
        labels = pool.solve_coalesced(graphs, "contracting")
        for g, vec in zip(graphs, labels):
            assert np.array_equal(vec, _oracle_sparse(g))

    def test_solo_matches_oracle(self, pool):
        g = random_edge_list(200, 500, seed=3)
        assert np.array_equal(
            pool.solve_solo(g, "contracting"), _oracle_sparse(g)
        )

    def test_empty_batches(self, pool):
        assert pool.solve_dense_stack([], 8) == []
        (empty,) = pool.solve_coalesced(
            [EdgeListGraph(n=0, src=np.empty(0, dtype=np.int64),
                           dst=np.empty(0, dtype=np.int64))]
        )
        assert empty.size == 0

    def test_engine_error_not_retried(self, pool):
        with pytest.raises(RuntimeError, match="pool worker error"):
            pool.solve_coalesced([random_edge_list(10, 20, seed=0)],
                                 "no-such-engine")

    def test_heartbeats_advance(self, pool):
        before = pool.heartbeats()[0]
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if pool.heartbeats()[0] > before:
                return
            time.sleep(0.02)
        pytest.fail("heartbeat never advanced")

    def test_calibration_measures_overhead(self):
        with PoolExecutor(workers=1, calibrate=True) as pool:
            assert pool.measured_overhead > 0.0

    def test_context_manager_shutdown_leaves_no_segments(self):
        before = live_segments()
        with PoolExecutor(workers=1, calibrate=False) as pool:
            pool.solve_coalesced([random_edge_list(30, 60, seed=1)])
            assert len(live_segments()) > len(before)
        assert live_segments() == before

    def test_shutdown_is_idempotent(self):
        pool = PoolExecutor(workers=1, calibrate=False).start()
        pool.shutdown()
        pool.shutdown()

    def test_shutdown_refuses_new_work(self):
        pool = PoolExecutor(workers=1, calibrate=False).start()
        pool.shutdown()
        with pytest.raises(WorkerDied, match="shut down"):
            pool.ping()


def _unlinked_mappings(pid: int) -> set:
    """Shared-memory segments ``pid`` still maps after their unlink."""
    with open(f"/proc/{pid}/maps") as fh:
        return {
            line.split()[-2] for line in fh
            if "/dev/shm/" in line and line.rstrip().endswith("(deleted)")
        }


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/<pid>/maps")
class TestWorkerMappings:
    """A worker unmaps a segment once the parent is done with it, so
    repeated solves do not grow worker memory."""

    def _assert_no_stale(self, pool, baseline):
        for pid in pool.worker_pids():
            assert _unlinked_mappings(pid) <= baseline[pid], pid

    def test_pooled_parallel_solves_leave_no_mappings(self):
        from repro.hirschberg.parallel import connected_components_parallel

        with PoolExecutor(workers=2, calibrate=False) as pool:
            baseline = {p: _unlinked_mappings(p) for p in pool.worker_pids()}
            for seed in range(4):
                g = random_edge_list(3_000, 9_000, seed=seed)
                res = connected_components_parallel(g, pool=pool)
                assert np.array_equal(res.labels, _oracle_sparse(g))
                self._assert_no_stale(pool, baseline)

    def test_transient_slabs_unmapped_after_their_task(self):
        # a 1-byte slab budget makes every slab transient (unlinked on
        # release instead of recycled)
        with PoolExecutor(workers=1, calibrate=False,
                          slab_budget=1) as pool:
            baseline = {p: _unlinked_mappings(p) for p in pool.worker_pids()}
            for seed in range(3):
                g = random_edge_list(200, 500, seed=seed)
                assert np.array_equal(pool.solve_solo(g, "contracting"),
                                      _oracle_sparse(g))
                self._assert_no_stale(pool, baseline)

    def test_failed_task_segments_unmapped(self):
        with PoolExecutor(workers=1, calibrate=False) as pool:
            baseline = {p: _unlinked_mappings(p) for p in pool.worker_pids()}
            with pytest.raises(RuntimeError, match="pool worker error"):
                pool.solve_coalesced([random_edge_list(10, 20, seed=0)],
                                     "no-such-engine")
            self._assert_no_stale(pool, baseline)

    def test_detach_unknown_names_and_after_shutdown(self):
        pool = PoolExecutor(workers=1, calibrate=False).start()
        pool.detach(["no-such-segment"])
        pool.shutdown()
        pool.detach(["no-such-segment"])  # no-op, does not raise


class TestCrashRecovery:
    def test_killed_worker_is_replaced_and_work_retried(self):
        with PoolExecutor(workers=1, calibrate=False) as pool:
            (victim,) = pool.worker_pids()
            # hold the worker busy long enough to be killed mid-task
            import threading

            done = {}

            def probe():
                pool.ping(sleep=0.4)
                done["ok"] = True

            t = threading.Thread(target=probe)
            t.start()
            time.sleep(0.1)  # the worker has claimed the ping by now
            os.kill(victim, signal.SIGKILL)
            t.join(timeout=15.0)
            assert done.get("ok"), "retried ping never resolved"
            assert pool.restarts >= 1
            assert pool.worker_pids() != [victim]
            # the replacement serves real work
            g = random_edge_list(50, 120, seed=4)
            assert np.array_equal(
                pool.solve_coalesced([g])[0], _oracle_sparse(g)
            )
        assert not any(
            name for name in live_segments() if name
        ), "crash recovery leaked shared segments"


class TestServerPoolExecutor:
    def _config(self, **overrides):
        defaults = dict(
            executor="pool", process_workers=1, workers=2, max_wait=0.005,
        )
        defaults.update(overrides)
        return ServerConfig(**defaults)

    def test_config_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            ServerConfig(executor="quantum")

    def test_serve_many_matches_oracle(self):
        graphs = [random_edge_list(60, 140, seed=s) for s in range(12)]
        graphs += [random_graph(16, 0.3, seed=s).matrix for s in range(6)]
        responses = serve_many(graphs, config=self._config())
        for g, resp in zip(graphs, responses):
            assert resp.status is RequestStatus.OK
            if isinstance(g, EdgeListGraph):
                assert np.array_equal(resp.labels, _oracle_sparse(g))

    def test_measured_overhead_feeds_cost_model(self):
        with Server(self._config()) as server:
            assert (server.cost_model.pool_dispatch_overhead
                    == server._pool.measured_overhead > 0.0)
            assert (server._planner.model.pool_dispatch_overhead
                    == server.cost_model.pool_dispatch_overhead)

    def test_paying_batches_ride_the_pool(self):
        from dataclasses import replace

        graphs = [random_graph(64, 0.05, seed=s) for s in range(12)]
        with Server(self._config(max_wait=0.05)) as server:
            # zero the dispatch overhead so every batch pays for the pool
            server._planner.model = replace(
                server._planner.model, pool_dispatch_overhead=0.0
            )
            handles = [server.submit(g) for g in graphs]
            responses = [h.response(timeout=30.0) for h in handles]
        engines = {r.engine for r in responses}
        assert any(e.startswith("pool:") for e in engines), engines

    def test_tiny_batches_stay_inline(self):
        graphs = [random_edge_list(8, 12, seed=s) for s in range(6)]
        responses = serve_many(graphs, config=self._config())
        assert not any(
            r.engine.startswith("pool:") for r in responses
        )

    def test_pool_gauges_in_snapshot(self):
        with Server(self._config()) as server:
            server.submit(random_edge_list(20, 40, seed=0)).response()
            gauges = server.metrics_snapshot()["gauges"]
        assert "pool_restarts" in gauges
        assert gauges["pool_dispatch_overhead_s"] > 0.0

    def test_server_stop_leaves_no_segments(self):
        before = live_segments()
        with Server(self._config()) as server:
            server.submit(random_edge_list(30, 70, seed=2)).response()
        assert live_segments() == before

    def test_worker_killed_during_serve_many_all_requests_resolve(self):
        graphs = [random_edge_list(64, 150, seed=s) for s in range(40)]
        before = live_segments()
        with Server(self._config(max_wait=0.002)) as server:
            handles = [server.submit(g) for g in graphs[:20]]
            (victim,) = server._pool.worker_pids()
            os.kill(victim, signal.SIGKILL)
            handles += [server.submit(g) for g in graphs[20:]]
            responses = [h.response(timeout=30.0) for h in handles]
        for g, resp in zip(graphs, responses):
            assert resp.status is RequestStatus.OK, resp
            assert np.array_equal(resp.labels, _oracle_sparse(g))
        assert live_segments() == before
