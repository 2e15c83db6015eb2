"""Tests for the persistent shared-memory pool executor.

Covers the PoolExecutor in isolation on the task kinds its engines ship:
shard solves round-tripped against a union-find oracle, engine errors
raised without a retry, crash replacement with single-retry failover,
worker unmapping of finished segments and leak-free shutdown.  A worker
killed mid-solve under the sharded engine is covered in
``tests/hirschberg/test_sharded.py``.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.analysis.shm import live_segments
from repro.graphs.union_find import UnionFind
from repro.hirschberg.edgelist import EdgeListGraph, random_edge_list
from repro.serve import PoolExecutor, WorkerDied


def _oracle_sparse(graph: EdgeListGraph) -> np.ndarray:
    uf = UnionFind(graph.n)
    for s, d in zip(graph.src, graph.dst):
        uf.union(int(s), int(d))
    return uf.canonical_labels()


def _shard(n: int, m: int, seed: int):
    """One shard's raw endpoint arrays: ``m`` random pairs on ``n`` ids."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, m), rng.integers(0, n, m)


def _frontier(verts: np.ndarray, reps: np.ndarray) -> dict:
    return dict(zip(verts.tolist(), reps.tolist()))


def _oracle_frontier(n: int, u: np.ndarray, v: np.ndarray) -> dict:
    """Star pairs ``vertex -> component minimum`` of every non-minimum
    vertex the shard touches, through union-find."""
    uf = UnionFind(n)
    for a, b in zip(u.tolist(), v.tolist()):
        uf.union(a, b)
    labels = uf.canonical_labels()
    touched = np.unique(np.concatenate([u, v])).tolist()
    return {x: int(labels[x]) for x in touched if labels[x] != x}


def _assert_shard_round_trip(pool, n: int, m: int, seed: int) -> None:
    u, v = _shard(n, m, seed)
    assert _frontier(*pool.solve_shard(n, u, v)) == _oracle_frontier(n, u, v)


#: Endpoints outside ``[0, n)``: the worker's shard solve raises.
_BAD_SHARD = (10, np.array([0, 50], dtype=np.int64),
              np.array([1, 2], dtype=np.int64))


@pytest.fixture
def pool():
    executor = PoolExecutor(workers=1).start()
    yield executor
    executor.shutdown()


class TestPoolExecutor:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            PoolExecutor(0)

    def test_ping_round_trip(self, pool):
        pool.ping()
        assert pool.inflight == 0

    def test_shard_matches_oracle(self, pool):
        for seed, (n, m) in enumerate(((40, 30), (200, 500), (1_000, 400))):
            _assert_shard_round_trip(pool, n, m, seed)

    def test_empty_batches(self, pool):
        empty = np.empty(0, dtype=np.int64)
        verts, reps = pool.solve_shard(5, empty, empty)
        assert verts.size == 0 and reps.size == 0
        # a shard of self-loops touches ids but has no frontier
        loops = np.array([3, 3], dtype=np.int64)
        verts, reps = pool.solve_shard(5, loops, loops)
        assert verts.size == 0 and reps.size == 0

    def test_engine_error_not_retried(self, pool):
        with pytest.raises(RuntimeError, match="pool worker error.*outside"):
            pool.solve_shard(*_BAD_SHARD)
        # an engine error is not a death: no worker was replaced
        assert pool.restarts == 0
        _assert_shard_round_trip(pool, 30, 40, 1)

    def test_heartbeats_advance(self, pool):
        before = pool.heartbeats()[0]
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if pool.heartbeats()[0] > before:
                return
            time.sleep(0.02)
        pytest.fail("heartbeat never advanced")

    def test_context_manager_shutdown_leaves_no_segments(self):
        before = live_segments()
        with PoolExecutor(workers=1) as pool:
            pool.solve_shard(30, *_shard(30, 60, 1))
            assert len(live_segments()) > len(before)
        assert live_segments() == before

    def test_shutdown_is_idempotent(self):
        pool = PoolExecutor(workers=1).start()
        pool.shutdown()
        pool.shutdown()

    def test_shutdown_refuses_new_work(self):
        pool = PoolExecutor(workers=1).start()
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

        with PoolExecutor(workers=2) as pool:
            baseline = {p: _unlinked_mappings(p) for p in pool.worker_pids()}
            for seed in range(4):
                g = random_edge_list(3_000, 9_000, seed=seed)
                res = connected_components_parallel(g, pool=pool)
                assert np.array_equal(res.labels, _oracle_sparse(g))
                self._assert_no_stale(pool, baseline)

    def test_transient_slabs_unmapped_after_their_task(self):
        # a 1-byte slab budget makes every slab transient (unlinked on
        # release instead of recycled)
        with PoolExecutor(workers=1, slab_budget=1) as pool:
            baseline = {p: _unlinked_mappings(p) for p in pool.worker_pids()}
            for seed in range(3):
                _assert_shard_round_trip(pool, 200, 500, seed)
                self._assert_no_stale(pool, baseline)

    def test_failed_task_segments_unmapped(self):
        with PoolExecutor(workers=1) as pool:
            baseline = {p: _unlinked_mappings(p) for p in pool.worker_pids()}
            with pytest.raises(RuntimeError, match="pool worker error"):
                pool.solve_shard(*_BAD_SHARD)
            self._assert_no_stale(pool, baseline)

    def test_detach_unknown_names_and_after_shutdown(self):
        pool = PoolExecutor(workers=1).start()
        pool.detach(["no-such-segment"])
        pool.shutdown()
        pool.detach(["no-such-segment"])  # no-op, does not raise


class TestCrashRecovery:
    def test_killed_worker_is_replaced_and_work_retried(self):
        with PoolExecutor(workers=1) as pool:
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
            _assert_shard_round_trip(pool, 50, 120, 4)
        assert not any(
            name for name in live_segments() if name
        ), "crash recovery leaked shared segments"
