"""The sharded out-of-core engine against the union-find oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.shm import live_segments
from repro.graphs.io import save_edge_list_sparse
from repro.graphs.union_find import UnionFind
from repro.hirschberg.edgelist import EdgeListGraph, random_edge_list
from repro.hirschberg.sharded import (
    ShardedResult,
    connected_components_sharded,
    solve_shard_arrays,
)


def oracle_labels(g: EdgeListGraph) -> np.ndarray:
    uf = UnionFind(g.n)
    half = g.src.size // 2
    for u, v in zip(g.src[:half].tolist(), g.dst[:half].tolist()):
        uf.union(u, v)
    return np.asarray(uf.canonical_labels())


class TestSolveShardArrays:
    def test_empty_shard(self):
        verts, reps = solve_shard_arrays(10, np.empty(0), np.empty(0))
        assert verts.size == 0 and reps.size == 0

    def test_frontier_is_star_pairs_to_minimum(self):
        # one path 4-5-6 and one isolated edge 1-2, inside n=10
        u = np.array([4, 5, 1], dtype=np.int64)
        v = np.array([5, 6, 2], dtype=np.int64)
        verts, reps = solve_shard_arrays(10, u, v)
        frontier = dict(zip(verts.tolist(), reps.tolist()))
        assert frontier == {5: 4, 6: 4, 2: 1}

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            solve_shard_arrays(4, np.array([1]), np.array([9]))
        with pytest.raises(ValueError):
            solve_shard_arrays(4, np.array([-1]), np.array([2]))

    def test_out_of_range_message(self):
        with pytest.raises(ValueError) as high:
            solve_shard_arrays(4, np.array([1, 2]), np.array([9, 3]))
        assert str(high.value) == "shard endpoints outside [0, 4): min=1, max=9"
        # an id that only appears in a self-loop is still range-checked
        with pytest.raises(ValueError) as low:
            solve_shard_arrays(4, np.array([0, -3]), np.array([1, -3]))
        assert str(low.value) == "shard endpoints outside [0, 4): min=-3, max=1"


def _unique_frontier(n, u, v):
    """The frontier through ``np.unique`` compaction and union-find."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    verts, inverse = np.unique(np.concatenate([u, v]), return_inverse=True)
    inverse = inverse.reshape(-1)
    uf = UnionFind(int(verts.size))
    for a, b in zip(inverse[:u.size].tolist(), inverse[u.size:].tolist()):
        uf.union(a, b)
    reps = verts[np.asarray(uf.canonical_labels())]
    keep = reps != verts
    return verts[keep], reps[keep]


def _shard_cases():
    rng = np.random.default_rng(17)
    n = 50_000
    u, v = rng.integers(0, n, 8_000), rng.integers(0, n, 8_000)
    loops = rng.integers(0, n, 300)
    yield "subcritical", n, u, v
    yield "loops_and_duplicates", n, (
        np.concatenate([u, v[:2_000], loops])), (
        np.concatenate([v, u[:2_000], loops]))
    yield "int32", n, u.astype(np.int32), v.astype(np.int32)
    yield "top_ids", n, np.full(4, n - 1), np.array([n - 2, n - 3, 0, n - 1])
    yield "loops_only", n, loops, loops
    # a shard holding many pairs per touched id streams in the kernel
    k = 4_000
    dense_u = rng.integers(0, k, 140_000) * 7
    dense_v = rng.integers(0, k, 140_000) * 7
    yield "dense_streamed", 7 * k, dense_u, dense_v


class TestShardFrontierReference:
    @pytest.mark.parametrize(
        "name, n, u, v", list(_shard_cases()),
        ids=[case[0] for case in _shard_cases()],
    )
    def test_matches_unique_reference(self, name, n, u, v):
        verts, reps = solve_shard_arrays(n, u, v)
        want_verts, want_reps = _unique_frontier(n, u, v)
        assert verts.dtype == reps.dtype == np.int64
        assert np.array_equal(verts, want_verts)
        assert np.array_equal(reps, want_reps)


class TestShardedOracle:
    @pytest.mark.parametrize("n,m,shards", [
        (1, 0, None), (2, 1, None), (50, 0, 2), (500, 800, 3),
        (5_000, 12_000, 4), (20_000, 60_000, 7),
    ])
    def test_matches_union_find(self, n, m, shards, tmp_path):
        g = random_edge_list(n, m, seed=n)
        res = connected_components_sharded(
            g, shards=shards, memory_budget=64 << 20,
            workdir=tmp_path / "w", spot_check=True,
        )
        assert isinstance(res, ShardedResult)
        assert np.array_equal(res.labels, oracle_labels(g))
        assert res.spot_check is not None and res.spot_check.ok
        if shards is not None:
            assert res.plan.shards == shards

    def test_matches_contracting_engine_bit_for_bit(self):
        from repro.hirschberg.contracting import (
            connected_components_contracting,
        )

        g = random_edge_list(3_000, 9_000, seed=42)
        sharded = connected_components_sharded(g, shards=5)
        in_ram = connected_components_contracting(g)
        assert np.array_equal(sharded.labels, in_ram.labels)

    def test_result_bookkeeping(self):
        g = random_edge_list(1_000, 3_000, seed=13)
        res = connected_components_sharded(g, shards=3)
        assert res.edges == g.edge_count  # a graph streams each edge once
        assert len(res.shard_stats) == 3
        assert sum(s["edges"] for s in res.shard_stats) == g.edge_count
        assert res.merge_passes >= 1
        assert set(res.seconds) >= {"partition", "solve", "merge", "total"}
        assert res.components == int(np.unique(res.labels).size)


class TestShardedSources:
    def test_path_source_streams_the_file(self, tmp_path):
        g = random_edge_list(800, 1_500, seed=21)
        path = tmp_path / "graph.txt"
        save_edge_list_sparse(g, path)
        res = connected_components_sharded(str(path), shards=3)
        assert np.array_equal(res.labels, oracle_labels(g))

    def test_chunk_iterable_source(self):
        g = random_edge_list(600, 1_200, seed=22)
        half = g.src.size // 2

        def chunks():
            for start in range(0, half, 100):
                stop = min(start + 100, half)
                yield g.src[start:stop], g.dst[start:stop]

        res = connected_components_sharded(
            (g.n, chunks()), edges_hint=half, shards=2
        )
        assert np.array_equal(res.labels, oracle_labels(g))

    def test_unknown_source_type_rejected(self):
        with pytest.raises(TypeError):
            connected_components_sharded(42)

    def test_bad_workers_rejected(self):
        g = random_edge_list(10, 5, seed=1)
        with pytest.raises(ValueError):
            connected_components_sharded(g, workers=-1)


class TestShardedPoolPaths:
    """The shm worker paths: private pool, borrowed pool, and the
    no-leak postcondition the CI /dev/shm diff also enforces."""

    def test_private_pool_matches_oracle_and_leaks_nothing(self):
        g = random_edge_list(4_000, 10_000, seed=31)
        before = live_segments()
        res = connected_components_sharded(g, shards=4, workers=1)
        assert np.array_equal(res.labels, oracle_labels(g))
        assert live_segments() == before

    def test_borrowed_pool(self):
        from repro.serve.executor import PoolExecutor

        g = random_edge_list(2_000, 5_000, seed=32)
        pool = PoolExecutor(workers=1).start()
        try:
            res = connected_components_sharded(g, shards=3, pool=pool)
            assert np.array_equal(res.labels, oracle_labels(g))
            # the borrowed pool is still serviceable afterwards
            verts, reps = pool.solve_shard(
                4, np.array([2, 0], dtype=np.int64),
                np.array([3, 1], dtype=np.int64),
            )
            assert dict(zip(verts.tolist(), reps.tolist())) == {1: 0, 3: 2}
        finally:
            pool.shutdown()
        assert live_segments() == frozenset()

    def test_executor_solve_shard_empty(self):
        from repro.serve.executor import PoolExecutor

        pool = PoolExecutor(workers=1).start()
        try:
            verts, reps = pool.solve_shard(
                5, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            )
            assert verts.size == 0 and reps.size == 0
        finally:
            pool.shutdown()


    def test_worker_killed_mid_solve_labels_still_exact(self):
        """SIGKILL one worker of a borrowed 2-worker pool while the
        sharded engine is shipping shard solves: the dead worker's
        task fails over to its replacement, the labels stay exact and
        no segment leaks."""
        import os
        import signal
        import threading
        import time

        from repro.serve.executor import PoolExecutor

        g = random_edge_list(20_000, 60_000, seed=33)
        before = live_segments()
        pool = PoolExecutor(workers=2).start()
        try:
            victim = pool.worker_pids()[0]
            real = pool.solve_shard
            killer: list = []

            def solve_shard(n, u, v):
                if not killer:
                    # the first shard is on its way: kill a worker just
                    # after it has been handed work
                    killer.append(threading.Timer(
                        0.005, os.kill, (victim, signal.SIGKILL)))
                    killer[0].start()
                return real(n, u, v)

            pool.solve_shard = solve_shard
            res = connected_components_sharded(g, shards=8, pool=pool)
            killer[0].join(timeout=5.0)
            assert not killer[0].is_alive()
            assert np.array_equal(res.labels, oracle_labels(g))
            deadline = time.monotonic() + 10.0
            while pool.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert pool.restarts >= 1
            assert victim not in pool.worker_pids()
        finally:
            pool.shutdown()
        assert live_segments() == before

    def test_shm_sanitizer_window_is_clean(self):
        """A pooled sharded solve inside the shm sanitizer: slabs are
        acquired (the window is not empty), every write-epoch stamp
        survives and no segment leaks."""
        from repro.check.sanitizer import shm_sanitizer
        from repro.serve.executor import PoolExecutor

        g = random_edge_list(6_000, 15_000, seed=34)
        with shm_sanitizer(strict=False) as report:
            with PoolExecutor(workers=2) as pool:
                res = connected_components_sharded(g, shards=4, pool=pool)
        assert np.array_equal(res.labels, oracle_labels(g))
        assert report.slab_acquires > 0
        report.verify()


class TestWorkdirHygiene:
    def test_default_workdir_removed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        import tempfile

        tempfile.tempdir = None  # re-read TMPDIR
        try:
            g = random_edge_list(300, 600, seed=41)
            connected_components_sharded(g, shards=2)
            leftovers = list(tmp_path.iterdir())
            assert leftovers == []
        finally:
            tempfile.tempdir = None

    def test_explicit_workdir_removed_unless_kept(self, tmp_path):
        g = random_edge_list(300, 600, seed=42)
        work = tmp_path / "w"
        connected_components_sharded(g, shards=2, workdir=work)
        assert not work.exists()
        res = connected_components_sharded(
            g, shards=2, workdir=work, keep_workdir=True
        )
        assert work.exists() and list(work.glob("*.pairs"))
        assert np.array_equal(res.labels, oracle_labels(g))

    def test_user_files_survive_cleanup(self, tmp_path):
        g = random_edge_list(100, 200, seed=43)
        work = tmp_path / "w"
        work.mkdir()
        keep = work / "notes.txt"
        keep.write_text("mine")
        connected_components_sharded(g, shards=2, workdir=work)
        assert keep.exists() and keep.read_text() == "mine"
        assert not list(work.glob("*.pairs"))


class TestSpilledLabels:
    def test_tiny_budget_spills_labels_and_stays_correct(self):
        # a budget so small that the n*8 label array must go to disk
        g = random_edge_list(5_000, 8_000, seed=51)
        res = connected_components_sharded(g, memory_budget=32 << 10)
        assert np.array_equal(res.labels, oracle_labels(g))
        # the returned labels are plain in-RAM arrays, not memmaps
        assert type(res.labels) is np.ndarray
