"""The chunk-parallel label-propagation engine against the oracles.

Every variant must emit the canonical minimum-index labelling
bit-for-bit -- the same vector as the union-find oracle, the
contracting engine and ``fastsv_reference`` -- for any chunking, any
worker count, and on every degenerate shape (empty, singleton,
edgeless, more chunks than edges).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.shm import live_segments
from repro.graphs.components import canonical_labels
from repro.graphs.union_find import UnionFind
from repro.hirschberg.edgelist import EdgeListGraph, random_edge_list
from repro.hirschberg.fastsv import fastsv_reference
from repro.hirschberg.parallel import (
    DEFAULT_SEED,
    ParallelResult,
    connected_components_parallel,
)
from repro.core import parallel_kernels as pk
from tests.conftest import adjacency_matrices


def oracle_labels(g: EdgeListGraph) -> np.ndarray:
    uf = UnionFind(g.n)
    half = g.src.size // 2
    for u, v in zip(g.src[:half].tolist(), g.dst[:half].tolist()):
        uf.union(u, v)
    return np.asarray(uf.canonical_labels())


def edgeless(n: int) -> EdgeListGraph:
    return EdgeListGraph(
        n=n, src=np.empty(0, dtype=np.int64), dst=np.empty(0, dtype=np.int64)
    )


class TestKernels:
    def test_chunk_bounds_balanced_and_degenerate(self):
        b = pk.chunk_bounds(10, 3)
        assert b[0] == 0 and b[-1] == 10
        assert np.all(np.diff(b) >= 0)
        # more chunks than items: trailing empty chunks, still covering
        b = pk.chunk_bounds(2, 8)
        assert b[0] == 0 and b[-1] == 2 and len(b) == 9
        with pytest.raises(ValueError):
            pk.chunk_bounds(10, 0)
        with pytest.raises(ValueError):
            pk.chunk_bounds(-1, 2)

    @pytest.mark.parametrize("variant", pk.VARIANTS)
    @pytest.mark.parametrize("chunks", [1, 2, 3, 7])
    def test_hook_is_chunk_invariant(self, variant, chunks):
        """The elementwise min of per-chunk partials equals the serial
        scatter over all edges -- MIN is associative and commutative."""
        g = random_edge_list(200, 600, seed=9)
        rng = np.random.default_rng(1)
        f = np.minimum(np.arange(g.n), rng.integers(0, g.n, g.n))
        seed = 77 if variant == "stochastic" else pk.DETERMINISTIC
        serial = np.empty(g.n, dtype=np.int64)
        pk.hook_partial(f, g.src, g.dst, 0, g.src.size, serial,
                        variant, seed)
        bounds = pk.chunk_bounds(g.src.size, chunks)
        partials = [np.empty(g.n, dtype=np.int64) for _ in range(chunks)]
        for i in range(chunks):
            pk.hook_partial(f, g.src, g.dst, int(bounds[i]),
                            int(bounds[i + 1]), partials[i], variant, seed)
        merged = partials[0]
        for p in partials[1:]:
            np.minimum(merged, p, out=merged)
        assert np.array_equal(merged, serial)

    def test_jump_chunk_writes_only_its_slice(self):
        front = np.array([0, 0, 1, 2, 4, 4, 5], dtype=np.int64)
        back = np.full(7, -7, dtype=np.int64)
        pk.jump_chunk(front, back, 2, 5)
        assert np.array_equal(back[:2], [-7, -7])
        assert np.array_equal(back[5:], [-7, -7])
        assert np.array_equal(back[2:5], [0, 1, 4])

    @pytest.mark.parametrize("variant", ["sv", "fastsv"])
    def test_serial_round_ends_with_stars(self, variant):
        """A round jumps until no label moves: every tree it leaves is a
        star, so no round ends with a pointer chain still unresolved."""
        g = random_edge_list(2_000, 2_600, seed=5)
        f = np.arange(g.n, dtype=np.int64)
        scratch = np.empty(g.n, dtype=np.int64)
        back = np.empty(g.n, dtype=np.int64)
        hooked, jumped = pk.serial_round(f, g.src, g.dst, scratch, back,
                                         variant)
        assert hooked and jumped
        assert np.array_equal(back[back], back)
        assert np.array_equal(back, f)

    def test_combine_partials_reports_change(self):
        f = np.array([3, 4, 5], dtype=np.int64)
        assert pk.combine_partials(f, [np.array([3, 4, 5], dtype=np.int64)]) \
            is False
        assert pk.combine_partials(f, [np.array([9, 2, 9], dtype=np.int64)])
        assert np.array_equal(f, [3, 2, 5])
        assert pk.combine_partials(f, []) is False

    def test_coins_depend_only_on_label_and_seed(self):
        labels = np.arange(64, dtype=np.int64)
        a = pk._coins(labels, 5)
        b = pk._coins(labels.copy(), 5)
        assert np.array_equal(a, b)
        assert a.any() and not a.all()  # a fair-ish mix of both faces
        assert not np.array_equal(a, pk._coins(labels, 6))


class TestDegenerate:
    @pytest.mark.parametrize("variant", pk.VARIANTS)
    def test_empty_graph(self, variant):
        res = connected_components_parallel(edgeless(0), variant=variant)
        assert isinstance(res, ParallelResult)
        assert res.labels.size == 0 and res.component_count == 0

    @pytest.mark.parametrize("variant", pk.VARIANTS)
    def test_single_vertex(self, variant):
        res = connected_components_parallel(edgeless(1), variant=variant)
        assert np.array_equal(res.labels, [0])
        assert res.component_count == 1

    def test_edgeless_graph(self):
        res = connected_components_parallel(edgeless(64))
        assert np.array_equal(res.labels, np.arange(64))

    def test_more_chunks_than_edges(self):
        g = random_edge_list(30, 4, seed=3)
        res = connected_components_parallel(g, chunks=64)
        assert np.array_equal(res.labels, oracle_labels(g))
        assert res.chunks == 64

    def test_round_cap_respected(self):
        g = random_edge_list(512, 511, seed=8)
        res = connected_components_parallel(g, max_rounds=1)
        assert res.rounds == 1

    def test_validation(self):
        g = random_edge_list(10, 5, seed=1)
        with pytest.raises(ValueError):
            connected_components_parallel(g, variant="nope")
        with pytest.raises(ValueError):
            connected_components_parallel(g, chunks=0)
        with pytest.raises(ValueError):
            connected_components_parallel(g, seed=-2)


class TestOracle:
    @pytest.mark.parametrize("variant", pk.VARIANTS)
    @pytest.mark.parametrize("n,m", [
        (2, 1), (50, 25), (200, 400), (1_000, 1_500), (5_000, 20_000),
    ])
    def test_matches_union_find(self, variant, n, m):
        g = random_edge_list(n, m, seed=n + m)
        res = connected_components_parallel(g, variant=variant)
        assert np.array_equal(res.labels, oracle_labels(g))
        assert not res.pooled and res.workers == 1

    def test_variants_bit_identical(self):
        g = random_edge_list(2_000, 6_000, seed=17)
        runs = [
            connected_components_parallel(g, variant=v).labels
            for v in pk.VARIANTS
        ]
        for labels in runs[1:]:
            assert np.array_equal(labels, runs[0])

    def test_stochastic_confirms_deterministically(self):
        g = random_edge_list(3_000, 4_500, seed=23)
        res = connected_components_parallel(
            g, variant="stochastic", seed=DEFAULT_SEED
        )
        assert res.confirm_rounds >= 1
        assert np.array_equal(res.labels, oracle_labels(g))

    @given(adjacency_matrices(max_n=24))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_all_variants_vs_oracles(self, g):
        edges = EdgeListGraph.from_adjacency(g)
        expected = canonical_labels(g)
        reference = fastsv_reference(g).labels
        assert np.array_equal(reference, expected)
        for variant in pk.VARIANTS:
            for chunks in (1, 3):
                res = connected_components_parallel(
                    edges, variant=variant, chunks=chunks
                )
                assert np.array_equal(res.labels, expected), (variant, chunks)


class TestPooled:
    @pytest.fixture(scope="class")
    def pool(self):
        from repro.serve.executor import PoolExecutor

        pool = PoolExecutor(workers=2).start()
        yield pool
        pool.shutdown()
        assert live_segments() == frozenset()

    @pytest.mark.parametrize("variant", pk.VARIANTS)
    def test_pooled_matches_inline_bit_for_bit(self, pool, variant):
        g = random_edge_list(4_000, 12_000, seed=29)
        inline = connected_components_parallel(g, variant=variant)
        pooled = connected_components_parallel(g, variant=variant, pool=pool)
        assert pooled.pooled and pooled.workers == 2
        assert np.array_equal(pooled.labels, inline.labels)
        assert (pooled.rounds, pooled.confirm_rounds) \
            == (inline.rounds, inline.confirm_rounds)

    def test_single_worker_pool(self):
        from repro.serve.executor import PoolExecutor

        g = random_edge_list(1_000, 2_500, seed=33)
        pool = PoolExecutor(workers=1).start()
        try:
            res = connected_components_parallel(g, pool=pool)
            assert np.array_equal(res.labels, oracle_labels(g))
            assert res.workers == 1 and res.pooled
        finally:
            pool.shutdown()

    def test_chunk_override_and_no_leaks(self, pool):
        g = random_edge_list(600, 1_800, seed=37)
        before = live_segments()
        res = connected_components_parallel(g, pool=pool, chunks=5)
        assert res.chunks == 5
        assert np.array_equal(res.labels, oracle_labels(g))
        assert live_segments() == before

    def test_executor_chunk_rounds_directly(self, pool):
        """The executor's barrier API: one hook round + one jump round
        hand-driven over shared slabs."""
        from repro.analysis.shm import SharedArray

        g = random_edge_list(100, 300, seed=41)
        blocks = []
        try:
            src = SharedArray.create(g.src)
            blocks.append(src)
            dst = SharedArray.create(g.dst)
            blocks.append(dst)
            f = SharedArray.create(np.arange(g.n, dtype=np.int64))
            blocks.append(f)
            back = SharedArray.zeros((g.n,), np.int64)
            blocks.append(back)
            parts = SharedArray.zeros((2, g.n), np.int64)
            blocks.append(parts)
            from repro.analysis.shm import SharedArrayRef

            rows = [
                SharedArrayRef(parts.ref.name, (g.n,), np.dtype(np.int64).str,
                               offset=i * g.n * 8)
                for i in range(2)
            ]
            bounds = pk.chunk_bounds(g.src.size, 2)
            pool.label_hook_round(f.ref, src.ref, dst.ref, rows,
                                  bounds, variant="sv")
            expected = np.empty(g.n, dtype=np.int64)
            pk.hook_partial(np.arange(g.n), g.src, g.dst, 0, g.src.size,
                            expected, "sv")
            merged = np.minimum(parts.array[0], parts.array[1])
            assert np.array_equal(merged, expected)
            pk.combine_partials(f.array, [parts.array[0], parts.array[1]])
            vbounds = pk.chunk_bounds(g.n, 2)
            pool.label_jump_round(f.ref, back.ref, vbounds)
            serial = np.empty(g.n, dtype=np.int64)
            pk.jump_chunk(f.array, serial, 0, g.n)
            assert np.array_equal(back.array, serial)
        finally:
            for b in blocks:
                b.close()
                b.unlink()
