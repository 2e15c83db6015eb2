"""Tests for the work-efficient edge-list variant."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graphs.components import canonical_labels
from repro.graphs.generators import path_graph, random_graph
from repro.graphs.union_find import UnionFind
from repro.hirschberg.edgelist import (
    EdgeListGraph,
    connected_components_edgelist,
    random_edge_list,
)
from tests.conftest import adjacency_matrices


class TestEdgeListGraph:
    def test_from_edges(self):
        g = EdgeListGraph.from_edges(4, [(0, 1), (2, 3)])
        assert g.n == 4
        assert g.edge_count == 2
        assert g.src.size == 4  # both directions

    def test_empty(self):
        g = EdgeListGraph.from_edges(3, [])
        assert g.edge_count == 0

    def test_drops_self_loops(self):
        g = EdgeListGraph.from_edges(3, [(1, 1), (0, 2)])
        assert g.edge_count == 1
        assert sorted(zip(g.src.tolist(), g.dst.tolist())) == [(0, 2), (2, 0)]

    def test_deduplicates_parallel_edges(self):
        # parallel copies and the reversed orientation all collapse to one
        # undirected edge, so m (and the per-iteration scatter work) is not
        # inflated by messy input
        g = EdgeListGraph.from_edges(4, [(0, 1), (1, 0), (0, 1), (2, 3)])
        assert g.edge_count == 2
        assert g.src.size == 4
        assert sorted(zip(g.src.tolist(), g.dst.tolist())) == [
            (0, 1), (1, 0), (2, 3), (3, 2),
        ]

    def test_from_arrays_matches_from_edges(self):
        import numpy as np

        u = np.array([3, 1, 1, 2, 2], dtype=np.int64)
        v = np.array([3, 0, 0, 4, 1], dtype=np.int64)
        g_arr = EdgeListGraph.from_arrays(5, u, v)
        g_edges = EdgeListGraph.from_edges(5, zip(u.tolist(), v.tolist()))
        assert g_arr.edge_count == g_edges.edge_count == 3
        assert (g_arr.src == g_edges.src).all()
        assert (g_arr.dst == g_edges.dst).all()

    def test_from_arrays_rejects_n_past_int64(self):
        import numpy as np

        top = int(np.iinfo(np.int64).max)
        assert EdgeListGraph.from_arrays(top, [0], [1]).edge_count == 1
        with pytest.raises(ValueError, match="int64"):
            EdgeListGraph.from_arrays(top + 1, [0], [1])
        with pytest.raises(ValueError, match="int64"):
            EdgeListGraph.from_edges(2**64, [(0, 1)])

    def test_from_arrays_rejects_mismatched_lengths(self):
        import numpy as np

        with pytest.raises(ValueError):
            EdgeListGraph.from_arrays(3, np.arange(2), np.arange(3))

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            EdgeListGraph.from_edges(3, [(0, 3)])
        with pytest.raises(IndexError):
            EdgeListGraph.from_edges(3, [(-1, 2)])

    def test_from_adjacency(self):
        dense = random_graph(10, 0.3, seed=0)
        g = EdgeListGraph.from_adjacency(dense)
        assert g.n == 10
        assert g.edge_count == dense.edge_count


class TestCorrectness:
    def test_corpus(self, corpus_graph):
        got = connected_components_edgelist(corpus_graph).labels
        assert np.array_equal(got, canonical_labels(corpus_graph))

    @given(adjacency_matrices(max_n=20))
    @settings(max_examples=60)
    def test_random(self, g):
        got = connected_components_edgelist(g).labels
        assert np.array_equal(got, canonical_labels(g))

    def test_matches_reference_per_iteration(self):
        """Same algorithm, same intermediate labellings as the dense
        reference -- not just the same final answer."""
        from repro.hirschberg.reference import hirschberg_reference

        dense = random_graph(14, 0.25, seed=3)
        ref = hirschberg_reference(dense, keep_history=True)
        for k in range(1, ref.iterations + 1):
            partial = connected_components_edgelist(dense, iterations=k).labels
            assert np.array_equal(partial, ref.history[k]), k

    def test_iterations_zero(self):
        res = connected_components_edgelist(path_graph(5), iterations=0)
        assert res.labels.tolist() == [0, 1, 2, 3, 4]

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            connected_components_edgelist(path_graph(3), iterations=-1)


class TestScale:
    def test_fifty_thousand_nodes(self):
        g = random_edge_list(50_000, 60_000, seed=2)
        res = connected_components_edgelist(g)
        uf = UnionFind(g.n)
        half = g.src.size // 2
        for u, v in zip(g.src[:half].tolist(), g.dst[:half].tolist()):
            uf.union(u, v)
        assert np.array_equal(res.labels, uf.canonical_labels())

    def test_random_edge_list_shape(self):
        g = random_edge_list(1000, 500, seed=0)
        assert g.n == 1000
        assert 0 < g.edge_count <= 500

    def test_random_edge_list_degenerate(self):
        assert random_edge_list(1, 10).edge_count == 0
        assert random_edge_list(5, 0).edge_count == 0


class TestSpanningForestEdgelist:
    def assert_valid(self, graph, labels, forest):
        import numpy as np

        from repro.graphs.components import count_components

        n = graph.n
        uf = UnionFind(n)
        for a, b in forest:
            assert graph.has_edge(a, b), (a, b)
            assert uf.union(a, b), f"cycle through ({a}, {b})"
        assert np.array_equal(labels, canonical_labels(graph))
        assert len(forest) == n - count_components(graph)

    def test_corpus(self, corpus_graph):
        from repro.hirschberg.edgelist import spanning_forest_edgelist

        labels, forest = spanning_forest_edgelist(corpus_graph)
        self.assert_valid(corpus_graph, labels, forest)

    @given(adjacency_matrices(max_n=16))
    @settings(max_examples=40)
    def test_random(self, g):
        from repro.hirschberg.edgelist import spanning_forest_edgelist

        labels, forest = spanning_forest_edgelist(g)
        self.assert_valid(g, labels, forest)

    def test_agrees_with_dense_variant(self):
        """Same witnesses as the dense extraction (both pick the smallest
        witness attaining each minimum)."""
        from repro.extensions.spanning_forest import spanning_forest
        from repro.hirschberg.edgelist import spanning_forest_edgelist

        g = random_graph(14, 0.25, seed=8)
        _labels, forest = spanning_forest_edgelist(g)
        dense = spanning_forest(g)
        assert sorted(forest) == sorted(dense.edges)

    def test_large_scale(self):
        import numpy as np

        from repro.hirschberg.edgelist import (
            random_edge_list,
            spanning_forest_edgelist,
        )

        g = random_edge_list(30_000, 40_000, seed=9)
        labels, forest = spanning_forest_edgelist(g)
        uf = UnionFind(g.n)
        for a, b in forest:
            assert uf.union(a, b)
        assert np.array_equal(labels, uf.canonical_labels())
        assert len(forest) == g.n - np.unique(labels).size


class TestPackLimitBoundary:
    """The int64-packing envelope: ``u * n + v`` keys at and beyond the
    2**31 vertex-count boundary, and the guarded paths past the limit."""

    def _pairs(self, n):
        # edges touching the extreme ids, fed in reverse and duplicated
        u = np.array([n - 1, 0, n - 2, n - 1], dtype=np.int64)
        v = np.array([n - 2, 1, n - 1, n - 2], dtype=np.int64)
        return u, v

    @pytest.mark.parametrize("n", [2**31 - 1, 2**31])
    def test_from_arrays_packs_correctly_at_the_boundary(self, n):
        """The worst packed key ``(n-2) * n + (n-1)`` is ~2**62 here --
        inside int64, and the constructor must not wrap."""
        from repro.hirschberg.edgelist import EdgeListGraph

        u, v = self._pairs(n)
        g = EdgeListGraph.from_arrays(n, u, v)
        half = g.src.size // 2
        got = sorted(zip(g.src[:half].tolist(), g.dst[:half].tolist()))
        assert got == [(0, 1), (n - 2, n - 1)]
        assert g.edge_count == 2

    def test_lexsort_fallback_agrees_with_packed_path(self):
        """Past _PACK_LIMIT the constructors switch to lexsort; the two
        canonicalisations must produce the same pair set."""
        from repro.hirschberg.edgelist import _PACK_LIMIT, _canonical_pairs

        rng = np.random.default_rng(0)
        lo = rng.integers(0, 1_000, size=500).astype(np.int64)
        hi = lo + 1 + rng.integers(0, 1_000, size=500).astype(np.int64)
        packed = _canonical_pairs(_PACK_LIMIT, lo, hi)
        lexed = _canonical_pairs(_PACK_LIMIT + 1, lo, hi)
        assert np.array_equal(packed[0], lexed[0])
        assert np.array_equal(packed[1], lexed[1])

    def test_boundary_graph_solves_end_to_end(self):
        """A 2**31-node edge list flows through the contracting solver
        (label arrays are per-touched-vertex, not per-n, in the sharded
        shard solve -- this pins the from_arrays + packing contract)."""
        from repro.hirschberg.sharded import solve_shard_arrays

        n = 2**31
        u = np.array([n - 1, 5], dtype=np.int64)
        v = np.array([n - 2, 6], dtype=np.int64)
        verts, reps = solve_shard_arrays(n, u, v)
        assert dict(zip(verts.tolist(), reps.tolist())) == {
            6: 5, n - 1: n - 2,
        }

    def test_spanning_forest_raises_clearly_past_the_limit(self):
        from repro.hirschberg.edgelist import (
            _PACK_LIMIT,
            EdgeListGraph,
            spanning_forest_edgelist,
        )

        n = _PACK_LIMIT + 1
        g = EdgeListGraph(
            n=n,
            src=np.array([0, 1], dtype=np.int64),
            dst=np.array([1, 0], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="at most n ="):
            spanning_forest_edgelist(g)

    def test_scatter_argmin_raises_clearly_past_the_limit(self):
        from repro.hirschberg.edgelist import _PACK_LIMIT, _scatter_argmin

        with pytest.raises(ValueError, match="scatter-argmin"):
            _scatter_argmin(
                _PACK_LIMIT + 1,
                np.array([0], dtype=np.int64),
                np.array([0], dtype=np.int64),
                np.array([0], dtype=np.int64),
                _PACK_LIMIT + 1,
            )

    def test_dedup_skip_past_the_limit_is_lossless(self):
        """_dedup_edges refuses the packed sort when k would wrap -- the
        duplicates survive (harmless) instead of merging wrongly."""
        from repro.hirschberg.contracting import _dedup_edges
        from repro.hirschberg.edgelist import _PACK_LIMIT

        k = _PACK_LIMIT + 7
        src = np.array([0, 0, k - 1], dtype=np.int64)
        dst = np.array([k - 1, k - 1, 0], dtype=np.int64)
        out_src, out_dst, deduped = _dedup_edges(k, src, dst)
        assert not deduped
        assert np.array_equal(out_src, src)
        assert np.array_equal(out_dst, dst)
        # below the limit the same edges do get the packed dedup, which
        # treats (0, 9) and (9, 0) as one undirected pair
        small_src, small_dst, small_deduped = _dedup_edges(
            10, np.array([0, 0, 9]), np.array([9, 9, 0])
        )
        assert small_deduped
        assert small_src.tolist() == [0]
        assert small_dst.tolist() == [9]
