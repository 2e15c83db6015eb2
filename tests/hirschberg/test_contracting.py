"""Tests for the contracting sparse variant."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.components import canonical_labels
from repro.graphs.generators import (
    path_graph,
    random_graph,
    star_graph,
    union_of_cliques,
)
from repro.graphs.union_find import UnionFind
from repro.hirschberg import contracting
from repro.hirschberg.contracting import (
    ContractingResult,
    ContractionLevel,
    connected_components_contracting,
)
from repro.hirschberg.edgelist import EdgeListGraph, random_edge_list
from repro.hirschberg.fastsv import fastsv_reference
from tests.conftest import adjacency_matrices


def _pair_oracle(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    uf = UnionFind(n)
    for a, b in zip(u.tolist(), v.tolist()):
        uf.union(a, b)
    return uf.canonical_labels()


def _oracle(graph: EdgeListGraph) -> np.ndarray:
    half = graph.src.size // 2
    return _pair_oracle(graph.n, graph.src[:half], graph.dst[:half])


class TestCorrectness:
    def test_corpus(self, corpus_graph):
        got = connected_components_contracting(corpus_graph).labels
        assert np.array_equal(got, canonical_labels(corpus_graph))

    @given(adjacency_matrices(max_n=20))
    @settings(max_examples=60)
    def test_random(self, g):
        got = connected_components_contracting(g).labels
        assert np.array_equal(got, canonical_labels(g))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    def test_path(self, n):
        g = path_graph(n)
        res = connected_components_contracting(g)
        assert np.array_equal(res.labels, np.zeros(n, dtype=np.int64))

    @pytest.mark.parametrize("n", [2, 5, 33])
    def test_star(self, n):
        g = star_graph(n)
        res = connected_components_contracting(g)
        assert np.array_equal(res.labels, canonical_labels(g))

    def test_disconnected_union(self):
        g = union_of_cliques([4, 1, 6, 2])
        res = connected_components_contracting(g)
        assert np.array_equal(res.labels, canonical_labels(g))
        assert res.component_count == 4

    def test_agrees_with_fastsv(self):
        for seed in range(5):
            g = random_graph(40, 0.08, seed=seed)
            ours = connected_components_contracting(g).labels
            assert np.array_equal(ours, fastsv_reference(g).labels)

    def test_edge_list_and_dense_inputs_agree(self):
        dense = random_graph(25, 0.15, seed=7)
        sparse = EdgeListGraph.from_adjacency(dense)
        a = connected_components_contracting(dense)
        b = connected_components_contracting(sparse)
        assert np.array_equal(a.labels, b.labels)


class TestEdgeCases:
    def test_single_vertex(self):
        res = connected_components_contracting(path_graph(1))
        assert res.labels.tolist() == [0]
        assert res.iterations == 0
        assert res.contracted_to_empty

    def test_no_edges(self):
        g = EdgeListGraph.from_edges(6, [])
        res = connected_components_contracting(g)
        assert res.labels.tolist() == list(range(6))
        assert res.iterations == 0
        assert res.component_count == 6

    def test_two_nodes(self):
        g = EdgeListGraph.from_edges(2, [(0, 1)])
        res = connected_components_contracting(g)
        assert res.labels.tolist() == [0, 0]


class TestContractionStack:
    def test_levels_shrink_monotonically(self):
        g = random_edge_list(5_000, 9_000, seed=3)
        res = connected_components_contracting(g)
        ns = [level.n for level in res.levels]
        assert ns == sorted(ns, reverse=True)
        assert all(b < a for a, b in zip(ns, ns[1:]))
        assert res.levels[0].n == g.n
        assert res.contracted_to_empty

    def test_level_count_logarithmic(self):
        g = random_edge_list(10_000, 20_000, seed=1)
        res = connected_components_contracting(g)
        # non-isolated supervertex count at least halves per level
        assert res.iterations <= int(np.ceil(np.log2(g.n))) + 1

    def test_total_work(self):
        g = random_edge_list(1_000, 2_000, seed=0)
        res = connected_components_contracting(g)
        assert res.total_work == sum(l.n + l.m for l in res.levels)
        assert res.total_work >= g.n

    def test_max_levels_truncates(self):
        g = random_edge_list(5_000, 9_000, seed=3)
        full = connected_components_contracting(g)
        assert full.iterations > 1
        capped = connected_components_contracting(g, max_levels=1)
        assert capped.iterations == 1
        assert not capped.contracted_to_empty
        # truncation never merges across components: every partial group
        # sits inside one true component
        for lab in np.unique(capped.labels):
            members = np.flatnonzero(capped.labels == lab)
            assert np.unique(full.labels[members]).size == 1

    def test_max_levels_zero_is_identity(self):
        g = path_graph(5)
        res = connected_components_contracting(g, max_levels=0)
        assert res.labels.tolist() == [0, 1, 2, 3, 4]
        assert res.iterations == 0

    def test_rejects_negative_max_levels(self):
        with pytest.raises(ValueError):
            connected_components_contracting(path_graph(3), max_levels=-1)

    def test_level_records(self):
        res = connected_components_contracting(path_graph(8))
        assert isinstance(res, ContractingResult)
        for level in res.levels:
            assert isinstance(level, ContractionLevel)
            assert level.edge_count == level.m // 2


class TestScale:
    def test_fifty_thousand_nodes_vs_oracle(self):
        g = random_edge_list(50_000, 70_000, seed=4)
        res = connected_components_contracting(g)
        assert np.array_equal(res.labels, _oracle(g))

    def test_agrees_with_edgelist_at_scale(self):
        from repro.hirschberg.edgelist import connected_components_edgelist

        g = random_edge_list(200_000, 500_000, seed=5)
        a = connected_components_contracting(g).labels
        b = connected_components_edgelist(g).labels
        assert np.array_equal(a, b)


def _blocks(n: int, block: int, pairs: int, seed: int) -> EdgeListGraph:
    """Random pairs inside disjoint id-local blocks of ``block`` ids."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, pairs)
    v = np.minimum(u // block * block + rng.integers(0, block, pairs), n - 1)
    return EdgeListGraph.from_arrays(n, u, v)


def _complete_blocks(n: int, block: int) -> EdgeListGraph:
    """Disjoint complete graphs on consecutive runs of ``block`` ids."""
    iu, iv = np.triu_indices(block, 1)
    base = np.repeat(np.arange(0, n, block), iu.size)
    return EdgeListGraph.from_arrays(
        n, base + np.tile(iu, n // block), base + np.tile(iv, n // block)
    )


class _SliceLog(np.ndarray):
    """Endpoint array that records the slices taken of it."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.taken.append((key.start, key.stop, key.step))
        return np.asarray(super().__getitem__(key))


def _logged(array: np.ndarray) -> _SliceLog:
    logged = array.view(_SliceLog)
    logged.taken = []
    return logged


@pytest.fixture
def stream_calls(monkeypatch):
    """Count the public entry point's calls of the streamed pass."""
    calls = []
    real = contracting._streamed

    def spy(n, lo, hi, first):
        calls.append((n, lo.size, first))
        return real(n, lo, hi, first)

    monkeypatch.setattr(contracting, "_streamed", spy)
    return calls


class TestStreamed:
    def test_random_pairs(self, stream_calls):
        g = random_edge_list(30_000, 180_000, seed=5)
        res = connected_components_contracting(g)
        assert stream_calls == [(30_000, 180_000, 1 << 16)]
        assert np.array_equal(res.labels, _oracle(g))
        assert res.contracted_to_empty

    def test_random_pairs_many_chunks(self):
        rng = np.random.default_rng(3)
        n = 20_000
        g = EdgeListGraph.from_arrays(
            n, rng.integers(0, n, 120_000), rng.integers(0, n, 120_000)
        )
        half = g.src.size // 2
        lo = _logged(g.src[:half])
        res = contracting._streamed(n, lo, g.dst[:half], 2048)
        assert np.array_equal(res.labels, _oracle(g))
        # contiguous chunks double with the pairs done
        starts = [start for start, _, _ in lo.taken]
        assert starts == [0, 2048, 4096, 8192, 16384, 32768, 65536]
        assert lo.taken[-1][1] == half
        assert all(step is None for _, _, step in lo.taken)
        assert res.levels and res.contracted_to_empty

    @pytest.mark.parametrize("build", [
        partial(_complete_blocks, 50_000, 8),
        partial(_blocks, 20_000, 64, 120_000, seed=1),
        partial(_blocks, 100_000, 1024, 400_000, seed=2),
        # blocks of n/8 and n/4 ids: streamed, lo-sorted chunks would
        # hold fresh blocks that nothing filters
        partial(_blocks, 40_000, 5_000, 160_000, seed=4),
        partial(_blocks, 40_000, 10_000, 160_000, seed=4),
    ], ids=["blocks8", "blocks64", "blocks1024", "eighths", "quarters"])
    def test_id_local_graphs_keep_the_level_loop(self, build, stream_calls):
        graph = build()
        assert graph.src.size // 2 >= 3 * graph.n
        res = connected_components_contracting(graph)
        assert not stream_calls
        assert np.array_equal(res.labels, _oracle(graph))

    def test_two_half_blocks_stream(self, stream_calls):
        graph = _blocks(40_000, 20_000, 160_000, seed=4)
        res = connected_components_contracting(graph)
        assert len(stream_calls) == 1
        assert np.array_equal(res.labels, _oracle(graph))

    def test_hand_built_graph_without_stamp(self, stream_calls):
        rng = np.random.default_rng(11)
        n = 30_000
        u, v = rng.integers(0, n, 130_000), rng.integers(0, n, 130_000)
        loops = rng.integers(0, n, 2_000)
        u = np.concatenate([u, u[:10_000], loops])
        v = np.concatenate([v, v[:10_000], loops])
        g = EdgeListGraph(n, np.concatenate([u, v]), np.concatenate([v, u]))
        assert not getattr(g, "_canonical", False)
        res = connected_components_contracting(g)
        # an unstamped graph streams its u < v entries: each edge once
        upper = int(np.count_nonzero(g.src < g.dst))
        assert stream_calls == [(n, upper, 1 << 16)]
        assert np.array_equal(res.labels, _pair_oracle(n, u, v))

    def test_dense_adjacency_input(self, stream_calls):
        g = random_graph(1024, 0.5, seed=3)
        res = connected_components_contracting(g)
        assert len(stream_calls) == 1
        assert np.array_equal(res.labels, canonical_labels(g))

    def test_int32_endpoints(self, stream_calls):
        g = random_edge_list(30_000, 180_000, seed=7)
        narrow = EdgeListGraph(
            g.n, g.src.astype(np.int32), g.dst.astype(np.int32)
        )
        res = connected_components_contracting(narrow)
        assert len(stream_calls) == 1
        assert np.array_equal(res.labels, _oracle(g))
        assert res.labels.dtype == np.int64

    def test_result_records_the_chunk_levels(self):
        g = random_edge_list(30_000, 180_000, seed=5)
        res = connected_components_contracting(g)
        assert res.contracted_to_empty
        assert res.levels
        assert res.total_work == sum(l.n + l.m for l in res.levels)
        # chunk solves only ever see compacted roots and surviving pairs
        assert all(l.n <= g.n and l.m <= g.src.size for l in res.levels)

    @given(
        n=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([0, 2, 8, 64]),
        per_vertex=st.integers(0, 12),
        first=st.integers(1, 64),
        stamped=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_union_find(
        self, n, seed, block, per_vertex, first, stamped
    ):
        rng = np.random.default_rng(seed)
        pairs = per_vertex * n
        u = rng.integers(0, n, pairs)
        if block:
            v = np.minimum(u // block * block + rng.integers(0, block, pairs),
                           n - 1)
        else:
            v = rng.integers(0, n, pairs)
        expected = _pair_oracle(n, u, v)
        if stamped:
            g = EdgeListGraph.from_arrays(n, u, v)
            lo, hi = g.src[: g.src.size // 2], g.dst[: g.src.size // 2]
        else:
            lo, hi = u, v  # one direction, self-loops and duplicates kept
        res = contracting._streamed(n, lo, hi, first)
        assert np.array_equal(res.labels, expected)


class TestUnstreamedRunsPinned:
    """Inputs the streamed pass leaves alone keep the level loop's exact
    labels and level records."""

    @pytest.mark.parametrize("n, m, levels, count", [
        # m < 3n
        (5_000, 12_000, [(5000, 24000, 4, False), (475, 11348, 9, True),
                         (227, 6, 8, True)], 225),
        # m >= 3n, but the first chunk would hold all or most pairs
        (5_000, 60_000, [(5000, 120000, 5, False), (49, 2326, 6, True)], 1),
        (20_000, 120_000, [(20000, 240000, 4, False), (422, 83502, 9, True),
                           (16, 2, 4, True)], 15),
    ])
    def test_level_loop_inputs(self, stream_calls, n, m, levels, count):
        g = random_edge_list(n, m, seed=2)
        res = connected_components_contracting(g)
        assert not stream_calls
        assert [(l.n, l.m, l.jumps, l.deduplicated)
                for l in res.levels] == levels
        assert np.array_equal(res.labels, _oracle(g))
        assert res.component_count == count

    @pytest.mark.parametrize("max_levels, levels, count", [
        (1, [(20000, 240000, 4, False)], 422),
        (2, [(20000, 240000, 4, False), (422, 83502, 9, True)], 16),
        (64, [(20000, 240000, 4, False), (422, 83502, 9, True),
              (16, 2, 4, True)], 15),
    ])
    def test_max_levels_runs(self, stream_calls, max_levels, levels, count):
        g = random_edge_list(20_000, 120_000, seed=2)
        res = connected_components_contracting(g, max_levels=max_levels)
        assert not stream_calls
        assert [(l.n, l.m, l.jumps, l.deduplicated)
                for l in res.levels] == levels
        assert res.component_count == count
        assert res.contracted_to_empty == (max_levels == 64)


class TestComponentCount:
    @pytest.mark.parametrize("max_levels", [None, 1])
    @pytest.mark.parametrize("n, m", [(5_000, 9_000), (30_000, 180_000)])
    def test_matches_unique(self, n, m, max_levels):
        g = random_edge_list(n, m, seed=1)
        res = connected_components_contracting(g, max_levels=max_levels)
        assert res.contracted_to_empty == (max_levels is None)
        assert res.component_count == np.unique(res.labels).size
