"""Tests for the serve execution backends."""

import numpy as np
import pytest

from repro.graphs.components import components_union_find
from repro.graphs.generators import path_graph, random_graph
from repro.graphs.union_find import UnionFind
from repro.hirschberg.edgelist import EdgeListGraph, random_edge_list
from repro.serve.workers import (
    SparseProcessPool,
    as_edge_list,
    pad_matrix,
    solve_coalesced,
    solve_dense_stack,
    solve_solo,
)


def _oracle_sparse(graph: EdgeListGraph) -> np.ndarray:
    uf = UnionFind(graph.n)
    for s, d in zip(graph.src, graph.dst):
        uf.union(int(s), int(d))
    return uf.canonical_labels()


class TestPadMatrix:
    def test_identity_at_exact_size(self):
        m = path_graph(4).matrix
        assert pad_matrix(m, 4) is m

    def test_pads_top_left(self):
        m = path_graph(3).matrix
        padded = pad_matrix(m, 5)
        assert padded.shape == (5, 5)
        assert np.array_equal(padded[:3, :3], m)
        assert not padded[3:, :].any()
        assert not padded[:, 3:].any()

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError, match="cannot pad"):
            pad_matrix(path_graph(5).matrix, 3)


class TestSolveDenseStack:
    def test_mixed_sizes_padded_and_sliced(self):
        graphs = [random_graph(n, 0.3, seed=n) for n in (3, 5, 8)]
        labels = solve_dense_stack([g.matrix for g in graphs], 8)
        for g, vec in zip(graphs, labels):
            assert vec.shape == (g.n,)
            assert np.array_equal(vec, components_union_find(g))

    def test_padding_cannot_leak_into_labels(self):
        # a fully connected graph embedded in a much larger stack size
        g = random_graph(4, 1.0, seed=0)
        (vec,) = solve_dense_stack([g.matrix], 16)
        assert np.array_equal(vec, np.zeros(4, dtype=np.int64))


class TestSolveCoalesced:
    @pytest.mark.parametrize("engine", ["contracting"])
    def test_matches_oracle_per_member(self, engine):
        graphs = [random_edge_list(n, 2 * n, seed=n) for n in (4, 9, 16, 30)]
        labels = solve_coalesced(graphs, engine)
        assert len(labels) == len(graphs)
        for g, vec in zip(graphs, labels):
            assert np.array_equal(vec, _oracle_sparse(g))

    @pytest.mark.parametrize("engine", ["edgelist", "parallel"])
    def test_only_contracting_coalesces(self, engine):
        with pytest.raises(ValueError, match="unknown sparse engine"):
            solve_coalesced([random_edge_list(4, 8, seed=0)], engine)

    def test_singleton_batch(self):
        g = random_edge_list(12, 24, seed=1)
        (vec,) = solve_coalesced([g])
        assert np.array_equal(vec, _oracle_sparse(g))

    def test_accepts_dense_members(self):
        dense = random_graph(6, 0.4, seed=2)
        sparse = random_edge_list(6, 12, seed=3)
        labels = solve_coalesced([dense, sparse])
        assert np.array_equal(labels[0],
                              components_union_find(dense))
        assert np.array_equal(labels[1], _oracle_sparse(sparse))

    def test_members_with_zero_nodes(self):
        empty = EdgeListGraph(
            n=0,
            src=np.empty(0, dtype=np.int64),
            dst=np.empty(0, dtype=np.int64),
        )
        g = random_edge_list(5, 10, seed=4)
        labels = solve_coalesced([empty, g, empty])
        assert labels[0].size == 0
        assert labels[2].size == 0
        assert np.array_equal(labels[1], _oracle_sparse(g))

    def test_all_empty(self):
        empty = EdgeListGraph(
            n=0,
            src=np.empty(0, dtype=np.int64),
            dst=np.empty(0, dtype=np.int64),
        )
        labels = solve_coalesced([empty, empty])
        assert all(vec.size == 0 for vec in labels)


class TestSoloAndConversion:
    def test_solve_solo(self):
        g = random_edge_list(10, 20, seed=5)
        assert np.array_equal(solve_solo(g, "contracting"),
                              _oracle_sparse(g))

    def test_as_edge_list_passthrough(self):
        g = random_edge_list(4, 8, seed=6)
        assert as_edge_list(g) is g

    def test_as_edge_list_converts_dense(self):
        g = random_graph(5, 0.5, seed=7)
        converted = as_edge_list(g.matrix)
        assert isinstance(converted, EdgeListGraph)
        assert converted.n == 5


class TestSparseProcessPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            SparseProcessPool(0)

    def test_solve_round_trip(self):
        pool = SparseProcessPool(1)
        try:
            g = random_edge_list(50, 120, seed=8)
            labels = pool.solve(g, "contracting")
            assert np.array_equal(labels, _oracle_sparse(g))
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("engine", ["contracting", "edgelist", "parallel"])
    def test_liveness_token_is_component_count(self, engine):
        """The worker's token (fixed points of the canonical labels)
        equals the component count, isolated vertices included."""
        from repro.analysis.shm import share_edge_list
        from repro.serve.workers import _solve_shared_task

        base = random_edge_list(40, 30, seed=10)
        g = EdgeListGraph.from_arrays(60, base.src, base.dst)  # 40.. isolated
        expected = int(np.unique(_oracle_sparse(g)).size)
        pool = SparseProcessPool(1)
        workspace, ref = share_edge_list(g)
        try:
            slot = workspace.zeros((g.n,), np.int64)
            token = pool._executor.submit(
                _solve_shared_task, ref, slot.ref, engine
            ).result()
            assert np.array_equal(slot.array, _oracle_sparse(g))
            assert token == expected
        finally:
            workspace.close()
            workspace.unlink()
            pool.shutdown()

    def test_shutdown_refuses_new_work(self):
        pool = SparseProcessPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.solve(random_edge_list(5, 10, seed=9), "contracting")
