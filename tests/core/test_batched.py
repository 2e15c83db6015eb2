"""Tests for the batched engine (`repro.core.batched`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import (
    BatchedGCA,
    BatchedResult,
    _apply_iteration,
    connected_components_batch,
)
from repro.core.field import FieldLayout
from repro.core.machine import connected_components_interpreter
from repro.core.schedule import (
    full_schedule,
    generations_per_iteration,
    total_generations,
)
from repro.core.vectorized import apply_generation, run_vectorized
from repro.graphs.components import canonical_labels
from repro.graphs.generators import (
    complete_graph,
    empty_graph,
    from_edges,
    path_graph,
    random_graph,
)
from repro.util.intmath import jump_iterations, outer_iterations
from tests.conftest import CORPUS, adjacency_matrices


class TestCorrectness:
    def test_corpus_as_one_size_buckets(self):
        """Every corpus graph, routed through the mixed-size front-end."""
        graphs = [CORPUS[k] for k in sorted(CORPUS)]
        labels = connected_components_batch(graphs)
        assert len(labels) == len(graphs)
        for g, got in zip(graphs, labels):
            assert np.array_equal(got, canonical_labels(g))

    @pytest.mark.parametrize("early_exit", [False, True])
    def test_same_size_batch(self, early_exit):
        graphs = [random_graph(12, p, seed=s)
                  for p in (0.05, 0.2, 0.6) for s in (0, 1)]
        res = BatchedGCA(graphs, early_exit=early_exit).run()
        for slot, g in enumerate(graphs):
            assert np.array_equal(res.labels[slot], canonical_labels(g))

    @given(
        st.lists(adjacency_matrices(min_n=2, max_n=32), min_size=1, max_size=6),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_mixed_sizes_vs_oracle(self, graphs, early_exit):
        """Randomized graphs (sizes 2-32, mixed densities): batched labels
        must be bit-identical to the union-find oracle."""
        labels = connected_components_batch(graphs, early_exit=early_exit)
        for g, got in zip(graphs, labels):
            assert np.array_equal(got, canonical_labels(g))

    @given(adjacency_matrices(min_n=2, max_n=10))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_interpreter(self, g):
        """Batched labels equal the cell-accurate interpreter's labels."""
        slow = connected_components_interpreter(g)
        res = BatchedGCA([g, g]).run()
        assert np.array_equal(res.labels[0], slow.labels)
        assert np.array_equal(res.labels[1], slow.labels)


def _mixed_batch(n):
    """One graph of each family, stacked into one batch."""
    return [empty_graph(n), path_graph(n), complete_graph(n),
            random_graph(n, min(1.0, 2.0 / n), seed=n),
            random_graph(n, 0.5, seed=n + 1)]


class TestFusedKernel:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 12, 16, 33])
    def test_field_equals_reference_generations(self, n):
        """One ``_apply_iteration`` call leaves every graph's whole field
        equal to generations 1-11 of the per-generation
        ``apply_generation``, in a batch that mixes graph families."""
        graphs = _mixed_batch(n)
        layout = FieldLayout(n)
        As = [g.matrix.astype(np.int64) for g in graphs]
        schedule = full_schedule(n)
        start = apply_generation(schedule[0], np.zeros((n + 1, n), np.int64),
                                 As[0], layout)
        refs = [start] * len(graphs)
        field = np.stack(refs).astype(BatchedGCA(graphs)._dtype)
        adjacent = np.stack(As) == 1
        mask = np.empty(adjacent.shape, dtype=bool)
        for it in range(outer_iterations(n)):
            for sched in schedule:
                if sched.iteration == it:
                    refs = [apply_generation(sched, D, A, layout)
                            for D, A in zip(refs, As)]
            _apply_iteration(field, adjacent, mask, n, layout.infinity,
                             jump_iterations(n))
            for slot, D in enumerate(refs):
                assert np.array_equal(field[slot], D), f"iteration {it}"

    @given(
        st.integers(min_value=2, max_value=14).flatmap(
            lambda n: st.lists(adjacency_matrices(min_n=n, max_n=n),
                               min_size=1, max_size=4)
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_early_exit_matches_reference(self, graphs):
        """With early exit, the batch retires every graph where the
        unfused reference loop stops, with the same labels."""
        res = BatchedGCA(graphs, early_exit=True).run()
        for slot, g in enumerate(graphs):
            ref = run_vectorized(g, early_exit=True, record_access=True)
            converged = (-1 if ref.converged_at_iteration is None
                         else ref.converged_at_iteration)
            assert np.array_equal(res.labels[slot], ref.labels)
            assert res.iterations_run[slot] == ref.iterations
            assert res.converged_at_iteration[slot] == converged


class TestConvergenceAccounting:
    def test_matches_single_engine_early_exit(self):
        graphs = [random_graph(16, p, seed=s)
                  for p in (0.05, 0.3) for s in range(3)]
        res = BatchedGCA(graphs).run()
        for slot, g in enumerate(graphs):
            # record_access steps through the unfused apply_generation
            single = run_vectorized(g, early_exit=True, record_access=True)
            if single.converged_at_iteration is None:
                assert res.converged_at_iteration[slot] == -1
            else:
                assert (res.converged_at_iteration[slot]
                        == single.converged_at_iteration)
            assert res.iterations_run[slot] == single.iterations
            assert res.generations_run()[slot] == single.total_generations

    def test_no_early_exit_runs_full_schedule(self):
        n = 16
        res = BatchedGCA([path_graph(n), empty_graph(n)],
                         early_exit=False).run()
        assert np.all(res.converged_at_iteration == -1)
        assert np.all(res.iterations_run == outer_iterations(n))
        assert np.all(res.generations_run() == total_generations(n))

    def test_empty_graph_retires_first(self):
        """An edgeless graph hits its fixed point in the first iteration."""
        res = BatchedGCA([empty_graph(8), path_graph(8)]).run()
        assert res.converged_at_iteration[0] == 0
        assert res.iterations_run[0] == 1
        assert res.converged_at_iteration[1] > 0

    def test_generations_run_formula(self):
        res = BatchedGCA([complete_graph(8)]).run()
        expected = 1 + res.iterations_run * generations_per_iteration(8)
        assert np.array_equal(res.generations_run(), expected)

    def test_iterations_override(self):
        res = BatchedGCA([path_graph(8)], iterations=0,
                         early_exit=False).run()
        assert res.labels[0].tolist() == list(range(8))


class TestResultShape:
    def test_fields(self):
        graphs = [random_graph(8, 0.3, seed=s) for s in range(3)]
        res = BatchedGCA(graphs).run()
        assert isinstance(res, BatchedResult)
        assert res.n == 8
        assert res.batch_size == 3
        assert res.labels.shape == (3, 8)
        assert res.labels.dtype == np.int64
        assert res.iterations_run.shape == (3,)
        assert res.converged_at_iteration.shape == (3,)

    def test_component_counts(self):
        res = BatchedGCA([empty_graph(6), complete_graph(6)]).run()
        assert res.component_counts.tolist() == [6, 1]

    def test_component_counts_with_singletons(self):
        """Isolated vertices count once each, beside larger components."""
        g = from_edges(7, [(1, 4), (4, 6), (2, 3)])  # {0}, {5}, 2 pairs
        res = BatchedGCA([g, path_graph(7)]).run()
        assert res.component_counts.tolist() == [4, 1]
        assert res.component_counts.dtype == np.int64

    def test_run_is_repeatable(self):
        """Retirement compacts run-local buffers, so a second ``run``
        on the same engine gives the same result."""
        graphs = [empty_graph(9), path_graph(9), random_graph(9, 0.3, seed=2)]
        engine = BatchedGCA(graphs)
        first, second = engine.run(), engine.run()
        assert np.array_equal(first.labels, second.labels)
        assert np.array_equal(first.iterations_run, second.iterations_run)

    def test_batch_order_preserved(self):
        """Retirement compaction must not permute output slots."""
        graphs = [empty_graph(10), path_graph(10), complete_graph(10),
                  random_graph(10, 0.15, seed=4)]
        res = BatchedGCA(graphs).run()
        for slot, g in enumerate(graphs):
            assert np.array_equal(res.labels[slot], canonical_labels(g))


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one graph"):
            BatchedGCA([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError, match="connected_components_batch"):
            BatchedGCA([path_graph(4), path_graph(5)])

    def test_batch_front_end_accepts_mixed_sizes(self):
        labels = connected_components_batch([path_graph(4), path_graph(5)])
        assert [len(l) for l in labels] == [4, 5]

    def test_batch_front_end_empty(self):
        assert connected_components_batch([]) == []


class TestDtypeSelection:
    def test_int32_for_small_n(self):
        eng = BatchedGCA([path_graph(8)])
        assert eng._dtype == np.int32

    def test_labels_always_int64(self):
        res = BatchedGCA([path_graph(8)]).run()
        assert res.labels.dtype == np.int64


class TestDegenerateInputs:
    """Zero-node graphs through the batched engine and the front door.

    Regression tests: ``BatchedGCA`` used to crash building the stacked
    field for ``n == 0``, and ``connected_components`` dispatched an
    engine for the empty graph instead of short-circuiting.
    """

    def test_batched_zero_node_graphs(self):
        res = BatchedGCA([np.zeros((0, 0), dtype=np.int8)] * 3).run()
        assert res.labels.shape == (3, 0)
        assert np.array_equal(res.generations_run(), np.zeros(3))
        assert np.array_equal(res.iterations_run, np.zeros(3))

    def test_batch_front_end_zero_node_graphs(self):
        labels = connected_components_batch(
            [np.zeros((0, 0), dtype=np.int8)] * 2
        )
        assert [vec.shape for vec in labels] == [(0,), (0,)]

    def test_connected_components_empty_graph(self):
        from repro.core.api import connected_components

        result = connected_components(np.zeros((0, 0), dtype=np.int8))
        assert result.labels.shape == (0,)
        assert result.component_count == 0

    @pytest.mark.parametrize(
        "engine", ["vectorized", "interpreter", "edgelist", "contracting"]
    )
    def test_connected_components_empty_graph_any_engine(self, engine):
        from repro.core.api import connected_components

        result = connected_components(
            np.zeros((0, 0), dtype=np.int8), engine=engine
        )
        assert result.labels.shape == (0,)
        assert result.method == engine

    def test_single_vertex_graph(self):
        from repro.core.api import connected_components

        result = connected_components(np.zeros((1, 1), dtype=np.int8))
        assert np.array_equal(result.labels, [0])

    @pytest.mark.parametrize("iterations", [0, 1, 2])
    @pytest.mark.parametrize(
        "method", ["vectorized", "batched", "interpreter", "reference", "pram"]
    )
    def test_single_vertex_graph_with_iterations(self, method, iterations):
        """Regression: at n = 1 generation 11's pointer d*n + 1 leaves
        column 0, and the dense field kernels raised IndexError."""
        from repro.core.api import gca_connected_components

        graph = np.zeros((1, 1), dtype=np.int8)
        result = gca_connected_components(
            graph, method=method, iterations=iterations
        )
        assert np.array_equal(result.labels, [0])
        interp = connected_components_interpreter(graph, iterations=iterations)
        if method == "vectorized":
            assert result.detail.iterations == iterations
            assert result.detail.total_generations == len(interp.access_log)
            logged = run_vectorized(
                graph, iterations=iterations, record_access=True
            )
            assert list(logged.access_log) == list(interp.access_log)
        elif method == "batched":  # early exit: one iteration is a fixed point
            assert result.detail.iterations_run.tolist() == [min(iterations, 1)]
            assert result.detail.generations_run().tolist() == [
                1 + min(iterations, 1) * generations_per_iteration(1)
            ]
