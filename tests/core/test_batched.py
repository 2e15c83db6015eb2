"""Tests for the batched engine (`repro.core.batched`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batched
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
from repro.graphs.adjacency import AdjacencyMatrix
from repro.graphs.components import canonical_labels
from repro.graphs.generators import (
    complete_graph,
    empty_graph,
    from_edges,
    path_graph,
    random_graph,
)
from repro.serve.workers import pad_matrix, solve_dense_stack
from repro.util import validation
from repro.util.intmath import outer_iterations
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
    def test_field_equals_reference_generations(self, n, monkeypatch):
        """After every iteration, the field rebuilt from ``run``'s hook and
        label columns equals generations 1-11 of the per-generation
        ``apply_generation`` cell for cell, in a batch that mixes graph
        families.  Iterations that ``run`` skips (no cross pair left in
        the batch) must be fixed points: there the field rebuilt from the
        final labels, with ``hooked = labels``, must match.  The batch
        holds a complete graph, so it starts on the grid; every input
        has ones on its diagonal, which the field ignores."""
        self._field_matches_reference(n, "grid", monkeypatch)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 12, 16, 33])
    def test_field_from_pairs_equals_reference_generations(self, n,
                                                           monkeypatch):
        """The same batch, with the density line moved to n^2 nonzeros so
        that it starts from its pairs."""
        monkeypatch.setattr(validation, "SPARSE_DIVISOR", 1)
        self._field_matches_reference(n, "pairs", monkeypatch)

    @staticmethod
    def _field_matches_reference(n, start, monkeypatch):
        layout = FieldLayout(n)
        As = [g.matrix.astype(np.int64) for g in _mixed_batch(n)]
        # the inputs carry self-loops, valid input that must not hook
        graphs = [A + np.eye(n, dtype=np.int64) for A in As]
        calls = []  # (iteration 0?, labels after, hooked) per iteration

        def spy(labels, u, v, jumps, first=None):
            hooked = _apply_iteration(labels, u, v, jumps, first=first)
            calls.append((first is not None, labels.copy(), hooked.copy()))
            return hooked

        monkeypatch.setattr(batched, "_apply_iteration", spy)
        engine = BatchedGCA(graphs, early_exit=False)
        assert (engine._keys is None) == (start == "grid")
        res = engine.run()
        # iteration 0 hooks to the first neighbours, later ones read the
        # cross pairs; the G(n, 2/n) member still has pairs after
        # iteration 0 at these n
        assert calls[0][0] and not any(first for first, _, _ in calls[1:])
        if n in (5, 8, 12, 16, 33):
            assert len(calls) > 1

        schedule = full_schedule(n)
        start = apply_generation(schedule[0], np.zeros((n + 1, n), np.int64),
                                 As[0], layout)
        refs = [start] * len(graphs)
        for it in range(outer_iterations(n)):
            for sched in schedule:
                if sched.iteration == it:
                    refs = [apply_generation(sched, D, A, layout)
                            for D, A in zip(refs, As)]
            if it < len(calls):
                _, labels, hooked = calls[it]
            else:
                labels = hooked = res.labels.reshape(-1) + np.repeat(
                    np.arange(len(graphs)) * n, n)
            for slot, D in enumerate(refs):
                block = slice(slot * n, (slot + 1) * n)
                field = np.empty((n + 1, n), dtype=np.int64)
                field[:n, :] = (hooked[block] - slot * n)[:, None]
                field[n, :] = hooked[block] - slot * n
                field[:n, 0] = labels[block] - slot * n
                assert np.array_equal(field, D), f"iteration {it}"
        for slot, D in enumerate(refs):
            assert np.array_equal(res.labels[slot], D[:n, 0])

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


def _reference(graph, iterations, early_exit):
    """Labels and counts of the per-generation reference loop."""
    ref = run_vectorized(graph, iterations=iterations, early_exit=early_exit,
                         record_access=True)
    converged = (-1 if ref.converged_at_iteration is None
                 else ref.converged_at_iteration)
    return ref.labels, ref.iterations, converged


def _shuffled_path(n, rng):
    order = rng.permutation(n)
    return from_edges(n, zip(order[:-1].tolist(), order[1:].tolist()))


@st.composite
def _staggered_batches(draw, max_n=20):
    """A batch of G(n, p), p in {0, 2/n, 0.5, 1}, plus an edgeless graph
    (fixed point at iteration 0) and a shuffled path (a later one), so
    its graphs converge at different iterations."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ps = draw(st.lists(st.sampled_from([0.0, 2.0 / n, 0.5, 1.0]),
                       min_size=0, max_size=3))
    graphs = [random_graph(n, p, seed=rng) for p in ps]
    graphs += [empty_graph(n), _shuffled_path(n, rng)]
    order = draw(st.permutations(range(len(graphs))))
    return [graphs[k] for k in order]


class TestReferenceEquivalence:
    @given(
        _staggered_batches(),
        st.sampled_from([None, 0, 1, 2]),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_generation_reference(self, graphs, iterations,
                                              early_exit):
        """Labels, ``iterations_run`` and ``converged_at_iteration`` equal
        the per-generation reference's for every graph of the batch."""
        res = BatchedGCA(graphs, iterations=iterations,
                         early_exit=early_exit).run()
        for slot, g in enumerate(graphs):
            labels, ran, converged = _reference(g, iterations, early_exit)
            assert np.array_equal(res.labels[slot], labels)
            assert res.iterations_run[slot] == ran
            assert res.converged_at_iteration[slot] == converged

    @given(
        st.integers(min_value=2, max_value=16).flatmap(
            lambda size: st.tuples(
                st.just(size),
                st.lists(adjacency_matrices(min_n=1, max_n=size),
                         min_size=1, max_size=4),
            )
        ),
        st.sampled_from([None, 0, 1, 2]),
    )
    @settings(max_examples=30, deadline=None)
    def test_padded_stack_matches_reference(self, bucket, iterations):
        """A padded stack through ``solve_dense_stack`` labels each graph
        as the reference labels the padded matrix, sliced to its n."""
        size, graphs = bucket
        mats = [g.matrix for g in graphs]
        got = solve_dense_stack(mats, size, iterations=iterations)
        for m, labels in zip(mats, got):
            ref, _, _ = _reference(pad_matrix(m, size), iterations, True)
            assert np.array_equal(labels, ref[: m.shape[0]])


def _sparse(matrix):
    """Whether ``matrix`` sits on the pair side of the density line."""
    return validation.sparse_keys(np.asarray(matrix) != 0) is not None


def _matching(n, edges):
    """``edges`` disjoint edges ``(2k, 2k+1)``, relabelled at random."""
    order = np.random.default_rng(n + edges).permutation(n)
    return from_edges(n, [(order[2 * k], order[2 * k + 1])
                          for k in range(edges)])


def _sparse_graphs(n):
    """Graphs with at most n^2/48 nonzeros: edgeless, a matching, and
    from n = 32 on G(n, 1/n) and a shuffled path, where they are sparse."""
    rng = np.random.default_rng(n)
    graphs = [empty_graph(n), _matching(n, min(n // 2, n * n // 96))]
    if n >= 32:
        graphs += [_shuffled_path(n, rng), random_graph(n, 1.0 / n, seed=n)]
    return [g for g in graphs if _sparse(g.matrix)]


def _dense_graphs(n):
    """Graphs with more than n^2/48 nonzeros."""
    graphs = [complete_graph(n), random_graph(n, 0.5, seed=n),
              path_graph(n), random_graph(n, 0.2, seed=n + 1)]
    return [g for g in graphs if not _sparse(g.matrix)]


class TestBatchKinds:
    """All-sparse batches start from their pairs, any dense member sends
    the batch to the grid; both give the reference's labels and counts."""

    @pytest.mark.parametrize("kind, n", [
        (kind, n) for kind in ("sparse", "dense", "mixed")
        for n in (1, 2, 3, 8, 16, 31, 32, 64, 97)
        if n > 1 or kind == "sparse"  # n = 1 has no edge to be dense
    ])
    @pytest.mark.parametrize("iterations", [None, 1])
    @pytest.mark.parametrize("early_exit", [False, True])
    def test_matches_reference(self, kind, n, iterations, early_exit):
        sparse, dense = _sparse_graphs(n), _dense_graphs(n)
        graphs = {"sparse": sparse, "dense": dense,
                  "mixed": sparse + dense}[kind]
        assert graphs and (kind != "mixed" or len(graphs) > len(sparse))
        engine = BatchedGCA(graphs, iterations=iterations,
                            early_exit=early_exit)
        assert (engine._keys is not None) == (kind == "sparse")
        res = engine.run()
        for slot, g in enumerate(graphs):
            ref = run_vectorized(g, iterations=iterations,
                                 early_exit=early_exit, record_access=True)
            converged = (-1 if ref.converged_at_iteration is None
                         else ref.converged_at_iteration)
            assert np.array_equal(res.labels[slot], ref.labels)
            assert res.labels.dtype == np.int64
            assert res.iterations_run[slot] == ref.iterations
            assert res.converged_at_iteration[slot] == converged
            assert res.generations_run()[slot] == ref.total_generations

    def test_self_loops_do_not_hook(self):
        """A 1 on the diagonal is valid input but no edge, on both starts."""
        for n, sparse in ((16, True), (4, False)):
            m = np.zeros((n, n), dtype=np.int64)
            m[0, 0] = m[2, 2] = m[1, 2] = m[2, 1] = 1
            assert _sparse(m) == sparse
            res = BatchedGCA([m]).run()
            expected = list(range(n))
            expected[2] = 1
            assert res.labels[0].tolist() == expected

    @pytest.mark.parametrize("size", [32, 64])
    def test_padding_can_make_a_dense_graph_sparse(self, size):
        """K_4 is dense at n = 4 but sparse padded to 32 or 64; the padded
        stack labels it as the reference labels the padded matrix."""
        k4 = complete_graph(4).matrix
        assert not _sparse(k4) and _sparse(pad_matrix(k4, size))
        mats = [k4, path_graph(3).matrix, np.zeros((5, 5), dtype=np.int8)]
        for iterations in (None, 0, 1):
            got = solve_dense_stack(mats, size, iterations=iterations)
            for m, labels in zip(mats, got):
                ref, _, _ = _reference(pad_matrix(m, size), iterations, True)
                assert np.array_equal(labels, ref[: m.shape[0]])

    def test_adjacency_matrices_are_not_checked_again(self, monkeypatch):
        graphs = [path_graph(40), complete_graph(40)]

        def fail(*args):
            raise AssertionError("an AdjacencyMatrix was validated again")

        monkeypatch.setattr(batched, "check_adjacency_into", fail)
        for subset in (graphs[:1], graphs):
            res = BatchedGCA(subset).run()
            for slot, g in enumerate(subset):
                assert np.array_equal(res.labels[slot], canonical_labels(g))

    def test_front_end_checks_each_graph_once(self, monkeypatch):
        """connected_components_batch validates each raw matrix once."""
        graphs = [path_graph(n).matrix.astype(np.int64) for n in (5, 40, 5)]
        calls = []
        check = validation.check_adjacency_into

        def counting(name, matrix, out):
            calls.append(matrix.shape)
            return check(name, matrix, out)

        monkeypatch.setattr(validation, "check_adjacency_into", counting)
        monkeypatch.setattr(batched, "check_adjacency_into", counting)
        labels = connected_components_batch(graphs)
        assert sorted(calls) == [(5, 5), (5, 5), (40, 40)]
        assert [l.tolist() for l in labels] == [[0] * 5, [0] * 40, [0] * 5]


_FAULTS = ("asymmetric", 2, -1, 0.5, float("nan"), "diagonal")


@st.composite
def _faulty_matrices(draw):
    """One fault injected into a valid graph on either side of the line."""
    n = draw(st.integers(min_value=16, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # dense
        graph = random_graph(n, draw(st.sampled_from([0.3, 0.6, 1.0])),
                             seed=rng)
    else:  # a matching sparse enough to stay so with the fault
        edges = min(n // 2, (n * n // 48 - 2) // 2)
        graph = _matching(n, draw(st.integers(0, edges)))
    fault = draw(st.sampled_from(_FAULTS))
    dtype = np.float64 if fault in (0.5, "diagonal") or fault != fault else (
        draw(st.sampled_from([np.int64, np.int8, np.float64])))
    m = graph.matrix.astype(dtype)
    i, j = (int(x) for x in rng.choice(n, 2, replace=False))
    if fault == "asymmetric":
        m[i, j] = 1 - m[i, j]
    elif fault == "diagonal":
        m[i, i] = draw(st.sampled_from([2.0, -1.0, 0.5, float("nan")]))
    else:
        m[i, j] = m[j, i] = fault
    return m


class TestErrorParity:
    """BatchedGCA, connected_components_batch and AdjacencyMatrix reject
    a faulty matrix with the same ValueError on both sides of the
    density line."""

    @staticmethod
    def _message(fn):
        with pytest.raises(ValueError) as err:
            fn()
        return str(err.value)

    @given(_faulty_matrices())
    @settings(max_examples=120, deadline=None)
    def test_same_error_text(self, m):
        n = m.shape[0]
        expected = self._message(lambda: AdjacencyMatrix(m))
        assert expected.startswith("adjacency matrix must ")
        ok = np.zeros((n, n), dtype=np.int64)
        for fn in (
            lambda: BatchedGCA([m]),
            lambda: BatchedGCA([ok, m, path_graph(n)]),
            lambda: BatchedGCA(np.stack([ok, m])),
            lambda: connected_components_batch([m]),
            lambda: connected_components_batch([np.zeros((3, 3)), ok, m]),
        ):
            assert self._message(fn) == expected

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("fault", _FAULTS)
    def test_each_fault_on_each_side(self, dense, fault):
        """Every fault is met at least once on each side of the line."""
        n = 32
        m = (complete_graph(n) if dense else _matching(n, 4)).matrix
        m = m.astype(np.float64)
        if fault == "asymmetric":
            m[0, 1] = 1 - m[0, 1]
        elif fault == "diagonal":
            m[3, 3] = 2
        else:
            m[0, 1] = m[1, 0] = fault
        assert _sparse(m) != dense
        expected = self._message(lambda: AdjacencyMatrix(m))
        assert ("symmetric" in expected) == (fault == "asymmetric")
        for fn in (lambda: BatchedGCA([m]),
                   lambda: connected_components_batch([m])):
            assert self._message(fn) == expected

    def test_first_fault_in_input_order(self):
        """With several faults the first graph's is reported, ahead of a
        size mismatch or a later shape error."""
        asym = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        two = np.array([[0, 2], [2, 0]])
        for graphs, text in (
            ([asym, two], "symmetric"),
            ([two, asym], "0/1"),
            ([np.zeros((3, 3)), np.zeros((2, 3))], "square"),
            ([two, np.zeros((2, 3))], "0/1"),
            ([np.zeros((3, 3)), two], "0/1"),
            ([np.zeros((3, 3)), np.zeros((2, 2))], "graph 1 has n=2"),
        ):
            with pytest.raises(ValueError, match=text):
                BatchedGCA(graphs)


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
        """A run keeps its buffers local, so a second ``run`` on the
        same engine gives the same result."""
        graphs = [empty_graph(9), path_graph(9), random_graph(9, 0.3, seed=2)]
        engine = BatchedGCA(graphs)
        first, second = engine.run(), engine.run()
        assert np.array_equal(first.labels, second.labels)
        assert np.array_equal(first.iterations_run, second.iterations_run)

    def test_batch_order_preserved(self):
        """Graphs that converge at different iterations keep their
        output slots."""
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
        engine = BatchedGCA([np.zeros((0, 0), dtype=np.int8)] * 3)
        assert engine._keys is not None  # no nonzeros: the pair start
        res = engine.run()
        assert res.labels.shape == (3, 0)
        assert np.array_equal(res.generations_run(), np.zeros(3))
        assert np.array_equal(res.iterations_run, np.zeros(3))
        assert np.array_equal(res.converged_at_iteration, [-1, -1, -1])

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
