"""Tests for the vectorised engine, including per-generation semantics."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.field import FieldLayout
from repro.core.schedule import full_schedule, total_generations
from repro.core.vectorized import (
    active_mask,
    apply_generation,
    connected_components_vectorized,
    pointer_targets,
    run_vectorized,
)
from repro.graphs.components import canonical_labels
from repro.graphs.generators import empty_graph, path_graph, random_graph
from tests.conftest import adjacency_matrices


class TestCorrectness:
    def test_corpus(self, corpus_graph):
        got = connected_components_vectorized(corpus_graph)
        assert np.array_equal(got, canonical_labels(corpus_graph))

    @given(adjacency_matrices(max_n=20))
    @settings(max_examples=60)
    def test_random(self, g):
        got = connected_components_vectorized(g)
        assert np.array_equal(got, canonical_labels(g))

    def test_larger_instance(self):
        g = random_graph(96, 0.03, seed=5)
        assert np.array_equal(
            connected_components_vectorized(g), canonical_labels(g)
        )


class TestActiveMasks:
    def setup_method(self):
        self.n = 4
        self.layout = FieldLayout(self.n)
        self.sched = {s.label: s for s in full_schedule(self.n, iterations=1)}

    def counts(self, label):
        return int(active_mask(self.sched[label], self.layout).sum())

    def test_paper_active_counts(self):
        n = self.n
        assert self.counts("gen0") == n * (n + 1)
        assert self.counts("it0.gen1") == n * (n + 1)
        assert self.counts("it0.gen2") == n * n
        assert self.counts("it0.gen3.sub0") == n * n // 2
        assert self.counts("it0.gen4") == n
        assert self.counts("it0.gen5") == n * (n + 1)
        assert self.counts("it0.gen6") == n * n
        assert self.counts("it0.gen9") == n * (n + 1)
        assert self.counts("it0.gen10.sub0") == n
        assert self.counts("it0.gen11") == n

    def test_reduction_mask_shrinks(self):
        sub0 = self.counts("it0.gen3.sub0")
        sub1 = self.counts("it0.gen3.sub1")
        assert sub1 < sub0


class TestPointerTargets:
    def test_gen0_has_none(self):
        layout = FieldLayout(4)
        sched = full_schedule(4, iterations=1)[0]
        D = np.zeros((5, 4), dtype=np.int64)
        assert pointer_targets(sched, D, layout) is None

    def test_targets_in_range_every_generation(self):
        n = 4
        layout = FieldLayout(n)
        g = random_graph(n, 0.5, seed=2)
        A = g.matrix.astype(np.int64)
        D = np.zeros((n + 1, n), dtype=np.int64)
        for sched in full_schedule(n):
            t = pointer_targets(sched, D, layout)
            if t is not None:
                assert t.min() >= 0 and t.max() < layout.size
            D = apply_generation(sched, D, A, layout)

    def test_data_dependent_targets(self):
        n = 4
        layout = FieldLayout(n)
        sched = [s for s in full_schedule(n) if s.number == 10][0]
        D = np.zeros((n + 1, n), dtype=np.int64)
        D[:n, 0] = [2, 0, 1, 3]
        t = pointer_targets(sched, D, layout)
        assert t.tolist() == [8, 0, 4, 12]


class TestRunner:
    def test_total_generations(self):
        for n in (2, 5, 8):
            res = run_vectorized(random_graph(n, 0.3, seed=n))
            assert res.total_generations == total_generations(n)

    def test_access_log_optional(self):
        res = run_vectorized(path_graph(4))
        assert res.access_log is None
        res2 = run_vectorized(path_graph(4), record_access=True)
        assert res2.access_log is not None
        assert res2.access_log.total_generations == res2.total_generations

    def test_component_count(self):
        res = run_vectorized(path_graph(4))
        assert res.component_count == 1

    def test_iterations_override(self):
        res = run_vectorized(path_graph(8), iterations=0)
        assert res.labels.tolist() == list(range(8))


class TestEarlyExit:
    @given(adjacency_matrices(min_n=2, max_n=20))
    @settings(max_examples=50, deadline=None)
    def test_labels_identical_to_full_run(self, g):
        """Early exit stops at a fixed point, so the labels must be
        bit-identical to the full schedule's."""
        full = run_vectorized(g)
        early = run_vectorized(g, early_exit=True)
        assert np.array_equal(early.labels, full.labels)

    def test_full_schedule_counts_unchanged(self):
        """Regression (Table 2 invariant): with ``early_exit=False`` the
        engine must execute exactly the closed-form generation count."""
        for n in (2, 3, 5, 8, 16, 33):
            g = random_graph(n, 0.3, seed=n)
            res = run_vectorized(g, early_exit=False)
            assert res.total_generations == total_generations(n)
            assert res.converged_at_iteration is None

    def test_converged_at_semantics(self):
        """converged_at_iteration is the 0-based outer iteration whose
        label column matched the previous one; counts reflect executed
        work only."""
        from repro.core.schedule import generations_per_iteration

        g = empty_graph(16)  # fixed point after the first iteration
        res = run_vectorized(g, early_exit=True)
        assert res.converged_at_iteration == 0
        assert res.iterations == 1
        assert res.total_generations == 1 + generations_per_iteration(16)
        assert np.array_equal(res.labels, np.arange(16))

    def test_early_exit_can_skip_iterations(self):
        g = random_graph(64, 0.1, seed=7)
        full = run_vectorized(g)
        early = run_vectorized(g, early_exit=True)
        assert early.total_generations < full.total_generations
        assert early.converged_at_iteration is not None

    def test_no_convergence_before_schedule_end(self):
        """A worst-case chain that needs every iteration reports no early
        convergence marker."""
        g = path_graph(8)
        res = run_vectorized(g, early_exit=True)
        full = run_vectorized(g)
        assert np.array_equal(res.labels, full.labels)
        if res.converged_at_iteration is None:
            assert res.total_generations == full.total_generations


class TestAccessLogEquivalence:
    def test_matches_interpreter_log(self):
        """The vectorised access accounting must equal the interpreter's."""
        from repro.core.machine import connected_components_interpreter

        g = random_graph(5, 0.4, seed=9)
        slow = connected_components_interpreter(g)
        fast = run_vectorized(g, record_access=True)
        assert len(slow.access_log) == len(fast.access_log)
        for s, f in zip(slow.access_log, fast.access_log):
            assert s.label == f.label
            assert s.active_cells == f.active_cells, s.label
            assert s.reads_per_cell == f.reads_per_cell, s.label

    @pytest.mark.parametrize("early_exit", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 32])
    def test_instrumented_loop_matches_fused_kernel(self, n, early_exit):
        """``record_access`` steps through ``apply_generation``; every
        count it reports must equal the fused kernel's."""
        g = random_graph(n, 0.2, seed=n)
        plain = run_vectorized(g, early_exit=early_exit)
        logged = run_vectorized(g, record_access=True, early_exit=early_exit)
        assert np.array_equal(logged.labels, plain.labels)
        assert logged.iterations == plain.iterations
        assert logged.total_generations == plain.total_generations
        assert logged.converged_at_iteration == plain.converged_at_iteration
        assert len(logged.access_log) == plain.total_generations
