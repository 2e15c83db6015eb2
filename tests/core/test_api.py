"""Tests for the top-level public API."""

import numpy as np
import pytest

import repro
from repro.core.api import ComponentsResult, gca_connected_components
from repro.graphs.generators import from_edges, union_of_cliques
from repro.hirschberg.edgelist import random_edge_list


class TestGcaConnectedComponents:
    def test_default_method(self):
        res = gca_connected_components(union_of_cliques([2, 3]))
        assert res.method == "vectorized"
        assert res.labels.tolist() == [0, 0, 2, 2, 2]

    def test_accepts_plain_array(self):
        m = np.array([[0, 1], [1, 0]])
        res = gca_connected_components(m)
        assert res.labels.tolist() == [0, 0]

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            gca_connected_components(union_of_cliques([2]), method="quantum")

    @pytest.mark.parametrize("method", ["vectorized", "interpreter", "reference", "pram"])
    def test_detail_objects(self, method):
        res = gca_connected_components(union_of_cliques([2, 2]), method=method)
        assert res.method == method
        assert res.detail is not None

    def test_iterations_forwarded(self):
        res = gca_connected_components(
            union_of_cliques([4, 4]), method="vectorized", iterations=0
        )
        assert res.labels.tolist() == list(range(8))


class TestEarlyExit:
    @pytest.mark.parametrize("early_exit", [False, True])
    def test_batched_accepts_both_values(self, early_exit):
        """The batched engine always stops at the fixed point, so
        ``early_exit`` is accepted either way and changes nothing."""
        g = union_of_cliques([3, 1, 4])
        res = repro.connected_components(g, engine="batched",
                                         early_exit=early_exit)
        assert res.method == "batched"
        assert res.labels.tolist() == [0, 0, 0, 3, 4, 4, 4, 4]
        assert res.detail.converged_at_iteration.tolist() == [1]

    def test_rejected_for_other_engines(self):
        with pytest.raises(ValueError, match="early_exit"):
            repro.connected_components(union_of_cliques([2]),
                                       engine="contracting", early_exit=True)

    def test_auto_ignores_flag_and_dispatches(self):
        """``auto`` dispatches through the rule table whatever the flag
        says, instead of forcing the dense field (0.6 s here)."""
        g = random_edge_list(4096, 3 * 4096, seed=0)
        res = repro.connected_components(g, engine="auto", early_exit=True)
        assert res.method == "contracting"
        plain = repro.connected_components(g, engine="auto")
        assert np.array_equal(res.labels, plain.labels)

    def test_auto_with_flag_past_the_dense_field_limit(self):
        """n = 10 000 is too large for the dense field; with the flag
        set ``auto`` used to raise instead of dispatching."""
        g = random_edge_list(10_000, 30_000, seed=1)
        res = repro.connected_components(g, engine="auto", early_exit=True)
        assert res.method == "contracting"
        assert res.labels.shape == (10_000,)


class TestComponentsResult:
    def make(self) -> ComponentsResult:
        return gca_connected_components(from_edges(5, [(0, 4), (1, 2)]))

    def test_counts(self):
        res = self.make()
        assert res.n == 5
        assert res.component_count == 3

    def test_components_sorted(self):
        assert self.make().components() == [[0, 4], [1, 2], [3]]

    def test_same_component(self):
        res = self.make()
        assert res.same_component(0, 4)
        assert not res.same_component(0, 1)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_reexports(self):
        assert callable(repro.gca_connected_components)
        assert callable(repro.random_graph)
        assert callable(repro.canonical_labels)
        assert callable(repro.hirschberg_reference)

    def test_all_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
