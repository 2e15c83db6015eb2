"""Tests for the engine dispatcher's three-rule table."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.api as api
from repro.core.api import _probed_cost_model, connected_components
from repro.core.dispatch import (
    DISPATCHABLE,
    CostModel,
    choose_engine,
    explain_choice,
    host_fingerprint,
    predict_memory,
    probe_available_memory,
)
from repro.graphs.components import canonical_labels, components_union_find
from repro.graphs.generators import complete_graph, random_graph
from repro.graphs.union_find import UnionFind
from repro.hirschberg.edgelist import random_edge_list
from repro.serve.request import CCRequest, ResultHandle
from repro.serve.scheduler import PendingRequest, flush_engine


def _oracle_sparse(g) -> np.ndarray:
    uf = UnionFind(g.n)
    half = g.src.size // 2
    for u, v in zip(g.src[:half].tolist(), g.dst[:half].tolist()):
        uf.union(u, v)
    return uf.canonical_labels()


class TestChooseEngine:
    def test_large_sparse_goes_contracting(self):
        assert choose_engine(2_000_000, 6_000_000) == "contracting"

    def test_choice_is_always_dispatchable(self):
        for n in (1, 4, 64, 1024, 100_000):
            for m in (0, n, 4 * n):
                assert choose_engine(n, m) in DISPATCHABLE

    def test_instrumentation_forces_interpreter(self):
        assert choose_engine(8, 10, require_instrumentation=True) == "interpreter"

    def test_instrumentation_infeasible_raises(self):
        tiny = CostModel(memory_budget=1024.0)
        with pytest.raises(ValueError):
            choose_engine(10_000, 100, model=tiny, require_instrumentation=True)

    def test_respects_model_override(self):
        # a graph the shipped 2 GiB budget cannot hold fits a 1 TB one
        roomy = CostModel(memory_budget=1e12)
        assert choose_engine(50_000_000, 1_000_000_000) == "sharded"
        assert choose_engine(50_000_000, 1_000_000_000, model=roomy) \
            == "contracting"


class TestRuleTable:
    """``auto`` is ``contracting`` wherever it fits, dense input and
    complete graphs included, and its labels match the oracle."""

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_auto_contracts_complete_graphs(self, n):
        g = complete_graph(n)
        res = connected_components(g, engine="auto")
        assert res.method == "contracting"
        assert np.array_equal(res.labels, components_union_find(g))

    def test_auto_contracts_a_dense_half_graph(self):
        g = random_graph(1024, 0.5, seed=4)
        res = connected_components(g.matrix, engine="auto")
        assert res.method == "contracting"
        assert np.array_equal(res.labels, components_union_find(g))

    def test_over_budget_maps_to_sharded(self):
        need = predict_memory(10_000, 20_000)["contracting"]
        assert choose_engine(10_000, 20_000,
                             model=CostModel(memory_budget=need)) \
            == "contracting"
        assert choose_engine(10_000, 20_000,
                             model=CostModel(memory_budget=need - 1)) \
            == "sharded"

    def test_sharded_only_when_contracting_does_not_fit(self):
        # with the shipped budget, small to large in-RAM workloads never
        # take the disk path
        for n, m in ((64, 200), (20_000, 30_000), (2_000_000, 6_000_000)):
            assert choose_engine(n, m) == "contracting"
            assert "sharded" in explain_choice(n, m)["feasible"]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            choose_engine(0, 1)
        with pytest.raises(ValueError):
            predict_memory(4, -1)

    def test_cost_model_is_small(self):
        assert len(fields(CostModel)) <= 8


class TestPredictCosts:
    """The memory gate: an engine whose predicted bytes exceed the
    budget is infeasible."""

    def test_memory_gates_dense_engines(self):
        tiny_budget = CostModel(memory_budget=1024.0)
        need = predict_memory(10_000, 20_000, model=tiny_budget)
        feasible = explain_choice(10_000, 20_000,
                                  model=tiny_budget)["feasible"]
        assert "vectorized" not in feasible
        assert need["interpreter"] > tiny_budget.memory_budget
        assert "interpreter" not in feasible
        # the in-RAM sparse engine is gated by the same budget...
        assert need["contracting"] > tiny_budget.memory_budget
        assert "contracting" not in feasible
        # ...while the out-of-core engine stays feasible at any budget
        assert need["sharded"] <= tiny_budget.memory_budget
        assert "sharded" in feasible


class TestExplainChoice:
    def test_fields(self):
        doc = explain_choice(64, 100)
        assert doc["n"] == 64 and doc["m"] == 100
        assert doc["choice"] in doc["feasible"]
        assert set(doc["predicted_seconds"]) == {doc["choice"]}

    def test_contract_read_by_the_benchmark(self):
        """``perfbench/solve_random.py`` reads these keys and divides
        ``predicted_seconds[choice]`` by the measured solve."""
        model = CostModel(contracting_unit=1e-7)
        doc = explain_choice(1_000, 5_000, model=model)
        assert set(doc) == {
            "n", "m", "predicted_seconds", "memory", "feasible", "choice",
        }
        assert doc["choice"] == "contracting"
        assert doc["predicted_seconds"]["contracting"] == pytest.approx(
            (1_000 + 2 * 5_000) * 1e-7)
        assert set(doc["memory"]) == {"budget_bytes", "predicted_bytes"}

    def test_infeasible_excluded(self):
        tiny = CostModel(memory_budget=1024.0)
        doc = explain_choice(10_000, 100, model=tiny)
        assert "vectorized" not in doc["feasible"]
        # nothing in-RAM fits a 1 KiB budget; only the disk path remains
        assert doc["feasible"] == ["sharded"]
        assert doc["choice"] == "sharded"

    def test_reports_memory_dimension(self):
        doc = explain_choice(10_000, 20_000)
        memory = doc["memory"]
        assert memory["budget_bytes"] == CostModel().memory_budget
        assert memory["predicted_bytes"] == predict_memory(10_000, 20_000)
        assert set(memory["predicted_bytes"]) == set(DISPATCHABLE)
        # the out-of-core engine's resident set is clamped to the budget
        assert (memory["predicted_bytes"]["sharded"]
                <= memory["budget_bytes"])


class TestDecisionGridCorrectness:
    """``engine="auto"`` must return oracle-identical labels across the
    dispatcher's whole decision grid -- whatever it picks."""

    @pytest.mark.parametrize("n,p", [
        (2, 1.0), (8, 0.4), (16, 0.2), (48, 0.1), (48, 0.6), (96, 0.05),
    ])
    def test_dense_grid(self, n, p):
        g = random_graph(n, p, seed=n)
        res = connected_components(g, engine="auto")
        assert res.requested_method == "auto"
        assert res.method in DISPATCHABLE
        assert np.array_equal(res.labels, canonical_labels(g))

    @pytest.mark.parametrize("n,m", [
        (1, 0), (2, 1), (100, 0), (500, 400), (5_000, 12_000), (20_000, 30_000),
    ])
    def test_sparse_grid(self, n, m):
        g = random_edge_list(n, m, seed=n)
        res = connected_components(g, engine="auto")
        assert np.array_equal(res.labels, _oracle_sparse(g))

    def test_every_forced_engine_agrees_with_auto(self):
        g = random_graph(24, 0.2, seed=9)
        auto = connected_components(g, engine="auto").labels
        for engine in DISPATCHABLE + ("batched", "vectorized"):
            forced = connected_components(g, engine=engine).labels
            assert np.array_equal(forced, auto), engine


class TestMemoryRouting:
    """The acceptance surface: auto routes out-of-core when the working
    set exceeds the budget, and the labels still match the oracle."""

    def test_choose_engine_routes_to_sharded_under_tight_budget(self):
        tight = CostModel(memory_budget=float(1 << 20))
        assert choose_engine(100_000, 400_000, model=tight) == "sharded"

    def test_auto_dispatches_sharded_and_matches_oracle(self):
        g = random_edge_list(3_000, 6_000, seed=11)
        tight = CostModel(memory_budget=float(64 << 10))
        res = connected_components(g, engine="auto", cost_model=tight)
        assert res.method == "sharded"
        assert res.requested_method == "auto"
        assert np.array_equal(res.labels, _oracle_sparse(g))

    def test_probe_available_memory_is_sane(self):
        probed = probe_available_memory()
        assert isinstance(probed, int)
        assert probed > 1 << 20  # any real host has more than 1 MiB free

    def test_probe_default_passthrough(self):
        from unittest import mock

        with mock.patch("builtins.open", side_effect=OSError):
            assert probe_available_memory(default=12345) == 12345


class TestHostFingerprint:
    def test_names_the_facts_a_measurement_depends_on(self):
        host = host_fingerprint()
        assert set(host) == {"cpu_count", "machine", "system"}
        assert host["cpu_count"] >= 1


class TestParallelDispatch:
    """The chunk-parallel engine stays selectable by name, but the
    dispatcher never routes to it."""

    def test_small_graphs_never_route_parallel(self):
        """Acceptance bar: auto never regresses small graphs."""
        for n, m in ((10, 20), (200, 400), (2_000, 3_000)):
            assert choose_engine(n, m) != "parallel"

    def test_forced_parallel_engine_matches_auto(self):
        g = random_edge_list(3_000, 8_000, seed=77)
        auto = connected_components(g)
        forced = connected_components(g, engine="parallel")
        assert forced.method == "parallel"
        assert np.array_equal(auto.labels, forced.labels)


def _scaled_model(factors):
    return replace(CostModel(), **{
        f.name: getattr(CostModel(), f.name) * factor
        for f, factor in zip(fields(CostModel), factors)
    })


#: Shipped, host-probed and randomly rescaled cost models.
_MODELS = st.one_of(
    st.just(CostModel()),
    st.builds(_probed_cost_model),
    st.lists(st.floats(1e-3, 1e3), min_size=len(fields(CostModel)),
             max_size=len(fields(CostModel))).map(_scaled_model),
)


class TestDispatchSet:
    """``auto`` and the serve planner choose only from the rule table:
    contracting, sharded or (on request) the interpreter."""

    def test_dispatchable_engines(self):
        assert DISPATCHABLE == ("contracting", "interpreter", "sharded")

    @settings(max_examples=300, deadline=None)
    @example(n=512, m=130_816, batch_size=1, model=CostModel())
    @given(n=st.integers(1, 10**8), m=st.integers(0, 10**9),
           batch_size=st.integers(1, 512), model=_MODELS)
    def test_never_retired_engines(self, n, m, batch_size, model):
        rule_table = {"contracting", "sharded"}
        assert choose_engine(n, m, model=model) in rule_table
        doc = explain_choice(n, m, model=model)
        assert set(doc["predicted_seconds"]) == {doc["choice"]} <= rule_table
        pending = PendingRequest(
            handle=ResultHandle(CCRequest(graph=random_edge_list(2, 1))),
            n=n, sparse=True, submitted_at=0.0, deadline_at=None, m_known=m,
        )
        saved, api._PROBED_MODEL = api._PROBED_MODEL, model
        try:
            engine = flush_engine([pending] * batch_size)
        finally:
            api._PROBED_MODEL = saved
        assert engine in rule_table
        if batch_size > 1:
            assert engine == "contracting"

    def test_auto_contracts_a_big_sparse_graph(self):
        """The graph size where the parallel engine used to win the
        cost model on a multi-core host."""
        g = random_edge_list(200_000, 1_000_000, seed=1)
        res = connected_components(g, engine="auto")
        assert res.method == "contracting"
        assert np.array_equal(res.labels, _oracle_sparse(g))
