"""Tests for the adaptive engine dispatcher and its cost model."""

from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.api import _probed_cost_model, connected_components
from repro.core.dispatch import (
    DISPATCHABLE,
    CostModel,
    calibrate,
    choose_engine,
    explain_choice,
    predict_costs,
)
from repro.graphs.components import canonical_labels
from repro.graphs.generators import random_graph
from repro.graphs.union_find import UnionFind
from repro.hirschberg.edgelist import random_edge_list
from repro.serve.scheduler import BatchPlanner, BucketKey


class TestPredictCosts:
    def test_all_engines_priced(self):
        costs = predict_costs(64, 200)
        assert set(costs) == set(DISPATCHABLE)
        assert all(v > 0 for v in costs.values())

    def test_batched_requires_batch(self):
        assert predict_costs(16, 30, batch_size=1)["batched"] == float("inf")
        assert predict_costs(16, 30, batch_size=8)["batched"] < float("inf")

    def test_memory_gates_dense_engines(self):
        tiny_budget = CostModel(memory_budget=1024.0)
        costs = predict_costs(10_000, 20_000, model=tiny_budget)
        assert costs["vectorized"] == float("inf")
        assert costs["interpreter"] == float("inf")
        # the in-RAM sparse engine is gated by the same budget...
        assert costs["contracting"] == float("inf")
        # ...while the out-of-core engine stays feasible at any budget
        assert costs["sharded"] < float("inf")

    def test_memory_gate_thresholds_are_the_predicted_bytes(self):
        from repro.core.dispatch import predict_memory

        n, m = 10_000, 20_000
        need = predict_memory(n, m)["contracting"]
        fits = CostModel(memory_budget=need)
        tight = CostModel(memory_budget=need - 1)
        assert predict_costs(n, m, model=fits)["contracting"] < float("inf")
        assert predict_costs(n, m, model=tight)["contracting"] == float("inf")

    def test_sharded_priced_but_never_preferred_in_ram(self):
        # with the shipped budget, small and mid workloads never pick
        # the disk path: its fixed overhead dominates
        for n, m in ((64, 200), (20_000, 30_000), (2_000_000, 6_000_000)):
            costs = predict_costs(n, m)
            assert costs["sharded"] < float("inf")
            assert costs["contracting"] < costs["sharded"]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            predict_costs(0, 1)
        with pytest.raises(ValueError):
            predict_costs(4, -1)
        with pytest.raises(ValueError):
            predict_costs(4, 1, batch_size=0)


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
        # a model where the dense field is free and contraction absurd
        rigged = CostModel(
            vectorized_gen_dispatch=1e-15, vectorized_cell_gen=1e-15,
            contracting_unit=1.0, contracting_level_dispatch=1.0,
        )
        assert choose_engine(1000, 2000) == "contracting"
        assert choose_engine(1000, 2000, model=rigged) == "vectorized"


class TestExplainChoice:
    def test_fields(self):
        doc = explain_choice(64, 100)
        assert doc["n"] == 64 and doc["m"] == 100
        assert doc["choice"] in doc["feasible"]
        assert set(doc["predicted_seconds"]) == set(DISPATCHABLE)

    def test_infeasible_excluded(self):
        tiny = CostModel(memory_budget=1024.0)
        doc = explain_choice(10_000, 100, model=tiny)
        assert "vectorized" not in doc["feasible"]
        # nothing in-RAM fits a 1 KiB budget; only the disk path remains
        assert doc["feasible"] == ["sharded"]
        assert doc["choice"] == "sharded"

    def test_reports_memory_dimension(self):
        from repro.core.dispatch import predict_memory

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
        uf = UnionFind(g.n)
        half = g.src.size // 2
        for u, v in zip(g.src[:half].tolist(), g.dst[:half].tolist()):
            uf.union(u, v)
        assert np.array_equal(res.labels, uf.canonical_labels())

    def test_every_forced_engine_agrees_with_auto(self):
        g = random_graph(24, 0.2, seed=9)
        auto = connected_components(g, engine="auto").labels
        for engine in DISPATCHABLE:
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
        uf = UnionFind(g.n)
        half = g.src.size // 2
        for u, v in zip(g.src[:half].tolist(), g.dst[:half].tolist()):
            uf.union(u, v)
        assert np.array_equal(res.labels, uf.canonical_labels())

    def test_probe_available_memory_is_sane(self):
        from repro.core.dispatch import probe_available_memory

        probed = probe_available_memory()
        assert isinstance(probed, int)
        assert probed > 1 << 20  # any real host has more than 1 MiB free

    def test_probe_default_passthrough(self):
        from unittest import mock

        from repro.core.dispatch import probe_available_memory

        with mock.patch("builtins.open", side_effect=OSError):
            assert probe_available_memory(default=12345) == 12345


class TestCalibrate:
    def test_returns_positive_constants(self):
        model = calibrate(seconds_budget=0.5)
        assert isinstance(model, CostModel)
        for field in ("interpreter_cell_gen", "vectorized_gen_dispatch",
                      "vectorized_cell_gen", "batched_cell_gen",
                      "contracting_unit", "contracting_level_dispatch"):
            assert getattr(model, field) > 0, field

    def test_calibrated_model_still_dispatches(self):
        model = calibrate(seconds_budget=0.5)
        assert choose_engine(1_000_000, 5_000_000, model=model) in DISPATCHABLE


class TestCostModelCache:
    """Persistence of calibrated cost models (cached_cost_model)."""

    def _fast_calibrate(self, monkeypatch, marker=123.0):
        import repro.core.dispatch as dispatch

        calls = {"count": 0}

        def fake_calibrate(seconds_budget=1.0):
            calls["count"] += 1
            return CostModel(request_overhead=marker)

        monkeypatch.setattr(dispatch, "calibrate", fake_calibrate)
        return calls

    def test_cache_path_respects_env_override(self, tmp_path, monkeypatch):
        from repro.core.dispatch import default_cache_path

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_path() == tmp_path / "costmodel.json"

    def test_save_then_load_round_trips(self, tmp_path):
        from repro.core.dispatch import load_cost_model, save_cost_model

        model = CostModel(request_overhead=42.0)
        path = save_cost_model(model, tmp_path / "cm.json")
        assert path.exists()
        loaded = load_cost_model(path)
        assert loaded is not None
        assert loaded.request_overhead == 42.0

    def test_load_missing_returns_none(self, tmp_path):
        from repro.core.dispatch import load_cost_model

        assert load_cost_model(tmp_path / "absent.json") is None

    def test_load_corrupt_returns_none(self, tmp_path):
        from repro.core.dispatch import load_cost_model

        path = tmp_path / "cm.json"
        path.write_text("{not json")
        assert load_cost_model(path) is None

    def test_load_wrong_version_returns_none(self, tmp_path):
        import json

        from repro.core.dispatch import load_cost_model

        path = tmp_path / "cm.json"
        path.write_text(json.dumps({"version": -1, "constants": {}}))
        assert load_cost_model(path) is None

    def test_load_ignores_unknown_constants(self, tmp_path):
        import json

        from repro.core.dispatch import (
            _CACHE_VERSION,
            host_fingerprint,
            load_cost_model,
        )

        path = tmp_path / "cm.json"
        path.write_text(json.dumps({
            "version": _CACHE_VERSION,
            "host": host_fingerprint(),
            "constants": {"request_overhead": 7.0, "not_a_field": 1.0},
        }))
        loaded = load_cost_model(path)
        assert loaded is not None
        assert loaded.request_overhead == 7.0

    def test_load_cache_with_removed_fields(self, tmp_path):
        """A cache written while the model still priced the edge-list
        and chunk-parallel engines loads; the retired constants drop."""
        import json

        from repro.core.dispatch import (
            _CACHE_VERSION,
            host_fingerprint,
            load_cost_model,
        )

        retired = {
            "scatter_edge": 1.3e-8,
            "edgelist_iter_dispatch": 1.2e-5,
            "parallel_round_sync": 4.0e-3,
            "parallel_rounds": 5.0,
            "parallel_combine_node": 1.5e-9,
            "parallel_workers": 2.0,
        }
        constants = {**asdict(CostModel()), **retired,
                     "contracting_unit": 5.0e-8}
        path = tmp_path / "cm.json"
        path.write_text(json.dumps({
            "version": _CACHE_VERSION,
            "saved_at": 0.0,
            "host": host_fingerprint(),
            "constants": constants,
        }))
        loaded = load_cost_model(path)
        assert loaded == CostModel(contracting_unit=5.0e-8)

    def test_load_foreign_host_returns_none(self, tmp_path):
        """Satellite: a calibration cache carried to a different core
        count (or arch) must recalibrate, not misprice dispatch."""
        import json

        from repro.core.dispatch import (
            host_fingerprint,
            load_cost_model,
            save_cost_model,
        )

        path = save_cost_model(CostModel(), tmp_path / "cm.json")
        assert load_cost_model(path) is not None
        payload = json.loads(path.read_text())
        assert payload["host"] == host_fingerprint()
        payload["host"]["cpu_count"] = (payload["host"]["cpu_count"] or 0) + 64
        path.write_text(json.dumps(payload))
        assert load_cost_model(path) is None
        # and a cache missing the host stamp entirely is equally stale
        del payload["host"]
        path.write_text(json.dumps(payload))
        assert load_cost_model(path) is None

    def test_cached_calibrates_once(self, tmp_path, monkeypatch):
        from repro.core.dispatch import cached_cost_model

        calls = self._fast_calibrate(monkeypatch)
        path = tmp_path / "cm.json"
        first = cached_cost_model(path)
        second = cached_cost_model(path)
        assert calls["count"] == 1  # second call served from the cache
        assert first.request_overhead == second.request_overhead == 123.0

    def test_recalibrate_escape_hatch(self, tmp_path, monkeypatch):
        from repro.core.dispatch import cached_cost_model

        calls = self._fast_calibrate(monkeypatch)
        path = tmp_path / "cm.json"
        cached_cost_model(path)
        cached_cost_model(path, recalibrate=True)
        assert calls["count"] == 2  # forced fresh measurement

    def test_calibrate_measures_request_overhead(self):
        model = calibrate(seconds_budget=0.05)
        assert model.request_overhead > 0


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
    """``auto`` and the serve planner choose only among engines that won
    a measured point: never the edge-list or the chunk-parallel engine."""

    RETIRED = ("edgelist", "parallel")

    def test_dispatchable_engines(self):
        assert DISPATCHABLE == (
            "contracting", "batched", "vectorized", "interpreter", "sharded",
        )

    @settings(max_examples=300, deadline=None)
    @example(n=512, m=60_000, batch_size=1, model=CostModel())
    @given(n=st.integers(1, 10**8), m=st.integers(0, 10**9),
           batch_size=st.integers(1, 512), model=_MODELS)
    def test_never_retired_engines(self, n, m, batch_size, model):
        assert choose_engine(n, m, batch_size=batch_size, model=model) \
            not in self.RETIRED
        assert not set(self.RETIRED) & set(
            explain_choice(n, m, batch_size=batch_size,
                           model=model)["predicted_seconds"])
        planner = BatchPlanner(model=model)
        sparse = BucketKey("sparse", n)
        assert set(planner._priced(sparse, batch_size, m)) == {"contracting"}
        dense = BucketKey("dense", n)
        assert planner.choose_batch_engine(dense, batch_size, m) \
            not in self.RETIRED

    def test_auto_contracts_a_big_sparse_graph(self):
        """The graph size where the parallel engine used to win the
        cost model on a multi-core host."""
        g = random_edge_list(200_000, 1_000_000, seed=1)
        assert connected_components(g, engine="auto").method == "contracting"
