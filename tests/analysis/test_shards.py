"""Shard planning, windowed pair files, and the spot-check protocol."""

from __future__ import annotations

import mmap

import numpy as np
import pytest

from repro.analysis.shards import (
    DEFAULT_CHUNK_EDGES,
    MAX_SHARDS,
    MIN_SHARD_EDGES,
    PairFile,
    ShardStore,
    open_memmap_window,
    plan_shards,
    remove_workdir,
    spot_check_labels,
)
from repro.graphs.union_find import UnionFind
from repro.hirschberg.edgelist import random_edge_list


def oracle_labels(g) -> np.ndarray:
    uf = UnionFind(g.n)
    half = g.src.size // 2
    for u, v in zip(g.src[:half].tolist(), g.dst[:half].tolist()):
        uf.union(u, v)
    return np.asarray(uf.canonical_labels())


class TestPlanShards:
    def test_small_input_is_one_shard(self):
        plan = plan_shards(1000, 5_000, memory_budget=1 << 30)
        assert plan.shards == 1
        assert plan.workers == 1
        assert plan.shard_edges >= 5_000

    def test_shard_count_scales_with_edges(self):
        budget = MIN_SHARD_EDGES * 256 * 2
        small = plan_shards(10, MIN_SHARD_EDGES, memory_budget=budget)
        large = plan_shards(10, 64 * MIN_SHARD_EDGES, memory_budget=budget)
        assert large.shards > small.shards
        # every shard carries its share of the edges
        assert large.shards * large.shard_edges >= 64 * MIN_SHARD_EDGES

    def test_more_workers_means_smaller_shards(self):
        budget = 1 << 28
        solo = plan_shards(10, 50_000_000, memory_budget=budget, workers=1)
        quad = plan_shards(10, 50_000_000, memory_budget=budget, workers=4)
        assert quad.shards >= solo.shards
        assert quad.shard_edges <= solo.shard_edges

    def test_explicit_shard_override(self):
        plan = plan_shards(10, 1_000, memory_budget=1 << 30, shards=7)
        assert plan.shards == 7
        assert plan.shard_edges == -(-1_000 // 7)

    def test_shard_cap(self):
        plan = plan_shards(10, 10**9, memory_budget=1 << 20)
        assert plan.shards <= MAX_SHARDS
        with pytest.raises(ValueError):
            plan_shards(10, 100, memory_budget=1 << 20, shards=MAX_SHARDS + 1)

    def test_chunk_edges_bounded(self):
        plan = plan_shards(10, 10**8, memory_budget=1 << 30)
        assert 4096 <= plan.chunk_edges <= DEFAULT_CHUNK_EDGES

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_shards(0, 10)
        with pytest.raises(ValueError):
            plan_shards(10, -1)
        with pytest.raises(ValueError):
            plan_shards(10, 10, memory_budget=0)
        with pytest.raises(ValueError):
            plan_shards(10, 10, workers=0)
        with pytest.raises(ValueError):
            plan_shards(10, 10, memory_budget=1 << 20, shards=0)

    def test_probed_budget_default(self):
        # no budget -> the planner probes the host; the plan is usable
        plan = plan_shards(10, 1_000)
        assert plan.memory_budget > 0
        assert plan.shards >= 1

    def test_to_json_round_trip_fields(self):
        plan = plan_shards(10, 1_000, memory_budget=1 << 30, shards=3)
        doc = plan.to_json()
        assert doc["shards"] == 3 and doc["edges"] == 1_000
        assert set(doc) == {
            "n", "edges", "shards", "shard_edges", "memory_budget",
            "chunk_edges", "workers",
        }


class TestMemmapWindow:
    def _write(self, path, values):
        np.asarray(values, dtype=np.int64).tofile(path)

    def test_aligned_and_unaligned_windows(self, tmp_path):
        path = tmp_path / "flat.bin"
        data = np.arange(10_000, dtype=np.int64)
        self._write(path, data)
        # windows that start off the mmap allocation granularity exercise
        # the lead-byte arithmetic
        for start, stop in ((0, 10), (1, 2), (511, 1024),
                            (mmap.ALLOCATIONGRANULARITY // 8 + 3, 9_999)):
            with open_memmap_window(path, start, stop) as view:
                assert np.array_equal(view, data[start:stop])

    def test_empty_window(self, tmp_path):
        path = tmp_path / "flat.bin"
        self._write(path, [1, 2, 3])
        with open_memmap_window(path, 2, 2) as view:
            assert view.size == 0

    def test_negative_window_rejected(self, tmp_path):
        path = tmp_path / "flat.bin"
        self._write(path, [1, 2, 3])
        with pytest.raises(ValueError):
            with open_memmap_window(path, 2, 1):
                pass

    def test_window_is_unmapped_on_exit(self, tmp_path):
        path = tmp_path / "flat.bin"
        self._write(path, np.arange(100))
        with open_memmap_window(path, 0, 100) as view:
            assert int(view[7]) == 7
            base = view
            while isinstance(base, np.ndarray):  # walk to the raw mapping
                base = base.base
            assert isinstance(base, mmap.mmap) and not base.closed
        # the mapping was released eagerly, not left to the collector
        assert base.closed


class TestPairFile:
    def test_append_and_read_all(self, tmp_path):
        pf = PairFile(tmp_path / "p.pairs")
        u1, v1 = np.array([1, 2, 3]), np.array([4, 5, 6])
        pf.append(u1, v1)
        pf.append(np.array([7]), np.array([8]))
        assert pf.pairs == 4
        u, v = pf.read_all()
        assert u.tolist() == [1, 2, 3, 7]
        assert v.tolist() == [4, 5, 6, 8]
        pf.close()

    def test_iter_chunks_bounded_and_complete(self, tmp_path):
        pf = PairFile(tmp_path / "p.pairs")
        rng = np.random.default_rng(0)
        u = rng.integers(0, 1000, size=10_001)
        v = rng.integers(0, 1000, size=10_001)
        pf.append(u, v)
        got_u, got_v = [], []
        for cu, cv in pf.iter_chunks(256):
            assert cu.size <= 256 and cu.size == cv.size
            got_u.append(cu)
            got_v.append(cv)
        assert np.array_equal(np.concatenate(got_u), u)
        assert np.array_equal(np.concatenate(got_v), v)
        pf.close()

    def test_reopen_counts_existing_pairs(self, tmp_path):
        path = tmp_path / "p.pairs"
        with PairFile(path) as pf:
            pf.append(np.array([1, 2]), np.array([3, 4]))
        again = PairFile(path)
        assert again.pairs == 2
        again.close()

    def test_mismatched_lengths_rejected(self, tmp_path):
        pf = PairFile(tmp_path / "p.pairs")
        with pytest.raises(ValueError):
            pf.append(np.array([1, 2]), np.array([3]))
        pf.close()

    def test_remove_is_idempotent(self, tmp_path):
        pf = PairFile(tmp_path / "p.pairs")
        pf.append(np.array([1]), np.array([2]))
        pf.remove()
        pf.remove()
        assert not (tmp_path / "p.pairs").exists()


class TestShardStore:
    def test_partition_is_balanced_even_on_sorted_input(self, tmp_path):
        store = ShardStore(tmp_path / "w", shards=4)
        # a sorted stream: naive contiguous splitting would put all the
        # small endpoints in shard 0
        u = np.arange(10_000, dtype=np.int64)
        v = u + 1
        total = store.partition([(u[:5_000], v[:5_000]),
                                 (u[5_000:], v[5_000:])])
        assert total == 10_000
        counts = [store.edge_count(i) for i in range(4)]
        assert sum(counts) == 10_000
        assert max(counts) - min(counts) <= 2
        store.remove()

    def test_round_trip_preserves_every_edge(self, tmp_path):
        store = ShardStore(tmp_path / "w", shards=3)
        rng = np.random.default_rng(1)
        u = rng.integers(0, 500, size=4_321)
        v = rng.integers(0, 500, size=4_321)
        store.partition([(u, v)])
        seen = set()
        for cu, cv in store.iter_all_chunks(1_000):
            seen.update(zip(cu.tolist(), cv.tolist()))
        assert seen == set(zip(u.tolist(), v.tolist()))
        assert store.total_edges() == 4_321
        store.remove()

    def test_remove_then_remove_workdir_leaves_nothing(self, tmp_path):
        workdir = tmp_path / "w"
        store = ShardStore(workdir, shards=2)
        store.partition([(np.array([1, 2]), np.array([3, 4]))])
        store.remove()
        remove_workdir(workdir)
        assert not workdir.exists()

    def test_remove_workdir_spares_user_files(self, tmp_path):
        workdir = tmp_path / "w"
        store = ShardStore(workdir, shards=1)
        store.partition([(np.array([1]), np.array([2]))])
        store.close()
        keep = workdir / "notes.txt"
        keep.write_text("mine")
        remove_workdir(workdir)
        assert keep.exists() and keep.read_text() == "mine"
        assert not list(workdir.glob("*.pairs"))


def _chunks(g, chunk=997):
    half = g.src.size // 2
    u, v = g.src[:half], g.dst[:half]
    for start in range(0, half, chunk):
        yield u[start:start + chunk], v[start:start + chunk]


class TestSpotCheckProtocol:
    """The acceptance property: correct labellings pass, corrupted ones
    are caught with high probability."""

    def test_correct_labels_pass(self):
        g = random_edge_list(2_000, 5_000, seed=3)
        labels = oracle_labels(g)
        report = spot_check_labels(labels, g.n, _chunks(g))
        assert report.ok
        assert report.violation_count == 0
        assert set(report.checks) == {
            "representative_in_range", "representative_min",
            "representative_idempotent", "edge_consistency",
            "oracle_refinement",
        }

    def test_correct_labels_pass_under_sampling(self):
        # force every sampling path: strided edge checks, strided
        # subsample, partial vertex coverage
        g = random_edge_list(5_000, 20_000, seed=4)
        labels = oracle_labels(g)
        report = spot_check_labels(
            labels, g.n, _chunks(g), edges_hint=g.src.size // 2,
            max_edge_samples=1_000, vertex_samples=500,
            subsample_edges=800,
        )
        assert report.ok
        assert report.edges_checked <= 2_000  # stride may overshoot a bit
        assert report.vertices_checked == 500
        assert report.subsample_edges == 800

    @pytest.mark.parametrize("trial", range(20))
    def test_random_corruption_is_caught(self, trial):
        """Corrupting a handful of labels of a full-coverage check is
        always caught by one of the three lenses."""
        g = random_edge_list(1_500, 4_000, seed=5)
        labels = oracle_labels(g).copy()
        rng = np.random.default_rng(trial)
        for x in rng.choice(g.n, size=3, replace=False):
            labels[x] = (labels[x] + 1 + rng.integers(0, g.n - 1)) % g.n
        report = spot_check_labels(labels, g.n, _chunks(g))
        assert not report.ok
        assert report.violation_count > 0

    def test_sampled_corruption_caught_with_high_probability(self):
        """Under genuine sampling (not full coverage) a 1%% corruption
        still fails the check in the overwhelming majority of trials."""
        g = random_edge_list(4_000, 12_000, seed=6)
        clean = oracle_labels(g)
        caught = 0
        trials = 20
        for trial in range(trials):
            labels = clean.copy()
            rng = np.random.default_rng(100 + trial)
            bad = rng.choice(g.n, size=g.n // 100, replace=False)
            labels[bad] = (labels[bad] + 1) % g.n
            report = spot_check_labels(
                labels, g.n, _chunks(g), edges_hint=g.src.size // 2,
                max_edge_samples=2_000, vertex_samples=1_000,
                subsample_edges=1_000, seed=trial,
            )
            caught += not report.ok
        assert caught >= trials - 1

    def test_out_of_range_label_reported(self):
        g = random_edge_list(100, 200, seed=7)
        labels = oracle_labels(g).copy()
        labels[50] = g.n + 7
        report = spot_check_labels(labels, g.n, _chunks(g))
        assert not report.checks["representative_in_range"]
        assert any("out of range" in v for v in report.violations)

    def test_non_minimal_label_reported(self):
        g = random_edge_list(100, 0, seed=8)
        labels = np.arange(100, dtype=np.int64)
        labels[10] = 20  # points "up": violates the minimum convention
        report = spot_check_labels(labels, 100, _chunks(g))
        assert not report.checks["representative_min"]

    def test_split_component_caught_by_refinement(self):
        # two vertices joined by an edge but labelled apart: the edge
        # lens and the union-find refinement lens both see it
        u = np.array([0, 1, 2], dtype=np.int64)
        v = np.array([1, 2, 3], dtype=np.int64)
        labels = np.array([0, 0, 2, 2], dtype=np.int64)
        report = spot_check_labels(labels, 4, [(u, v)])
        assert not report.checks["edge_consistency"]
        assert not report.checks["oracle_refinement"]

    def test_consistent_cross_component_merge_is_the_known_blind_spot(self):
        """Relabelling one whole component onto another's representative
        is the documented limitation: no lens can see it when no edge
        joins the two.  The test pins the honest contract."""
        labels = np.array([0, 0, 0, 0], dtype=np.int64)  # truth: {0,1},{2,3}
        u = np.array([0, 2], dtype=np.int64)
        v = np.array([1, 3], dtype=np.int64)
        report = spot_check_labels(labels, 4, [(u, v)])
        assert report.ok  # undetectable by construction

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            spot_check_labels(np.zeros(3, dtype=np.int64), 4, [])

    def test_report_to_json(self):
        g = random_edge_list(200, 400, seed=9)
        report = spot_check_labels(oracle_labels(g), g.n, _chunks(g))
        doc = report.to_json()
        assert doc["ok"] is True
        assert doc["n"] == 200
        assert isinstance(doc["checks"], dict)


class TestSpotCheckPinned:
    """A seeded report, pinned field by field: the refinement check's
    compaction must keep its vertex order and so its example order."""

    CORRUPTED_VIOLATIONS = [
        "edge (79, 1550) crosses labels 16 != 0",
        "edge (84, 2847) crosses labels 0 != 2793",
        "edge (194, 242) crosses labels 1784 != 0",
        "edge (339, 1327) crosses labels 179 != 0",
        "edge (435, 874) crosses labels 0 != 223",
        "edge (442, 2068) crosses labels 125 != 0",
        "edge (448, 944) crosses labels 0 != 1787",
        "edge (538, 2010) crosses labels 0 != 1988",
        "edge (673, 2113) crosses labels 0 != 6",
        "edge (704, 2903) crosses labels 0 != 1658",
        "edge (808, 2940) crosses labels 0 != 2018",
        "edge (850, 1373) crosses labels 2221 != 0",
        "edge (862, 2347) crosses labels 0 != 1816",
        "subsample-connected vertices 1 and 850 carry labels 0 != 2221",
        "subsample-connected vertices 850 and 973 carry labels 2221 != 0",
        "subsample-connected vertices 16 and 414 carry labels 1870 != 0",
        "subsample-connected vertices 38 and 657 carry labels 2288 != 0",
        "subsample-connected vertices 79 and 189 carry labels 16 != 0",
        "subsample-connected vertices 83 and 339 carry labels 0 != 179",
        "subsample-connected vertices 339 and 588 carry labels 179 != 0",
    ]

    @staticmethod
    def _report(corrupt: bool) -> dict:
        g = random_edge_list(3_000, 4_000, seed=5)
        labels = oracle_labels(g)
        if corrupt:
            rng = np.random.default_rng(9)
            idx = rng.choice(g.n, 40, replace=False)
            labels[idx] = rng.integers(0, g.n, 40)
        report = spot_check_labels(
            labels, g.n, _chunks(g), edges_hint=g.src.size // 2,
            max_edge_samples=500, vertex_samples=300, subsample_edges=700,
            seed=3,
        )
        return report.to_json()

    def test_correct_labels(self):
        doc = self._report(corrupt=False)
        assert doc == {
            "n": 3000, "edges_checked": 500, "vertices_checked": 300,
            "subsample_edges": 667,
            "checks": dict.fromkeys([
                "representative_in_range", "representative_min",
                "representative_idempotent", "edge_consistency",
                "oracle_refinement",
            ], True),
            "violation_count": 0, "violations": [], "ok": True,
        }

    def test_corrupted_labels(self):
        doc = self._report(corrupt=True)
        assert doc["checks"] == {
            "representative_in_range": True,
            "representative_min": True,
            "representative_idempotent": True,
            "edge_consistency": False,
            "oracle_refinement": False,
        }
        assert (doc["edges_checked"], doc["vertices_checked"],
                doc["subsample_edges"]) == (500, 300, 667)
        assert doc["violation_count"] == 31
        assert doc["violations"] == self.CORRUPTED_VIOLATIONS
        assert doc["ok"] is False
