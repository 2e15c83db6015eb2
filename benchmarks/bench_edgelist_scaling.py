"""E18 (extension) -- the work-efficient edge-list variant at scale.

The paper's dense field is Theta(n^2) by design (work-optimal for dense
graphs, and matched to the FPGA architecture).  This bench shows the same
algorithm re-expressed over edge lists running at O((n + m) log n) work:
identical per-iteration labellings (verified in the tests), hundreds of
thousands of nodes in fractions of a second, against union-find as both
the oracle and the wall-clock baseline.
"""

import time

import pytest

from repro.graphs.union_find import UnionFind
from repro.hirschberg.edgelist import (
    connected_components_edgelist,
    random_edge_list,
)
from repro.util.formatting import render_table

CASES = [
    (1_000, 2_000),
    (10_000, 20_000),
    (100_000, 150_000),
]


def union_find_labels(g):
    uf = UnionFind(g.n)
    us, vs = g.pairs()
    for u, v in zip(us.tolist(), vs.tolist()):
        uf.union(u, v)
    return uf.canonical_labels()


class TestEdgeListScaling:
    def test_report(self, record_report):
        rows = []
        for n, m in CASES:
            g = random_edge_list(n, m, seed=n)
            start = time.perf_counter()
            res = connected_components_edgelist(g)
            hirschberg_s = time.perf_counter() - start
            start = time.perf_counter()
            oracle = union_find_labels(g)
            uf_s = time.perf_counter() - start
            assert (res.labels == oracle).all()
            rows.append([
                n, g.edge_count, res.component_count, res.iterations,
                f"{hirschberg_s * 1e3:.1f}", f"{uf_s * 1e3:.1f}",
            ])
        record_report(
            "edgelist_scaling",
            render_table(
                ["n", "edges", "components", "iterations",
                 "hirschberg ms", "union-find ms"],
                rows,
                title="Edge-list Hirschberg at scale (oracle-verified)",
            ),
        )

    def test_iteration_count_stays_logarithmic(self):
        g = random_edge_list(100_000, 120_000, seed=0)
        res = connected_components_edgelist(g)
        assert res.iterations == 17  # ceil(log2(100_000))


class TestEdgeListBenchmarks:
    @pytest.mark.parametrize("n,m", CASES)
    def test_hirschberg_edgelist(self, benchmark, n, m):
        g = random_edge_list(n, m, seed=n)
        benchmark(lambda: connected_components_edgelist(g))

    @pytest.mark.parametrize("n,m", [(10_000, 20_000)])
    def test_union_find_baseline(self, benchmark, n, m):
        g = random_edge_list(n, m, seed=n)
        benchmark(lambda: union_find_labels(g))
