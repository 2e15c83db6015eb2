"""The contracting pair kernel against union-find.

The level loop and the streamed pass take one ``(a, b)`` pair per
undirected edge.  A stamped graph hands over its canonical half; an
unstamped one its ``src < dst`` entries, which name every edge because
both orientations are present.  Every family below runs through the
public entry on both forms, and through ``_solve_pairs`` on raw pairs,
and must give union-find's canonical labels.
"""

import numpy as np
import pytest

from repro.graphs.generators import random_graph
from repro.graphs.union_find import UnionFind
from repro.hirschberg import contracting
from repro.hirschberg.contracting import (
    _solve_pairs,
    connected_components_contracting,
)
from repro.hirschberg.edgelist import EdgeListGraph
from repro.serve.workers import union_edges


def _union_find(n, u, v):
    uf = UnionFind(n)
    for a, b in zip(np.asarray(u).tolist(), np.asarray(v).tolist()):
        uf.union(a, b)
    return np.asarray(uf.canonical_labels())


def _uniform(n, pairs, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, pairs), rng.integers(0, n, pairs)


def _blocks(n, block, pairs, seed):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, pairs)
    v = np.minimum(u // block * block + rng.integers(0, block, pairs), n - 1)
    return u, v


def _shuffled_paths(n, count, seed):
    """``count`` vertex-disjoint paths over a random permutation."""
    order = np.random.default_rng(seed).permutation(n)
    u, v = order[:-1], order[1:]
    cut = np.arange(u.size) % (n // count) != n // count - 1
    return u[cut], v[cut]


def _shuffled_stars(n, count, seed):
    """``count`` stars with random centres; every vertex is a leaf or
    a centre."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    centres = order[:count]
    leaves = order[count:]
    return centres[rng.integers(0, count, leaves.size)], leaves


#: (family, n, builder, streamed): the public entry must stream exactly
#: the families marked so.
FAMILIES = [
    ("uniform_subcritical", 40_000, lambda: _uniform(40_000, 15_000, 1), False),
    ("uniform_streamed", 30_000, lambda: _uniform(30_000, 180_000, 2), True),
    # blocks of n/16 ids are id-local; blocks of n/2 are not
    ("blocks_sixteenths", 40_000,
     lambda: _blocks(40_000, 2_500, 160_000, 3), False),
    ("blocks_halves", 40_000,
     lambda: _blocks(40_000, 20_000, 160_000, 4), True),
    ("shuffled_paths", 20_000, lambda: _shuffled_paths(20_000, 7, 5), False),
    ("shuffled_stars", 20_000, lambda: _shuffled_stars(20_000, 13, 6), False),
]


@pytest.fixture
def streamed_calls(monkeypatch):
    calls = []
    real = contracting._streamed

    def spy(n, lo, hi, first):
        calls.append(int(lo.size))
        return real(n, lo, hi, first)

    monkeypatch.setattr(contracting, "_streamed", spy)
    return calls


def _mirror(n, u, v):
    """The unstamped graph of raw pairs: both orientations, self-loops
    and duplicates kept."""
    return EdgeListGraph(n, np.concatenate([u, v]), np.concatenate([v, u]))


@pytest.mark.parametrize("family, n, build, streamed", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
class TestFamilies:
    def test_stamped(self, streamed_calls, family, n, build, streamed):
        u, v = build()
        g = EdgeListGraph.from_arrays(n, u, v)
        res = connected_components_contracting(g)
        assert streamed_calls == ([g.edge_count] if streamed else [])
        assert np.array_equal(res.labels, _union_find(n, u, v))
        if not streamed:
            assert res.levels[0].m == g.src.size

    def test_unstamped(self, streamed_calls, family, n, build, streamed):
        u, v = build()
        g = _mirror(n, u, v)
        res = connected_components_contracting(g)
        assert len(streamed_calls) == int(streamed)
        assert np.array_equal(res.labels, _union_find(n, u, v))

    def test_raw_pairs(self, family, n, build, streamed):
        u, v = build()
        keep = u != v
        res = _solve_pairs(n, u[keep], v[keep])
        assert np.array_equal(res.labels, _union_find(n, u, v))
        assert res.contracted_to_empty


class TestUnstampedInputs:
    @pytest.mark.parametrize("n, p, streamed", [
        (300, 0.01, False), (1024, 0.5, True),
    ])
    def test_from_adjacency(self, streamed_calls, n, p, streamed):
        dense = random_graph(n, p, seed=n)
        g = EdgeListGraph.from_adjacency(dense)
        res = connected_components_contracting(g)
        assert len(streamed_calls) == int(streamed)
        assert np.array_equal(res.labels, _union_find(n, g.src, g.dst))

    @pytest.mark.parametrize("n, pairs, streamed", [
        (30_000, 40_000, False), (30_000, 130_000, True),
    ])
    def test_hand_built_with_loops_and_duplicates(
        self, streamed_calls, n, pairs, streamed
    ):
        rng = np.random.default_rng(pairs)
        u, v = rng.integers(0, n, pairs), rng.integers(0, n, pairs)
        loops = rng.integers(0, n, 2_000)
        # repeats in the same and in the flipped orientation
        u = np.concatenate([u, u[:5_000], v[5_000:10_000], loops])
        v = np.concatenate([v, v[:5_000], u[5_000:10_000], loops])
        g = _mirror(n, u, v)
        res = connected_components_contracting(g)
        assert streamed_calls == (
            [int(np.count_nonzero(g.src < g.dst))] if streamed else [])
        assert np.array_equal(res.labels, _union_find(n, u, v))

    @pytest.mark.parametrize("pairs", [20_000, 180_000])
    def test_int32_endpoints(self, pairs):
        n = 30_000
        u, v = _uniform(n, pairs, 9)
        want = _union_find(n, u, v)
        u32, v32 = u.astype(np.int32), v.astype(np.int32)
        res = connected_components_contracting(_mirror(n, u32, v32))
        assert res.labels.dtype == np.int64
        assert np.array_equal(res.labels, want)
        keep = u32 != v32
        assert np.array_equal(_solve_pairs(n, u32[keep], v32[keep]).labels,
                              want)

    def test_capped_run_on_raw_pairs(self):
        u, v = _uniform(5_000, 9_000, 10)
        keep = u != v
        full = _solve_pairs(5_000, u[keep], v[keep])
        capped = _solve_pairs(5_000, u[keep], v[keep], max_levels=1)
        assert capped.iterations == 1 and not capped.contracted_to_empty
        # a partial merge never joins two true components
        assert np.array_equal(full.labels[capped.labels], full.labels)


def _is_symmetric(src, dst):
    pairs = sorted(zip(src.tolist(), dst.tolist()))
    return pairs == sorted(zip(dst.tolist(), src.tolist()))


class TestBothOrientations:
    """The ``src < dst`` path reads one orientation per edge, so the
    unstamped graphs the library builds must carry both."""

    @pytest.mark.parametrize("n, p", [(1, 0.0), (17, 0.3), (64, 1.0)])
    def test_from_adjacency(self, n, p):
        g = EdgeListGraph.from_adjacency(random_graph(n, p, seed=n))
        assert not getattr(g, "_canonical", False)
        assert _is_symmetric(g.src, g.dst)
        assert np.count_nonzero(g.src < g.dst) == g.src.size // 2

    def test_union_edges(self):
        rng = np.random.default_rng(4)
        members = [
            EdgeListGraph.from_arrays(
                50, rng.integers(0, 50, 80), rng.integers(0, 50, 80)),
            EdgeListGraph.from_adjacency(random_graph(12, 0.4, seed=1)),
            EdgeListGraph.from_edges(3, []),
            EdgeListGraph.from_arrays(
                9, rng.integers(0, 9, 20), rng.integers(0, 9, 20)),
        ]
        offsets = np.concatenate(([0], np.cumsum([g.n for g in members])))
        src, dst = union_edges(members, offsets)
        assert _is_symmetric(src, dst)
        assert np.count_nonzero(src < dst) == src.size // 2
        res = connected_components_contracting(
            EdgeListGraph(int(offsets[-1]), src, dst))
        assert np.array_equal(res.labels,
                              _union_find(int(offsets[-1]), src, dst))
