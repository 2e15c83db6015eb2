"""The sort-and-mask edge-key dedup behind every canonicalising path.

``_sorted_unique`` must equal ``np.unique`` on int64 keys; the
constructors and the contraction dedup built on it must emit the exact
canonical arrays (and fingerprints) a plain set-of-tuples reference
gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hashing import canonical_edge_pairs, graph_fingerprint
from repro.hirschberg import contracting
from repro.hirschberg.contracting import _dedup_edges
from repro.hirschberg.edgelist import _PACK_LIMIT, EdgeListGraph, _sorted_unique

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
#: The largest packed key is below ``_PACK_LIMIT ** 2``; keys around it
#: exercise the top of the int64 range the packing relies on.
NEAR_PACK_SQUARE = st.integers(
    min_value=_PACK_LIMIT**2 - 2**20,
    max_value=min(_PACK_LIMIT**2 + 2**20, 2**63 - 1),
)


def _assert_unique_equal(values):
    key = np.asarray(values, dtype=np.int64)
    got = _sorted_unique(key)
    want = np.unique(key)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


class TestSortedUnique:
    def test_empty(self):
        _assert_unique_equal([])

    @given(INT64)
    def test_single_key(self, x):
        _assert_unique_equal([x])

    @given(INT64, st.integers(min_value=2, max_value=50))
    def test_all_equal(self, x, count):
        _assert_unique_equal([x] * count)

    @given(st.lists(INT64, max_size=200))
    def test_arbitrary(self, values):
        _assert_unique_equal(values)

    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=200))
    def test_sorted_and_reverse_sorted(self, values):
        _assert_unique_equal(sorted(values))
        _assert_unique_equal(sorted(values, reverse=True))

    @given(st.lists(NEAR_PACK_SQUARE, min_size=1, max_size=200))
    def test_near_pack_limit_squared(self, values):
        _assert_unique_equal(values)

    def test_does_not_modify_input(self):
        key = np.array([5, 1, 5, 3], dtype=np.int64)
        _sorted_unique(key)
        assert key.tolist() == [5, 1, 5, 3]


class TestDedupEdgesBranches:
    def test_table_and_sort_branches_agree(self, monkeypatch):
        """One input through the counting-table branch and the packed
        sort branch gives the same CSR-ordered ``(src, dst)``."""
        k = 300
        rng = np.random.default_rng(11)
        src = rng.integers(0, k, 5_000)
        dst = rng.integers(0, k, 5_000)
        assert k <= contracting._DEDUP_TABLE_K
        assert src.size <= contracting._DEDUP_SORT_M
        table_src, table_dst, table_done = _dedup_edges(k, src, dst)
        monkeypatch.setattr(contracting, "_DEDUP_TABLE_K", 0)
        sort_src, sort_dst, sort_done = _dedup_edges(k, src, dst)
        assert table_done and sort_done
        assert np.array_equal(table_src, sort_src)
        assert np.array_equal(table_dst, sort_dst)
        assert table_src.dtype == sort_src.dtype == np.int64
        pairs = sorted(set(zip(src.tolist(), dst.tolist())))
        assert list(zip(sort_src.tolist(), sort_dst.tolist())) == pairs


def _reference(n, u, v):
    """Canonical arrays from a set of ``(min, max)`` tuples."""
    pairs = sorted({(min(a, b), max(a, b))
                    for a, b in zip(u.tolist(), v.tolist()) if a != b})
    lo = np.asarray([p[0] for p in pairs], dtype=np.int64)
    hi = np.asarray([p[1] for p in pairs], dtype=np.int64)
    return lo, hi


class TestFromArraysReference:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n,m", [(2, 6), (17, 80), (500, 3_000)])
    def test_matches_set_of_tuples(self, dtype, n, m):
        rng = np.random.default_rng(n * m)
        u0 = rng.integers(0, n, m).astype(dtype)
        v0 = rng.integers(0, n, m).astype(dtype)
        # force self-loops and both-orientation duplicates into the input
        loops = np.arange(n, dtype=dtype)
        u = np.concatenate([u0, loops, v0[:10]])
        v = np.concatenate([v0, loops, u0[:10]])
        lo, hi = _reference(n, u, v)

        g = EdgeListGraph.from_arrays(n, u, v)
        assert g.src.dtype == g.dst.dtype == np.int64
        assert np.array_equal(g.src, np.concatenate([lo, hi]))
        assert np.array_equal(g.dst, np.concatenate([hi, lo]))

        _, got_lo, got_hi = canonical_edge_pairs(g)
        assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)

        # the reference graph, unstamped (fingerprint verifies its form),
        # and its dense adjacency digest to the same address
        ref = EdgeListGraph(n=n, src=np.concatenate([lo, hi]),
                            dst=np.concatenate([hi, lo]))
        dense = np.zeros((n, n), dtype=np.int8)
        dense[lo, hi] = 1
        assert graph_fingerprint(g) == graph_fingerprint(ref)
        assert graph_fingerprint(g) == graph_fingerprint(dense)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.data())
    def test_hypothesis_matches_set_of_tuples(self, n, data):
        ends = st.lists(st.integers(min_value=0, max_value=n - 1),
                        max_size=60)
        u = np.asarray(data.draw(ends), dtype=np.int64)
        v = np.asarray(data.draw(st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=u.size, max_size=u.size)), dtype=np.int64)
        lo, hi = _reference(n, u, v)
        g = EdgeListGraph.from_arrays(n, u, v)
        assert np.array_equal(g.src, np.concatenate([lo, hi]))
        assert np.array_equal(g.dst, np.concatenate([hi, lo]))
