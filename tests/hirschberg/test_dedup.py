"""The sort-and-mask edge-key dedup behind every canonicalising path.

``_first_of_runs`` and ``_unpack_unique`` must reproduce ``np.unique``
on sorted int64 keys; the constructors and the contraction dedup built
on them must emit the exact canonical arrays (and fingerprints) a plain
set-of-tuples reference gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hashing import canonical_edge_pairs, graph_fingerprint
from repro.hirschberg import contracting
from repro.hirschberg.contracting import _dedup_edges
from repro.hirschberg.edgelist import (
    _PACK_LIMIT,
    EdgeListGraph,
    _compact_ids,
    _first_of_runs,
    _unpack_unique,
)

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
#: The largest packed key is below ``_PACK_LIMIT ** 2``; keys around it
#: exercise the top of the int64 range the packing relies on.
NEAR_PACK_SQUARE = st.integers(
    min_value=_PACK_LIMIT**2 - 2**20,
    max_value=min(_PACK_LIMIT**2 + 2**20, 2**63 - 1),
)


def _assert_unique_equal(values):
    key = np.sort(np.asarray(values, dtype=np.int64))
    got = key[_first_of_runs(key)]
    want = np.unique(key)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


class TestSortedUnique:
    """Sorted distinct keys by ``_first_of_runs``, as ``np.unique``."""

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
        key = np.array([1, 3, 3, 5], dtype=np.int64)
        assert _first_of_runs(key).tolist() == [True, True, False, True]
        assert key.tolist() == [1, 3, 3, 5]


class TestUnpackUnique:
    @given(st.lists(st.integers(min_value=0, max_value=29), max_size=200))
    def test_matches_divmod_of_unique(self, values):
        k = 30
        key = np.sort(np.asarray(values, dtype=np.int64))
        lo, hi = _unpack_unique(k, key.copy())
        want_lo, want_hi = np.divmod(np.unique(key), k)
        assert lo.dtype == hi.dtype == np.int64
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)

    @given(st.lists(NEAR_PACK_SQUARE, min_size=1, max_size=200))
    def test_near_pack_limit_squared(self, values):
        key = np.sort(np.asarray(values, dtype=np.int64))
        lo, hi = _unpack_unique(_PACK_LIMIT, key.copy())
        want_lo, want_hi = np.divmod(np.unique(key), _PACK_LIMIT)
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def _assert_compacts_like_unique(u, v):
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    ids, local = _compact_ids(u, v)
    want_ids, want_local = np.unique(np.concatenate([u, v]),
                                      return_inverse=True)
    assert ids.dtype == local.dtype == np.int64
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(local, want_local.reshape(-1))


class TestCompactIds:
    """``_compact_ids`` is ``np.unique(..., return_inverse=True)`` of the
    concatenated endpoints, on both sides of its packing bound."""

    def test_empty(self):
        _assert_compacts_like_unique([], [])

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                    max_size=100))
    def test_small_ids(self, pairs):
        _assert_compacts_like_unique([p[0] for p in pairs],
                                     [p[1] for p in pairs])

    @given(st.lists(st.tuples(INT64, INT64), min_size=1, max_size=60))
    def test_any_int64_ids(self, pairs):
        # ids near +-2**63 leave no room for the position bits: the
        # argsort fallback must give the same answer
        _assert_compacts_like_unique([p[0] for p in pairs],
                                     [p[1] for p in pairs])

    def test_packing_bound_is_exact(self):
        # 8 entries take 4 position bits: ids up to 2**59 - 1 pack
        for top in (2**59 - 1, 2**59, -(2**59), -(2**59) - 1):
            u = np.array([top, 0, 3, top], dtype=np.int64)
            _assert_compacts_like_unique(u, u[::-1])

    def test_narrow_input_is_not_modified(self):
        u = np.array([7, 2, 7], dtype=np.int32)
        v = np.array([2, 9, 9], dtype=np.int32)
        ids, local = _compact_ids(u, v)
        assert ids.tolist() == [2, 7, 9]
        assert local.tolist() == [1, 0, 1, 0, 2, 2]
        assert u.tolist() == [7, 2, 7] and v.tolist() == [2, 9, 9]


def _pair_set(a, b):
    return sorted({(min(x, y), max(x, y))
                   for x, y in zip(a.tolist(), b.tolist())})


class TestDedupEdgesBranches:
    def test_table_and_sort_branches_agree(self):
        """One pair set, once within the sort cap (the packed sort) and
        once padded past it with flipped duplicates (the counting
        table), gives the same sorted ``(lo, hi)`` arrays."""
        k = 300
        rng = np.random.default_rng(11)
        a = rng.integers(0, k, 5_000)
        b = (a + rng.integers(1, k, 5_000)) % k
        assert a.size <= contracting._DEDUP_SORT_M
        sort_lo, sort_hi, sort_done = _dedup_edges(k, a, b)

        copies = contracting._DEDUP_SORT_M // a.size + 1
        flip = np.arange(copies * a.size) % 2 == 1
        big_a, big_b = np.tile(a, copies), np.tile(b, copies)
        big_a, big_b = np.where(flip, big_b, big_a), np.where(flip, big_a, big_b)
        assert big_a.size > contracting._DEDUP_SORT_M
        assert k <= contracting._DEDUP_TABLE_K
        table_lo, table_hi, table_done = _dedup_edges(k, big_a, big_b)

        assert sort_done and table_done
        assert np.array_equal(table_lo, sort_lo)
        assert np.array_equal(table_hi, sort_hi)
        assert table_lo.dtype == sort_lo.dtype == np.int64
        assert list(zip(sort_lo.tolist(), sort_hi.tolist())) == _pair_set(a, b)

    def test_large_levels_past_both_branches_pass_through(self):
        k = contracting._DEDUP_TABLE_K + 1
        size = contracting._DEDUP_SORT_M + 1
        a = np.arange(size, dtype=np.int64) % k
        b = (a + 1) % k
        got_a, got_b, done = _dedup_edges(k, a, b)
        assert not done
        assert got_a is a and got_b is b

    def test_empty_level_counts_as_deduplicated(self):
        empty = np.empty(0, dtype=np.int64)
        got_a, got_b, done = _dedup_edges(5, empty, empty)
        assert done and got_a.size == got_b.size == 0


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
