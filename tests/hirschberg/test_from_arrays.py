"""``EdgeListGraph.from_arrays`` and the raw-pair canonicalisation kernel.

The kernel packs, sorts and deduplicates in one reused buffer; these
tests pin that its output is byte-identical to an ``np.unique``
reference on the raw arrays (every input dtype, both the packed and the
lexsort path), that the range errors keep their text, and that the
peak allocation stays at the output plus a fraction of a word per pair.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hashing import canonical_edge_pairs
from repro.hirschberg.edgelist import (
    _PACK_LIMIT,
    EdgeListGraph,
    random_edge_list,
)

DTYPES = (np.int32, np.uint32, np.int64)


def _unique_reference(u, v):
    """Canonical ``(lo, hi)`` by ``np.unique`` over the raw pair rows."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    rows = np.unique(np.stack([lo[keep], hi[keep]], axis=1).reshape(-1, 2),
                     axis=0)
    return (np.ascontiguousarray(rows[:, 0]),
            np.ascontiguousarray(rows[:, 1]))


def _assert_byte_identical(n, u, v):
    g = EdgeListGraph.from_arrays(n, u, v)
    lo, hi = _unique_reference(u, v)
    want_src, want_dst = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    assert g.n == n
    for got, want in ((g.src, want_src), (g.dst, want_dst)):
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    assert g.__dict__.get("_canonical") is True
    graph_n, got_lo, got_hi = canonical_edge_pairs(
        EdgeListGraph(n=n, src=np.asarray(u, dtype=np.int64),
                      dst=np.asarray(v, dtype=np.int64)))
    assert graph_n == n
    assert got_lo.tobytes() == lo.tobytes()
    assert got_hi.tobytes() == hi.tobytes()


@st.composite
def raw_pairs(draw, min_n=1, max_n=40):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    ids = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=80))
    # both orientations of some drawn pairs, and explicit self-loops
    flipped = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    loops = draw(st.lists(ids, max_size=5))
    pairs = pairs + [(b, a) for a, b in flipped] + [(a, a) for a in loops]
    order = draw(st.permutations(range(len(pairs))))
    pairs = [pairs[i] for i in order]
    dtype = draw(st.sampled_from(DTYPES))
    u = np.asarray([p[0] for p in pairs], dtype=dtype)
    v = np.asarray([p[1] for p in pairs], dtype=dtype)
    return n, u, v


class TestByteIdentity:
    @settings(max_examples=150, deadline=None)
    @given(raw_pairs())
    def test_packed_path_matches_unique_reference(self, case):
        _assert_byte_identical(*case)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_empty_input(self, dtype):
        _assert_byte_identical(5, np.empty(0, dtype), np.empty(0, dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_single_node(self, dtype):
        _assert_byte_identical(1, np.zeros(3, dtype), np.zeros(3, dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_only_self_loops(self, dtype):
        ids = np.array([4, 0, 2, 4], dtype=dtype)
        g = EdgeListGraph.from_arrays(5, ids, ids)
        assert g.edge_count == 0
        _assert_byte_identical(5, ids, ids)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_ids_at_n_minus_one(self, dtype):
        n = 1_000
        u = np.array([n - 1, 0, n - 2, n - 1, n - 1], dtype=dtype)
        v = np.array([n - 2, n - 1, n - 1, 0, n - 1], dtype=dtype)
        _assert_byte_identical(n, u, v)

    def test_lexsort_path_at_the_top_ids(self):
        n = _PACK_LIMIT + 1_000
        u = np.array([n - 1, 0, n - 1, 7, n - 2], dtype=np.int64)
        v = np.array([0, n - 1, n - 1, n - 2, 7], dtype=np.int64)
        _assert_byte_identical(n, u, v)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_lexsort_path_past_the_pack_limit(self, data):
        n = _PACK_LIMIT + 1_000
        ids = st.one_of(st.integers(min_value=0, max_value=20),
                        st.integers(min_value=n - 20, max_value=n - 1))
        pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=12))
        # uint32 holds every id below 2**32 > n, so it reaches this path
        dtype = data.draw(st.sampled_from((np.uint32, np.int64)))
        u = np.asarray([p[0] for p in pairs], dtype=dtype)
        v = np.asarray([p[1] for p in pairs], dtype=dtype)
        _assert_byte_identical(n, u, v)

    def test_input_arrays_are_not_modified(self):
        u = np.array([3, 1, 1, 2], dtype=np.int64)
        v = np.array([1, 3, 1, 0], dtype=np.int64)
        EdgeListGraph.from_arrays(4, u, v)
        assert u.tolist() == [3, 1, 1, 2] and v.tolist() == [1, 3, 1, 0]

    @pytest.mark.parametrize("n,m,seed", [(2, 5, 0), (50, 200, 1),
                                          (10_000, 30_000, 2)])
    def test_random_edge_list_matches_reference(self, n, m, seed):
        g = random_edge_list(n, m, seed=seed)
        rng = np.random.default_rng(seed)
        u = rng.integers(0, n, size=2 * m)
        v = rng.integers(0, n, size=2 * m)
        lo, hi = _unique_reference(u, v)
        lo, hi = lo[:m], hi[:m]
        assert g.src.tobytes() == np.concatenate([lo, hi]).tobytes()
        assert g.dst.tobytes() == np.concatenate([hi, lo]).tobytes()


class TestRangeErrors:
    @pytest.mark.parametrize("dtype", (np.int32, np.int64))
    def test_negative_id(self, dtype):
        u = np.array([0, -3, 2], dtype=dtype)
        v = np.array([1, 2, 4], dtype=dtype)
        with pytest.raises(IndexError) as err:
            EdgeListGraph.from_arrays(5, u, v)
        assert str(err.value) == (
            "edge endpoint out of range for n=5: saw values in [-3, 4]")

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_id_at_or_past_n(self, dtype):
        u = np.array([0, 1, 5], dtype=dtype)
        v = np.array([2, 1, 0], dtype=dtype)
        with pytest.raises(IndexError) as err:
            EdgeListGraph.from_arrays(5, u, v)
        assert str(err.value) == (
            "edge endpoint out of range for n=5: saw values in [0, 5]")

    def test_assume_canonical_keeps_the_same_message(self):
        with pytest.raises(IndexError) as err:
            EdgeListGraph.from_arrays(3, np.array([0]), np.array([3]),
                                      assume_canonical=True)
        assert str(err.value) == (
            "edge endpoint out of range for n=3: saw values in [0, 3]")


def test_peak_allocation_stays_near_the_output():
    """The kernel packs, sorts and unpacks in place: above its input it
    may hold the output ``src``/``dst`` plus at most 1.25 int64 words
    per raw pair (the earlier filter-copy-concatenate pipeline held
    about 4 words per pair on top of the output)."""
    n, m = 100_000, 500_000
    rng = np.random.default_rng(0)
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = EdgeListGraph.from_arrays(n, u, v)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    output = g.src.nbytes + g.dst.nbytes
    assert peak <= output + 1.25 * 8 * m, (
        f"peak {(peak - output) / (8 * m):+.2f} words per pair above the output")
