"""Constructor-built edge lists store each edge once.

``EdgeListGraph``'s constructors keep only ``src = [lo, hi]``; the
mirrored ``dst = [hi, lo]`` is built on its first read.  These tests pin
that the pair-set readers never build it, that the engines which do read
``dst`` get the exact array the constructors used to store, and that the
saving shows in the traced peak of a solve.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import hashing
from repro.analysis.hashing import canonical_edge_pairs, graph_fingerprint
from repro.core.api import connected_components
from repro.graphs.generators import random_graph
from repro.graphs.io import dumps_edge_list_sparse, loads_edge_list_sparse
from repro.graphs.union_find import UnionFind
from repro.hirschberg import edgelist
from repro.hirschberg.contracting import connected_components_contracting
from repro.hirschberg.edgelist import (
    EdgeListGraph,
    connected_components_edgelist,
    random_edge_list,
)
from repro.hirschberg.parallel import connected_components_parallel
from repro.hirschberg.sharded import (
    connected_components_sharded,
    solve_shard_arrays,
)
from repro.serve.protocol import (
    REQUEST_HEADER_SIZE,
    decode_request_header,
    encode_graph_request,
    graph_from_frame,
)
from repro.serve.workers import solve_coalesced


def _oracle(graph: EdgeListGraph) -> np.ndarray:
    uf = UnionFind(graph.n)
    for u, v in zip(*(side.tolist() for side in graph.pairs())):
        uf.union(u, v)
    return np.asarray(uf.canonical_labels())


def _eager_mirror(n, u, v) -> np.ndarray:
    """The ``dst`` the constructors stored before the mirror went lazy:
    the canonical pairs' highs, then their lows."""
    lo, hi = edgelist._canonical_pairs(n, np.asarray(u), np.asarray(v))
    return np.concatenate([hi, lo])


@pytest.fixture
def no_mirror(monkeypatch):
    """Fail any read of a stamped graph's ``dst``."""
    def refuse(src):
        raise AssertionError("the mirrored dst was built")

    monkeypatch.setattr(edgelist, "_mirror", refuse)


def _graph(seed=3, n=3_000, m=12_000) -> EdgeListGraph:
    rng = np.random.default_rng(seed)
    return EdgeListGraph.from_arrays(n, rng.integers(0, n, m),
                                     rng.integers(0, n, m))


class TestMirrorNeverBuilt:
    def test_constructors_store_src_only(self):
        g = _graph()
        assert g.__dict__["_dst"] is None
        assert g.src.size == 2 * g.edge_count
        k = g.edge_count
        lo, hi = g.pairs()
        assert np.shares_memory(lo, g.src) and np.shares_memory(hi, g.src)
        assert np.array_equal(lo, g.src[:k]) and np.array_equal(hi, g.src[k:])

    def test_contracting(self, no_mirror):
        g = _graph()
        assert np.array_equal(connected_components_contracting(g).labels,
                              _oracle(g))

    def test_auto(self, no_mirror):
        g = _graph()
        result = connected_components(g, engine="auto")
        assert result.method == "contracting"
        assert np.array_equal(result.labels, _oracle(g))

    def test_solve_coalesced(self, no_mirror):
        graphs = [_graph(seed=s, n=40 + s, m=60) for s in range(5)]
        for labels, g in zip(solve_coalesced(graphs), graphs):
            assert np.array_equal(labels, _oracle(g))

    def test_fingerprint(self, no_mirror):
        g = _graph()
        assert graph_fingerprint(g) == graph_fingerprint(
            EdgeListGraph.from_arrays(g.n, g.src[g.edge_count:],
                                      g.src[:g.edge_count]))

    def test_protocol_encode_and_decode(self, no_mirror):
        g = _graph()
        frame = encode_graph_request(g)
        header = decode_request_header(frame[:REQUEST_HEADER_SIZE])
        assert header.canonical
        rebuilt = graph_from_frame(header, frame[REQUEST_HEADER_SIZE:])
        assert np.array_equal(rebuilt.src, g.src)
        assert np.array_equal(connected_components_contracting(rebuilt).labels,
                              _oracle(g))

    def test_sharded_from_a_graph(self, no_mirror):
        g = _graph()
        res = connected_components_sharded(g, shards=3, workers=0)
        assert res.edges == g.edge_count
        assert np.array_equal(res.labels, _oracle(g))

    def test_io(self, no_mirror):
        g = _graph()
        back = loads_edge_list_sparse(dumps_edge_list_sparse(g))
        assert np.array_equal(back.src, g.src)


class TestLazyMirror:
    """``edgelist`` and ``parallel`` read ``dst`` and get the array the
    constructors used to store eagerly, byte for byte."""

    @pytest.mark.parametrize("engine", ["edgelist", "parallel"])
    def test_engines_see_the_eager_mirror(self, engine):
        rng = np.random.default_rng(11)
        n, u, v = 500, rng.integers(0, 500, 1500), rng.integers(0, 500, 1500)
        g = EdgeListGraph.from_arrays(n, u, v)
        run = (connected_components_edgelist if engine == "edgelist"
               else connected_components_parallel)
        labels = run(g).labels
        built = g.__dict__["_dst"]
        assert built is not None and built.flags.c_contiguous
        assert built.dtype == np.int64
        assert built.tobytes() == _eager_mirror(n, u, v).tobytes()
        assert g.dst is built  # cached on the instance
        assert np.array_equal(labels, _oracle(g))

    def test_every_constructor_path(self):
        u, v = [0, 3, 3, 1, 2], [1, 1, 2, 0, 2]
        lo, hi = edgelist._canonical_pairs(4, np.asarray(u), np.asarray(v))
        eager = _eager_mirror(4, u, v).tobytes()
        packed = EdgeListGraph.from_arrays(4, u, v)
        trusted = EdgeListGraph.from_arrays(4, lo, hi, assume_canonical=True)
        listed = EdgeListGraph.from_edges(4, zip(u, v))
        # past the packing limit the constructors lexsort instead
        wide = EdgeListGraph.from_arrays(edgelist._PACK_LIMIT + 1, u, v)
        for g in (packed, trusted, listed, wide):
            assert g.dst.tobytes() == eager
        assert EdgeListGraph.from_edges(3, []).dst.size == 0

    def test_direct_construction_keeps_its_arrays(self):
        src = np.array([0, 1, 1, 2], dtype=np.int64)
        dst = np.array([1, 0, 2, 1], dtype=np.int64)
        g = EdgeListGraph(3, src, dst)
        assert g.src is src and g.dst is dst
        assert not getattr(g, "_canonical", False)
        lo, hi = g.pairs()
        assert lo.tolist() == [0, 1] and hi.tolist() == [1, 2]

    def test_concurrent_first_reads_agree(self):
        g = _graph()
        eager = np.concatenate([g.src[g.edge_count:], g.src[:g.edge_count]])
        seen = []
        start = threading.Barrier(8)

        def read():
            start.wait(10)
            seen.append(g.dst.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [eager.tobytes()] * 8
        assert g.dst.tobytes() == eager.tobytes()

    def test_frozen(self):
        g = _graph()
        with pytest.raises(AttributeError):
            g.n = 5
        with pytest.raises(AttributeError):
            g.dst = g.src


class TestEncodeUnstamped:
    def test_dense_converted_graph_roundtrips(self):
        # a graph built directly from a matrix's nonzeros keeps both
        # orientations in row-major order, so its first half is not its
        # pair set: the frame carries pairs() and is not stamped
        # canonical; from_adjacency stamps the same graph, and its frame
        # is stamped
        dense = random_graph(30, 0.2, seed=4)
        rows, cols = np.nonzero(dense.matrix)
        direct = EdgeListGraph(30, rows.astype(np.int64), cols.astype(np.int64))
        for g, canonical in ((direct, False),
                             (EdgeListGraph.from_adjacency(dense), True)):
            frame = encode_graph_request(g)
            header = decode_request_header(frame[:REQUEST_HEADER_SIZE])
            assert header.canonical is canonical
            rebuilt = graph_from_frame(header, frame[REQUEST_HEADER_SIZE:])
            assert rebuilt.edge_count == g.edge_count == dense.edge_count
            assert graph_fingerprint(rebuilt) == graph_fingerprint(g)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    ids = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=60))
    return n, pairs


class TestCanonicalEdgePairs:
    @settings(max_examples=80, deadline=None)
    @given(edge_lists())
    def test_stamped_halves_equal_the_full_path(self, case):
        n, pairs = case
        g = EdgeListGraph.from_edges(n, pairs)
        got_n, lo, hi = canonical_edge_pairs(g)
        want_lo, want_hi = edgelist._canonical_pairs(n, g.src, g.dst)
        assert got_n == n
        assert lo.tobytes() == want_lo.tobytes()
        assert hi.tobytes() == want_hi.tobytes()

    def test_stamped_input_is_not_resorted(self, monkeypatch):
        g = _graph()

        def refuse(*args):
            raise AssertionError("stamped pairs were re-sorted")

        monkeypatch.setattr(hashing, "_canonical_pairs", refuse)
        n, lo, hi = canonical_edge_pairs(g)
        assert n == g.n and lo.size == g.edge_count
        assert np.all(lo < hi)


class _ReverseOrderPool:
    """A stand-in shard pool whose solves finish in reverse shard order:
    each waits until the solve that started after it has finished."""

    def __init__(self, shards: int):
        self.workers = shards
        self._started = 0
        self._lock = threading.Lock()
        self._done = [threading.Event() for _ in range(shards + 1)]
        self._done[shards].set()

    def solve_shard(self, n, u, v):
        with self._lock:
            rank = self._started
            self._started += 1
        assert self._done[rank + 1].wait(10), "pool stalled"
        out = solve_shard_arrays(n, u, v)
        self._done[rank].set()
        return out


class TestFrontierInShardOrder:
    def test_reverse_finishing_pool_merges_like_inline(self, tmp_path):
        g = random_edge_list(4_000, 12_000, seed=9)
        shards = 5
        inline = connected_components_sharded(
            g, shards=shards, workers=0, workdir=tmp_path / "inline",
            keep_workdir=True)
        pooled = connected_components_sharded(
            g, shards=shards, workers=shards, pool=_ReverseOrderPool(shards),
            workdir=tmp_path / "pooled", keep_workdir=True)
        assert np.array_equal(pooled.labels, inline.labels)
        assert pooled.frontier_pairs == inline.frontier_pairs
        assert pooled.merge_passes == inline.merge_passes
        assert pooled.shard_stats == inline.shard_stats
        assert ((tmp_path / "pooled" / "frontier.pairs").read_bytes()
                == (tmp_path / "inline" / "frontier.pairs").read_bytes())


class TestTracedPeak:
    def test_from_arrays_and_auto_peak_above_the_input(self):
        n, m = 200_000, 1_000_000
        rng = np.random.default_rng(5)
        u, v = rng.integers(0, n, m), rng.integers(0, n, m)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            g = EdgeListGraph.from_arrays(n, u, v)
            labels = connected_components(g, engine="auto").labels
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert labels.size == n and g.__dict__["_dst"] is None
        assert peak < PEAK_BOUND_BYTES, f"peak {peak / 2**20:.1f} MiB"


#: Bound on the traced peak above the 16 MB input.  Measured 28.3 MiB
#: (NumPy 2.4, x86_64): the 15.3 MiB graph plus the contracting solve.
#: With the mirror stored eagerly the same solve peaked at 43.6 MiB.
PEAK_BOUND_BYTES = 36 << 20
