"""Hashing: memory-mapping congestion (Sec. 1) and graph fingerprints.

Two unrelated-looking users share this module because both reduce to
"hash the structure, not the representation":

* the paper's *memory-mapping* discussion (below), where a hash assigns
  cells to memory modules;
* the serve layer's *content-addressed result cache*
  (:mod:`repro.serve.cache`), which keys solved label vectors by
  :func:`graph_fingerprint` -- a digest of the canonical edge set, so a
  dense adjacency and an edge list describing the same graph (in any
  edge order, any orientation, with duplicates) address the same cache
  entry, while any actual structural difference (including a vertex
  permutation) changes the key.

Memory-mapping congestion: deterministic vs universal hashing (Sec. 1).

The introduction discusses how PRAM shared memory is mapped onto GCA cells
or memory modules: "Unfortunate mappings can be prevented either by
choosing an appropriate mapping in case where the neighbour relations are
known beforehand, or by applying universal hashing.  Universal hashing
presents two difficulties.  First, the owner relationship may get lost,
second the congestion can only get down to a value of O(log p) for hash
function classes that can be easily implemented."

This module makes that discussion measurable.  A *mapping* assigns each
cell (memory location) to one of ``p`` modules; a generation's **module
congestion** is the maximum number of reads any one module serves.  We
provide:

* :func:`aware_mapping` -- the algorithm-aware diagonal layout (module
  ``(row + col) mod p``), balanced for this algorithm's hot groups;
* :func:`direct_mapping` -- naive round-robin ``x mod p`` (collapses the
  hot first column whenever ``p`` divides ``n``);
* :func:`adversarial_mapping` -- the "unfortunate" blocked layout, under
  which the broadcast generations hammer one module;
* :class:`UniversalHash` -- the classic multiply-shift family
  ``h(x) = ((a x + b) mod P) mod p``, sampled per run;
* :func:`mapping_congestion` -- evaluates any mapping against a recorded
  :class:`~repro.gca.instrumentation.AccessLog`.

The bench shows the paper's claims quantitatively: the aware mapping wins,
the adversarial mapping degrades to Theta(reads/1) on broadcasts, and the
hashed mapping lands near the balanced optimum with overwhelming
probability (with the O(log p)-ish tail the paper mentions).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.gca.instrumentation import AccessLog
from repro.graphs.adjacency import AdjacencyMatrix
from repro.hirschberg.edgelist import (
    EdgeListGraph,
    _PACK_LIMIT,
    _canonical_pairs,
)
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive

Mapping = Callable[[int], int]

GraphInput = Union[AdjacencyMatrix, np.ndarray, EdgeListGraph]

#: Digest size (bytes) of :func:`graph_fingerprint` -- 128 bits, far
#: below any collision concern at cache scale.
_FINGERPRINT_BYTES = 16

#: splitmix64 finalizer constants (vectorised PRF-ish mixer).
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _splitmix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer applied element-wise (wrapping uint64)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> _S30
    x *= _MIX_A
    x ^= x >> _S27
    x *= _MIX_B
    x ^= x >> _S31
    return x


def _edge_set_sums(key: np.ndarray) -> Tuple[int, int]:
    """Two order-invariant 64-bit reductions of a duplicate-free
    edge-key set: the wrapping sum and the xor of the per-key splitmix64
    hashes (AdHash-style multiset hashing).  Both reductions commute, so
    no sort is needed -- the O(m log m) canonicalising sort-and-dedup of
    :func:`~repro.hirschberg.edgelist._canonical_pairs` is skipped on
    every path that can prove its keys are already duplicate-free.  One
    mixing pass feeds both lanes; a set difference must escape a 128-bit
    constraint to collide, ample for a result cache that also offers
    verify-on-first-hit for the paranoid."""
    x = np.ascontiguousarray(key)
    if x.dtype != np.uint64:
        try:
            x = x.view(np.uint64)  # reinterpret int64 bits, no copy
        except (TypeError, ValueError):
            # exotic layouts where a zero-copy reinterpret is refused
            # (e.g. some memmap slices); one copy, same bits
            x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        mixed = _splitmix(x)
        total = int(mixed.sum(dtype=np.uint64))
        folded = (int(np.bitwise_xor.reduce(mixed)) if mixed.size else 0)
        return total, folded


def _constructor_canonical_keys(graph: "EdgeListGraph") -> "np.ndarray | None":
    """Packed ``u * n + v`` keys when ``graph`` is in the form the
    :class:`EdgeListGraph` constructors produce -- first half the sorted
    duplicate-free ``u < v`` pairs, second half their exact mirror -- or
    ``None`` to fall back to full canonicalisation.

    Constructor-built graphs carry a ``_canonical`` stamp and are
    trusted outright (the stamp travels only through the constructors).
    Unstamped graphs are verified with a handful of O(m) vector
    comparisons, cheaper than re-deriving the canonical set with an
    O(m log m) sort-and-dedup.
    """
    m = graph.src.size
    if m & 1 or graph.n > _PACK_LIMIT:
        return None
    half = m >> 1
    u, v = graph.src[:half], graph.dst[:half]
    if not graph.__dict__.get("_canonical", False):
        if not bool(np.all(u < v)):
            return None
        if not (np.array_equal(graph.src[half:], v)
                and np.array_equal(graph.dst[half:], u)):
            return None
        key = u * np.int64(graph.n) + v
        if half > 1 and not bool(np.all(key[1:] > key[:-1])):
            return None  # not duplicate-free; the canonicalising sort dedups
        return key
    return u * np.int64(graph.n) + v


def canonical_edge_pairs(graph: GraphInput) -> Tuple[int, np.ndarray, np.ndarray]:
    """``(n, lo, hi)`` -- the canonical undirected edge set of ``graph``.

    The pairs are duplicate-free, self-loop-free, ``lo < hi`` and sorted
    lexicographically, regardless of the input representation: a dense
    0/1 adjacency (symmetrised on read), an
    :class:`~repro.graphs.adjacency.AdjacencyMatrix`, or an
    :class:`~repro.hirschberg.edgelist.EdgeListGraph` in any edge order
    and orientation.  Two inputs describe the same labelled graph iff
    their canonical triples are equal -- the ground truth the
    fingerprint digests.
    """
    if isinstance(graph, EdgeListGraph):
        lo, hi = _canonical_pairs(graph.n, graph.src, graph.dst)
        return graph.n, lo, hi
    mat = graph.matrix if isinstance(graph, AdjacencyMatrix) else np.asarray(graph)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {mat.shape}")
    nz = mat != 0
    present = nz | nz.T
    rows, cols = np.nonzero(present)
    keep = rows < cols
    # nonzero() walks row-major, so (rows, cols) under rows < cols is
    # already the sorted, duplicate-free canonical order
    return mat.shape[0], rows[keep].astype(np.int64), cols[keep].astype(np.int64)


def graph_fingerprint(graph: GraphInput) -> str:
    """Content address of ``graph``: a hex digest of its canonical form.

    Properties (asserted by the property tests in
    ``tests/serve/test_cache.py``):

    * **representation-independent** -- dense and sparse forms of the
      same labelled graph, and edge lists differing only in edge order,
      orientation or duplication, collide by construction;
    * **structure-sensitive** -- any differing canonical edge set (e.g.
      a vertex permutation that is not an automorphism) yields a
      different digest, so cached labels can never be served for a
      structurally different graph;
    * equal fingerprints therefore imply equal canonical component
      labels, the soundness condition of the serve result cache.

    The digest is blake2b over ``(n, edge count, two order-invariant
    multiset sums of the per-edge splitmix64 hashes)`` -- summation
    commutes, so the canonical edge *set* can be digested without
    sorting it.  Edge lists in the form the constructors emit are
    verified duplicate-free with O(m) comparisons and skip
    canonicalisation entirely; only inputs with duplicated or unordered
    edges pay the sort-and-dedup fallback.

    Fingerprints of :class:`EdgeListGraph` inputs are memoised on the
    instance: the dataclass is frozen, and the serve layer treats
    submitted graphs as immutable.  Mutating a graph's arrays in place
    after submitting it voids that contract (as it voids every other
    cached property of the serve path).
    """
    if isinstance(graph, EdgeListGraph):
        cached = graph.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        key = _constructor_canonical_keys(graph)
        if key is None:
            n, lo, hi = canonical_edge_pairs(graph)
            key = _pack_pairs(n, lo, hi)
        else:
            n = graph.n
    else:
        n, lo, hi = canonical_edge_pairs(graph)
        key = _pack_pairs(n, lo, hi)
    sum_a, sum_b = _edge_set_sums(key)
    digest = hashlib.blake2b(digest_size=_FINGERPRINT_BYTES)
    digest.update(int(n).to_bytes(8, "little"))
    digest.update(int(key.size).to_bytes(8, "little"))
    digest.update(sum_a.to_bytes(8, "little"))
    digest.update(sum_b.to_bytes(8, "little"))
    fingerprint = digest.hexdigest()
    if isinstance(graph, EdgeListGraph):
        object.__setattr__(graph, "_fingerprint", fingerprint)
    return fingerprint


def _pack_pairs(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One int64 key per canonical pair (``lo * n + hi`` when it fits,
    a mixed combination beyond the packing limit)."""
    if n <= _PACK_LIMIT:
        return lo * np.int64(n) + hi
    with np.errstate(over="ignore"):
        return _splitmix(lo.astype(np.uint64)) ^ hi.astype(np.uint64)

_MERSENNE = (1 << 61) - 1  # a Mersenne prime, the classic modulus choice


def direct_mapping(modules: int) -> Mapping:
    """Naive round-robin layout: location ``x`` lives on module ``x mod p``.

    Simple but oblivious to the field geometry: when ``p`` divides ``n``
    the hot first column (cells ``i * n``) collapses onto module 0.
    """
    check_positive("modules", modules)
    return lambda x: x % modules


def aware_mapping(n: int, modules: int) -> Mapping:
    """The algorithm-aware layout ("choosing an appropriate mapping in
    case where the neighbour relations are known beforehand"): module
    ``(row + col) mod p``.  The diagonal skew spreads both hot groups of
    this algorithm -- the first column (read by the broadcasts) and the
    bottom row (read by the masking generations) -- across all modules
    for every ``p``.
    """
    check_positive("n", n)
    check_positive("modules", modules)
    return lambda x: ((x // n) + (x % n)) % modules


def adversarial_mapping(size: int, modules: int) -> Mapping:
    """Blocked layout: the first ``ceil(size/p)`` locations share module 0,
    and so on.  For the GCA algorithm this is "unfortunate": the whole
    first column (the C vector, the hottest data) lands on one module."""
    check_positive("size", size)
    check_positive("modules", modules)
    block = -(-size // modules)
    return lambda x: min(x // block, modules - 1)


@dataclass(frozen=True)
class UniversalHash:
    """One member of the universal family ``((a x + b) mod P) mod p``."""

    a: int
    b: int
    modules: int

    def __call__(self, x: int) -> int:
        return ((self.a * x + self.b) % _MERSENNE) % self.modules

    @staticmethod
    def sample(modules: int, seed: SeedLike = None) -> "UniversalHash":
        """Draw a random member of the family."""
        check_positive("modules", modules)
        rng = as_generator(seed)
        return UniversalHash(
            a=int(rng.integers(1, _MERSENNE)),
            b=int(rng.integers(0, _MERSENNE)),
            modules=modules,
        )


@dataclass
class CongestionProfile:
    """Module congestion of one mapping over a recorded run."""

    mapping_name: str
    modules: int
    per_generation_max: List[int]

    @property
    def peak(self) -> int:
        """Worst per-generation module congestion of the run."""
        return max(self.per_generation_max, default=0)

    @property
    def total_serialised_cycles(self) -> int:
        """Run duration if every generation costs its module congestion
        (each module serves one read per cycle)."""
        return sum(max(1, m) for m in self.per_generation_max)


def mapping_congestion(
    log: AccessLog, mapping: Mapping, modules: int, name: str
) -> CongestionProfile:
    """Evaluate ``mapping`` against the read streams of ``log``."""
    check_positive("modules", modules)
    per_generation = []
    for stats in log.generations:
        loads: Dict[int, int] = {}
        for cell, reads in stats.reads_per_cell.items():
            module = mapping(cell)
            if not 0 <= module < modules:
                raise ValueError(
                    f"mapping {name!r} sent cell {cell} to module {module}, "
                    f"outside [0, {modules})"
                )
            loads[module] = loads.get(module, 0) + reads
        per_generation.append(max(loads.values(), default=0))
    return CongestionProfile(
        mapping_name=name, modules=modules, per_generation_max=per_generation
    )


def compare_mappings(
    log: AccessLog,
    n: int,
    modules: int,
    hash_samples: int = 5,
    seed: SeedLike = 0,
) -> List[CongestionProfile]:
    """Profile the four mapping strategies on one recorded run.

    The hashed profile reports the *median-peak* sample of
    ``hash_samples`` independent draws (universal hashing is a
    distribution, not a single function).
    """
    size = n * (n + 1)
    profiles = [
        mapping_congestion(log, aware_mapping(n, modules), modules, "aware"),
        mapping_congestion(log, direct_mapping(modules), modules, "direct"),
        mapping_congestion(
            log, adversarial_mapping(size, modules), modules, "adversarial"
        ),
    ]
    rng = as_generator(seed)
    hashed = [
        mapping_congestion(
            log, UniversalHash.sample(modules, rng), modules, f"hash{k}"
        )
        for k in range(max(1, hash_samples))
    ]
    hashed.sort(key=lambda prof: prof.peak)
    median = hashed[len(hashed) // 2]
    profiles.append(
        CongestionProfile(
            mapping_name="universal-hash (median of samples)",
            modules=modules,
            per_generation_max=median.per_generation_max,
        )
    )
    return profiles
