"""E22 (harness) -- sparse-engine scaling: edgelist vs contracting to 5M edges.

Times the two sparse engines on a ladder of random edge lists up to one
million vertices / five million edges, plus the buffered edge-list I/O
fast path against the strict line parser:

* ``edgelist``    -- :func:`repro.hirschberg.edgelist
  .connected_components_edgelist`: every outer iteration scatters over
  the full edge array;
* ``contracting`` -- :func:`repro.hirschberg.contracting
  .connected_components_contracting`: supervertices are relabelled after
  every outer iteration and settled edges dropped, so iteration ``t``
  touches only the surviving ``(n_t, m_t)``.

Labels are verified by cross-engine agreement on every rung and against
the union-find oracle on rungs small enough for the Python-loop oracle.
The numbers are written as machine-readable JSON (``BENCH_sparse.json``
at the repo root when run as a script); the committed copy doubles as
CI's performance baseline via ``--check`` (fail when any overlapping
(engine, n, m) point's throughput drops more than 3x below it).

Run standalone (CI runs the smoke variant)::

    python benchmarks/bench_sparse_scaling.py            # full ladder
    python benchmarks/bench_sparse_scaling.py --smoke
    python benchmarks/bench_sparse_scaling.py --smoke --check BENCH_sparse.json

or via pytest (report + timed benchmark)::

    pytest benchmarks/bench_sparse_scaling.py --benchmark-disable
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.graphs.io import dumps_edge_list_sparse, loads_edge_list_sparse
from repro.graphs.union_find import UnionFind
from repro.hirschberg.contracting import connected_components_contracting
from repro.hirschberg.edgelist import (
    connected_components_edgelist,
    random_edge_list,
)

#: Engines reported, in report order.
ENGINES = ("edgelist", "contracting")

#: The full ladder of (n, requested m) rungs.  The first rung is shared
#: with ``--smoke`` so the committed full report contains the baseline
#: point CI's smoke ``--check`` compares against.
FULL_POINTS: Tuple[Tuple[int, int], ...] = (
    (20_000, 60_000),
    (100_000, 300_000),
    (300_000, 1_000_000),
    (1_000_000, 5_000_000),
)
SMOKE_POINTS: Tuple[Tuple[int, int], ...] = ((20_000, 60_000),)

#: Largest n still verified against the union-find oracle (a Python loop).
ORACLE_MAX_N = 50_000

#: ``--check`` fails when throughput drops below baseline/3.
CHECK_FACTOR = 3.0

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_sparse.json"

_SOLVERS = {
    "edgelist": lambda g: connected_components_edgelist(g).labels,
    "contracting": lambda g: connected_components_contracting(g).labels,
}


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_point(n: int, m: int, seed: int = 0, repeats: int = 2) -> List[dict]:
    """Time both engines on one rung; verify labels before timing."""
    graph = random_edge_list(n, m, seed=seed)
    labels = {name: _SOLVERS[name](graph) for name in ENGINES}
    baseline = labels[ENGINES[0]]
    for name in ENGINES[1:]:
        assert np.array_equal(labels[name], baseline), (
            f"{name} diverged from {ENGINES[0]} at n={n}, m={m}"
        )
    if n <= ORACLE_MAX_N:
        uf = UnionFind(graph.n)
        us, vs = graph.pairs()
        for u, v in zip(us.tolist(), vs.tolist()):
            uf.union(u, v)
        assert np.array_equal(baseline, uf.canonical_labels()), (
            f"engines diverged from the union-find oracle at n={n}"
        )
    results = []
    for name in ENGINES:
        seconds = _time_best(lambda: _SOLVERS[name](graph), repeats)
        results.append({
            "engine": name,
            "n": n,
            "m": graph.edge_count,
            "seconds": seconds,
            "edges_per_sec": graph.edge_count / seconds,
        })
    return results


def run_io_bench(n: int, m: int, seed: int = 0, repeats: int = 2) -> dict:
    """Buffered ``np.fromstring`` loader vs the strict line parser.

    A leading comment line forces :func:`loads_edge_list_sparse` onto its
    strict path, so both timings parse the identical document through the
    public API.
    """
    graph = random_edge_list(n, m, seed=seed)
    text = dumps_edge_list_sparse(graph)
    strict_text = "# strict-path marker\n" + text
    fast = loads_edge_list_sparse(text)
    strict = loads_edge_list_sparse(strict_text)
    assert fast.n == strict.n and np.array_equal(fast.src, strict.src)
    fast_s = _time_best(lambda: loads_edge_list_sparse(text), repeats)
    strict_s = _time_best(lambda: loads_edge_list_sparse(strict_text), repeats)
    return {
        "n": n,
        "m": graph.edge_count,
        "fast_seconds": fast_s,
        "strict_seconds": strict_s,
        "speedup": strict_s / fast_s,
    }


def build_report(points: Sequence[Tuple[int, int]], repeats: int = 2,
                 seed: int = 0) -> dict:
    """The full machine-readable benchmark document."""
    results = []
    for n, m in points:
        results.extend(run_point(n, m, seed=seed, repeats=repeats))
    largest = max(points, key=lambda nm: nm[1])
    rate = {
        (r["engine"], r["n"]): r["edges_per_sec"] for r in results
    }
    return {
        "benchmark": "sparse_scaling",
        "config": {
            "points": [list(p) for p in points],
            "repeats": repeats,
            "seed": seed,
        },
        "results": results,
        "io": run_io_bench(*min(points, key=lambda nm: nm[1]),
                           seed=seed, repeats=repeats),
        "speedups": {
            "contracting_vs_edgelist_at_largest": (
                rate[("contracting", largest[0])]
                / rate[("edgelist", largest[0])]
            ),
        },
    }


def validate_report(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed report."""
    for key in ("benchmark", "config", "results", "io", "speedups"):
        if key not in doc:
            raise ValueError(f"report missing key {key!r}")
    if doc["benchmark"] != "sparse_scaling":
        raise ValueError(f"unexpected benchmark id {doc['benchmark']!r}")
    expected = len(doc["config"]["points"]) * len(ENGINES)
    if len(doc["results"]) != expected:
        raise ValueError(
            f"expected {expected} results, got {len(doc['results'])}"
        )
    for r in doc["results"]:
        if r.get("engine") not in ENGINES:
            raise ValueError(f"unknown engine in results: {r.get('engine')!r}")
        for field in ("n", "m", "seconds", "edges_per_sec"):
            value = r.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(f"bad {field}={value!r} in {r['engine']}")
    for field in ("fast_seconds", "strict_seconds", "speedup"):
        value = doc["io"].get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"bad io.{field}={value!r}")


def check_against_baseline(doc: dict, baseline: dict,
                           factor: float = CHECK_FACTOR) -> List[str]:
    """Regression guard: throughput must stay within ``factor`` of the
    committed baseline on every (engine, n, m) point both reports share.

    Returns the list of violations (empty = pass).
    """
    base = {
        (r["engine"], r["n"], r["m"]): r["edges_per_sec"]
        for r in baseline.get("results", [])
    }
    problems = []
    for r in doc["results"]:
        key = (r["engine"], r["n"], r["m"])
        if key not in base:
            continue
        if r["edges_per_sec"] * factor < base[key]:
            problems.append(
                f"{key}: {r['edges_per_sec']:.0f} edges/s is more than "
                f"{factor:.0f}x below baseline {base[key]:.0f}"
            )
    if not any((r["engine"], r["n"], r["m"]) in base for r in doc["results"]):
        problems.append("no overlapping (engine, n, m) points with baseline")
    return problems


def render(doc: dict) -> str:
    lines = [
        "Sparse-engine scaling (repeats={repeats}, seed={seed})".format(
            **doc["config"]
        ),
        f"{'engine':>12} | {'n':>9} | {'m':>9} | {'seconds':>9} | edges/sec",
        "-" * 62,
    ]
    for r in doc["results"]:
        lines.append(
            f"{r['engine']:>12} | {r['n']:>9} | {r['m']:>9} "
            f"| {r['seconds']:9.4f} | {r['edges_per_sec']:12.0f}"
        )
    io = doc["io"]
    lines.append("")
    lines.append(
        f"io (n={io['n']}, m={io['m']}): buffered {io['fast_seconds']:.4f}s "
        f"vs strict {io['strict_seconds']:.4f}s -> {io['speedup']:.1f}x"
    )
    for name, value in doc["speedups"].items():
        lines.append(f"{name}: {value:.2f}x")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="first rung only (CI-fast)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repeats (best-of)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a committed report; exit 1 on "
                             f"a >{CHECK_FACTOR:.0f}x throughput drop")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT.name})")
    args = parser.parse_args(argv)

    points = SMOKE_POINTS if args.smoke else FULL_POINTS
    doc = build_report(points, repeats=args.repeats, seed=args.seed)
    validate_report(doc)
    print(render(doc))

    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\n[report saved to {args.out}]")
    json.loads(args.out.read_text())  # round-trip sanity

    if not args.smoke:
        speedup = doc["speedups"]["contracting_vs_edgelist_at_largest"]
        if speedup <= 1.0:
            print("error: contracting did not beat edgelist at the largest "
                  f"rung (speedup {speedup:.2f}x)", file=sys.stderr)
            return 1
    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        problems = check_against_baseline(doc, baseline)
        if problems:
            for problem in problems:
                print(f"error: perf regression: {problem}", file=sys.stderr)
            return 1
        print(f"check ok: within {CHECK_FACTOR:.0f}x of {args.check}")
    return 0


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

class TestSparseScaling:
    def test_report(self, record_report):
        doc = build_report([(2_000, 6_000)], repeats=1)
        validate_report(doc)
        record_report("sparse_scaling", render(doc))
        from benchmarks.conftest import RESULTS_DIR

        path = RESULTS_DIR / "sparse_scaling.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        assert json.loads(path.read_text())["benchmark"] == "sparse_scaling"

    def test_validate_rejects_malformed(self):
        doc = build_report([(500, 1_000)], repeats=1)
        bad = dict(doc)
        del bad["io"]
        try:
            validate_report(bad)
        except ValueError:
            pass
        else:
            raise AssertionError("validate_report accepted a malformed doc")

    def test_check_guard_catches_regression(self):
        doc = build_report([(500, 1_000)], repeats=1)
        assert check_against_baseline(doc, doc) == []
        slowed = json.loads(json.dumps(doc))
        for r in slowed["results"]:
            r["edges_per_sec"] /= 10.0
        assert check_against_baseline(slowed, doc)

    def test_check_guard_requires_overlap(self):
        doc = build_report([(500, 1_000)], repeats=1)
        assert check_against_baseline(doc, {"results": []})


class TestSparseBenchmarks:
    def test_contracting(self, benchmark):
        graph = random_edge_list(5_000, 15_000, seed=0)
        benchmark(lambda: connected_components_contracting(graph))

    def test_edgelist(self, benchmark):
        graph = random_edge_list(5_000, 15_000, seed=0)
        benchmark(lambda: connected_components_edgelist(graph))


if __name__ == "__main__":
    sys.exit(main())
