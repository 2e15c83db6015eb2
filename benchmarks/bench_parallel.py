"""E26 -- chunk-parallel label propagation vs the serial contracting engine.

Times :func:`repro.hirschberg.parallel.connected_components_parallel`
(all three variants: SV hook+shortcut, FastSV grandparent hooking,
stochastic hooking) against the serial contracting engine on the same
graphs -- n = 10^6 vertices at 5x10^6 and 2x10^7 directed-edge-pair
scales -- and records:

* **correctness** -- every variant's labels are bit-identical to the
  contracting engine's canonical minimum-index labelling (itself
  oracle-verified in the test suite); rungs small enough for the Python
  union-find oracle are additionally checked exactly;
* **speedup** -- best parallel configuration vs serial contracting.  On
  hosts with 4+ cores the best parallel run must reach 2x over serial
  at the n=10^6, m>=5x10^6 rungs (``enforced: true``); on smaller hosts
  the numbers are recorded honestly with ``enforced: false`` and the
  reason -- chunk-parallelism cannot beat serial without cores;
* **variant spread** -- per-variant round counts and wall times, inline
  and over the pre-forked shm worker pool.

The committed ``BENCH_parallel.json`` doubles as CI's baseline: the
smoke variant re-runs the shared first rung and fails on a >3x
throughput drop (``--check``).

Run standalone (CI runs the smoke variant)::

    python benchmarks/bench_parallel.py             # full ladder (slow)
    python benchmarks/bench_parallel.py --smoke
    python benchmarks/bench_parallel.py --smoke --check BENCH_parallel.json

or via pytest (report + timed benchmark)::

    pytest benchmarks/bench_parallel.py --benchmark-disable
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.parallel_kernels import VARIANTS
from repro.graphs.union_find import UnionFind
from repro.hirschberg.contracting import connected_components_contracting
from repro.hirschberg.edgelist import random_edge_list
from repro.hirschberg.parallel import connected_components_parallel

#: The rungs.  The first is shared with ``--smoke`` so the committed
#: full report contains the baseline point CI's smoke ``--check``
#: compares against; the last two are the paper-scale comparison the
#: acceptance bar is defined on (n = 10^6, m >= 5x10^6).
FULL_POINTS = (
    {"n": 50_000, "m": 200_000},
    {"n": 1_000_000, "m": 5_000_000},
    {"n": 1_000_000, "m": 20_000_000},
)
SMOKE_POINTS = (FULL_POINTS[0],)

#: Largest n still verified against the union-find oracle (Python loop).
ORACLE_MAX_N = 60_000

#: ``--check`` fails when throughput drops below baseline/3.
CHECK_FACTOR = 3.0

#: Acceptance bar: best parallel config must reach this speedup over
#: serial contracting at the n=10^6 rungs -- enforced on 4+ core hosts.
SPEEDUP_THRESHOLD = 2.0
ENFORCE_MIN_CORES = 4

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _best_of(fn, repeats: int) -> Dict:
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        value = fn()
        seconds = time.perf_counter() - start
        if best is None or seconds < best["seconds"]:
            best = {"seconds": seconds, "value": value}
    return best


def run_point(point: Dict, seed: int = 0, repeats: int = 1,
              pool=None) -> Dict:
    """One rung: serial contracting, then every parallel variant."""
    n, m = point["n"], point["m"]
    graph = random_edge_list(n, m, seed=seed)

    serial = _best_of(lambda: connected_components_contracting(graph),
                      repeats)
    oracle = serial["value"].labels
    oracle_checked = n <= ORACLE_MAX_N
    if oracle_checked:
        uf = UnionFind(n)
        half = graph.src.size // 2
        for u, v in zip(graph.src[:half].tolist(),
                        graph.dst[:half].tolist()):
            uf.union(u, v)
        assert np.array_equal(oracle, uf.canonical_labels()), (
            f"contracting labels diverged from union-find at n={n}"
        )

    runs: List[Dict] = []
    modes = [("inline", None)]
    if pool is not None:
        modes.append(("pooled", pool))
    for variant in VARIANTS:
        for mode, mode_pool in modes:
            timing = _best_of(
                lambda v=variant, p=mode_pool: connected_components_parallel(
                    graph, variant=v, pool=p
                ),
                repeats,
            )
            detail = timing["value"]
            assert np.array_equal(detail.labels, oracle), (
                f"{variant}/{mode} labels diverged from contracting at n={n}"
            )
            runs.append({
                "variant": variant,
                "mode": mode,
                "workers": detail.workers,
                "chunks": detail.chunks,
                "rounds": detail.rounds,
                "confirm_rounds": detail.confirm_rounds,
                "seconds": timing["seconds"],
                "edges_per_sec": m / timing["seconds"],
                "matches_contracting": True,
            })

    best = min(runs, key=lambda r: r["seconds"])
    return {
        "n": n,
        "m": m,
        "contracting_seconds": serial["seconds"],
        "contracting_edges_per_sec": m / serial["seconds"],
        "components": int(np.unique(oracle).size),
        "oracle_checked": oracle_checked,
        "variants": runs,
        "best_parallel": {
            "variant": best["variant"],
            "mode": best["mode"],
            "seconds": best["seconds"],
            "edges_per_sec": best["edges_per_sec"],
            "speedup_vs_contracting": serial["seconds"] / best["seconds"],
        },
    }


def build_report(points: Sequence[Dict], repeats: int = 1,
                 seed: int = 0, use_pool: bool = True) -> Dict:
    """The full machine-readable benchmark document."""
    cores = os.cpu_count() or 1
    enforced = cores >= ENFORCE_MIN_CORES
    pool = None
    if use_pool and cores >= 2:
        from repro.serve.executor import PoolExecutor

        pool = PoolExecutor(workers=cores).start()
    try:
        results = [
            run_point(p, seed=seed, repeats=repeats, pool=pool)
            for p in points
        ]
    finally:
        if pool is not None:
            pool.shutdown()
    doc = {
        "benchmark": "parallel",
        "experiment": "E26",
        "config": {
            "points": [dict(p) for p in points],
            "repeats": repeats,
            "seed": seed,
            "variants": list(VARIANTS),
        },
        "cores": cores,
        "threshold": SPEEDUP_THRESHOLD,
        "enforced": enforced,
        "results": results,
    }
    if not enforced:
        doc["reason"] = (
            f"host has {cores} core(s); chunk-parallel speedup is not "
            f"measurable below {ENFORCE_MIN_CORES} cores, numbers "
            "recorded unenforced"
        )
    return doc


def validate_report(doc: Dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed report."""
    for key in ("benchmark", "config", "results", "enforced"):
        if key not in doc:
            raise ValueError(f"report missing key {key!r}")
    if doc["benchmark"] != "parallel":
        raise ValueError(f"unexpected benchmark id {doc['benchmark']!r}")
    if not doc["enforced"] and not doc.get("reason"):
        raise ValueError("unenforced report needs a recorded reason")
    if len(doc["results"]) != len(doc["config"]["points"]):
        raise ValueError(
            f"expected {len(doc['config']['points'])} results, "
            f"got {len(doc['results'])}"
        )
    for r in doc["results"]:
        for field in ("n", "m", "contracting_seconds"):
            value = r.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(f"bad {field}={value!r} in results")
        if not r.get("variants"):
            raise ValueError(f"no variant runs at n={r.get('n')}")
        seen = {v["variant"] for v in r["variants"]}
        if seen != set(VARIANTS):
            raise ValueError(f"missing variants {set(VARIANTS) - seen}")
        for v in r["variants"]:
            if not v.get("matches_contracting"):
                raise ValueError(
                    f"unverified run {v.get('variant')} at n={r.get('n')}"
                )
            if v.get("seconds", 0) <= 0:
                raise ValueError("bad variant timing")


def check_against_baseline(doc: Dict, baseline: Dict,
                           factor: float = CHECK_FACTOR) -> List[str]:
    """Regression guard: best-parallel throughput must stay within
    ``factor`` of the committed baseline on every shared (n, m) rung.

    Returns the list of violations (empty = pass).
    """
    base = {
        (r["n"], r["m"]): r["best_parallel"]["edges_per_sec"]
        for r in baseline.get("results", [])
    }
    problems = []
    overlap = False
    for r in doc["results"]:
        key = (r["n"], r["m"])
        if key not in base:
            continue
        overlap = True
        now = r["best_parallel"]["edges_per_sec"]
        if now * factor < base[key]:
            problems.append(
                f"{key}: {now:.0f} edges/s is more than {factor:.0f}x "
                f"below baseline {base[key]:.0f}"
            )
    if not overlap:
        problems.append("no overlapping (n, m) rungs with baseline")
    return problems


def enforce_speedup(doc: Dict) -> List[str]:
    """The acceptance bar, applied only when the host can express it."""
    if not doc["enforced"]:
        return []
    problems = []
    for r in doc["results"]:
        if r["n"] < 1_000_000 or r["m"] < 5_000_000:
            continue
        speedup = r["best_parallel"]["speedup_vs_contracting"]
        if speedup < doc["threshold"]:
            problems.append(
                f"(n={r['n']}, m={r['m']}): best parallel speedup "
                f"{speedup:.2f}x below the {doc['threshold']:.1f}x bar"
            )
    return problems


def render(doc: Dict) -> str:
    lines = [
        "Chunk-parallel label propagation (repeats={repeats}, "
        "seed={seed})".format(**doc["config"]),
        "{} core(s); 2x-speedup bar {}".format(
            doc["cores"],
            "enforced" if doc["enforced"]
            else f"not enforced ({doc.get('reason', '')})",
        ),
    ]
    for r in doc["results"]:
        lines.append("")
        lines.append(
            f"n={r['n']}, m={r['m']}: contracting "
            f"{r['contracting_seconds']:.3f}s "
            f"({r['contracting_edges_per_sec']:.0f} edges/s), "
            f"{r['components']} components"
            + (" [oracle]" if r["oracle_checked"] else "")
        )
        for v in r["variants"]:
            lines.append(
                f"  {v['variant']:>10} {v['mode']:>6} x{v['workers']}: "
                f"{v['seconds']:>8.3f}s, {v['rounds']:>3} rounds "
                f"(+{v['confirm_rounds']} confirm), "
                f"{v['edges_per_sec']:>12.0f} edges/s"
            )
        best = r["best_parallel"]
        lines.append(
            f"  best: {best['variant']}/{best['mode']} at "
            f"{best['seconds']:.3f}s -- "
            f"{best['speedup_vs_contracting']:.2f}x vs contracting"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="first rung only (CI-fast)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repeats (best-of)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-pool", action="store_true",
                        help="skip the pooled runs (inline variants only)")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a committed report; exit 1 on "
                             f"a >{CHECK_FACTOR:.0f}x throughput drop")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT.name})")
    args = parser.parse_args(argv)

    points = SMOKE_POINTS if args.smoke else FULL_POINTS
    doc = build_report(points, repeats=args.repeats, seed=args.seed,
                       use_pool=not args.no_pool)
    validate_report(doc)
    print(render(doc))

    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\n[report saved to {args.out}]")
    json.loads(args.out.read_text())  # round-trip sanity

    failures = enforce_speedup(doc)
    for problem in failures:
        print(f"error: {problem}", file=sys.stderr)
    if failures:
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

class TestParallelBench:
    def test_report(self, record_report):
        doc = build_report(
            [{"n": 5_000, "m": 20_000}], repeats=1, use_pool=False,
        )
        validate_report(doc)
        render_text = render(doc)
        record_report("parallel", render_text)
        from benchmarks.conftest import RESULTS_DIR

        path = RESULTS_DIR / "parallel.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        assert json.loads(path.read_text())["benchmark"] == "parallel"

    def test_validate_rejects_unverified(self):
        doc = build_report([{"n": 1_000, "m": 3_000}], repeats=1,
                           use_pool=False)
        bad = json.loads(json.dumps(doc))
        bad["results"][0]["variants"][0]["matches_contracting"] = False
        try:
            validate_report(bad)
        except ValueError:
            pass
        else:
            raise AssertionError("validate_report accepted a malformed doc")

    def test_check_guard_catches_regression(self):
        doc = build_report([{"n": 1_000, "m": 3_000}], repeats=1,
                           use_pool=False)
        assert check_against_baseline(doc, doc) == []
        slowed = json.loads(json.dumps(doc))
        for r in slowed["results"]:
            r["best_parallel"]["edges_per_sec"] /= 10.0
        assert check_against_baseline(slowed, doc)
        assert check_against_baseline(doc, {"results": []})

    def test_speedup_bar_only_binds_enforced_reports(self):
        doc = build_report([{"n": 1_000, "m": 3_000}], repeats=1,
                           use_pool=False)
        rigged = json.loads(json.dumps(doc))
        rigged["enforced"] = True
        rigged["results"][0].update({"n": 1_000_000, "m": 5_000_000})
        rigged["results"][0]["best_parallel"]["speedup_vs_contracting"] = 0.5
        assert enforce_speedup(rigged)
        rigged["enforced"] = False
        assert enforce_speedup(rigged) == []


class TestParallelBenchmarks:
    def test_parallel_small(self, benchmark):
        graph = random_edge_list(5_000, 15_000, seed=0)
        benchmark(lambda: connected_components_parallel(graph))


if __name__ == "__main__":
    sys.exit(main())
