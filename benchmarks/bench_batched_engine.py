"""E21 (harness) -- engine throughput: single vs batched vs early-exit.

Measures graphs/second for the same workload (a batch of same-size random
graphs) on four execution strategies:

* ``single``        -- loop :func:`repro.core.vectorized.run_vectorized`
  over the batch, full schedule (the batched kernel at ``B = 1``, so
  ``batched`` vs ``single`` isolates the batching gain);
* ``single_early``  -- same loop with ``early_exit=True``;
* ``batched``       -- one :class:`repro.core.batched.BatchedGCA` call,
  full schedule;
* ``batched_early`` -- one batched call with ``early_exit`` (the
  default batched mode).  It does the same work as ``batched``: the
  kernel never runs a graph past its fixed point, and ``early_exit``
  only changes the counts it reports.

Every mode's labels are verified against the union-find oracle, and the
batched labels are additionally required to be bit-identical to the
single-engine labels.  ``--smoke`` also cross-checks the labels of one
batch on each side of the density line (``BatchedGCA`` starts p = 0.2
on the grid and p = 0.01 from the pairs at ``n = 64``).  The numbers are
written as machine-readable JSON
(``BENCH_engine.json`` at the repo root when run as a script); see
EXPERIMENTS.md ("Engines & performance") for how to read it.

Run standalone (CI runs the smoke variant)::

    python benchmarks/bench_batched_engine.py --smoke
    python benchmarks/bench_batched_engine.py --n 64 --batch 64

or via pytest (report + timed benchmark)::

    pytest benchmarks/bench_batched_engine.py --benchmark-disable
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.batched import BatchedGCA
from repro.core.vectorized import run_vectorized
from repro.graphs.components import canonical_labels
from repro.graphs.generators import random_graph
from repro.util.validation import sparse_keys

#: Modes reported by :func:`run_modes`, in report order.
MODES = ("single", "single_early", "batched", "batched_early")

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _build_instances(n: int, batch: int, p: float, seed0: int = 0):
    graphs = [random_graph(n, p, seed=seed0 + i) for i in range(batch)]
    oracles = [canonical_labels(g) for g in graphs]
    return graphs, oracles


def _time_best(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` (returns seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def cross_check(graphs, oracles) -> None:
    """Every mode's labels equal the oracle's, and batched equals single."""
    single_labels = [run_vectorized(g).labels for g in graphs]
    for labels, oracle in zip(single_labels, oracles):
        assert np.array_equal(labels, oracle), "single engine diverged"
    for g, oracle in zip(graphs, oracles):
        res = run_vectorized(g, early_exit=True)
        assert np.array_equal(res.labels, oracle), "early exit diverged"
    for early in (False, True):
        res = BatchedGCA(graphs, early_exit=early).run()
        for slot, oracle in enumerate(oracles):
            assert np.array_equal(res.labels[slot], oracle), (
                f"batched (early_exit={early}) diverged at slot {slot}"
            )
            assert np.array_equal(res.labels[slot], single_labels[slot])


def check_both_starts(n: int = 64, batch: int = 16) -> None:
    """Cross-check a batch on each side of the density line (n^2/48
    nonzeros): at p = 0.2 ``BatchedGCA`` starts on the grid, at p = 0.01
    from the pairs."""
    for p, pairs in ((0.2, False), (0.01, True)):
        graphs, oracles = _build_instances(n, batch, p)
        sparse = [sparse_keys(g.matrix != 0) is not None for g in graphs]
        if all(sparse) != pairs:
            raise AssertionError(
                f"p={p} batch does not start on the "
                f"{'pairs' if pairs else 'grid'}"
            )
        cross_check(graphs, oracles)


def run_modes(n: int, batch: int, p: float, repeats: int = 3) -> List[dict]:
    """Time every mode on one shared workload; oracle-verify all labels."""
    graphs, oracles = _build_instances(n, batch, p)
    # correctness first: single-engine labels are the cross-check baseline
    cross_check(graphs, oracles)

    timings = {
        "single": lambda: [run_vectorized(g) for g in graphs],
        "single_early": lambda: [
            run_vectorized(g, early_exit=True) for g in graphs
        ],
        "batched": lambda: BatchedGCA(graphs, early_exit=False).run(),
        "batched_early": lambda: BatchedGCA(graphs).run(),
    }
    results = []
    for mode in MODES:
        seconds = _time_best(timings[mode], repeats)
        results.append({
            "mode": mode,
            "n": n,
            "batch": batch,
            "seconds": seconds,
            "graphs_per_sec": batch / seconds,
        })
    return results


def build_report(n: int, batch: int, p: float, repeats: int = 3) -> dict:
    """The full machine-readable benchmark document."""
    results = run_modes(n, batch, p, repeats=repeats)
    rate = {r["mode"]: r["graphs_per_sec"] for r in results}
    return {
        "benchmark": "engine_throughput",
        "config": {"n": n, "batch": batch, "p": p, "repeats": repeats},
        "results": results,
        "speedups": {
            "single_early_vs_single": rate["single_early"] / rate["single"],
            "batched_vs_single": rate["batched"] / rate["single"],
            "batched_early_vs_single": rate["batched_early"] / rate["single"],
        },
    }


def validate_report(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed report."""
    for key in ("benchmark", "config", "results", "speedups"):
        if key not in doc:
            raise ValueError(f"report missing key {key!r}")
    if doc["benchmark"] != "engine_throughput":
        raise ValueError(f"unexpected benchmark id {doc['benchmark']!r}")
    modes = [r.get("mode") for r in doc["results"]]
    if modes != list(MODES):
        raise ValueError(f"expected modes {MODES}, got {modes}")
    for r in doc["results"]:
        for field in ("n", "batch", "seconds", "graphs_per_sec"):
            value = r.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(f"bad {field}={value!r} in {r['mode']}")
    for name, value in doc["speedups"].items():
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"bad speedup {name}={value!r}")


def render(doc: dict) -> str:
    lines = [
        "Engine throughput (n={n}, batch={batch}, p={p})".format(**doc["config"]),
        f"{'mode':>14} | {'seconds':>9} | graphs/sec",
        "-" * 42,
    ]
    for r in doc["results"]:
        lines.append(
            f"{r['mode']:>14} | {r['seconds']:9.4f} | {r['graphs_per_sec']:10.1f}"
        )
    lines.append("")
    for name, value in doc["speedups"].items():
        lines.append(f"{name}: {value:.2f}x")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=64, help="graph size")
    parser.add_argument("--batch", type=int, default=64, help="graphs per batch")
    parser.add_argument("--p", type=float, default=0.1, help="edge probability")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast config + throughput sanity assertion")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT.name})")
    args = parser.parse_args(argv)

    if args.smoke:
        args.n, args.batch, args.repeats = 16, 16, 2

    doc = build_report(args.n, args.batch, args.p, repeats=args.repeats)
    validate_report(doc)
    print(render(doc))

    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\n[report saved to {args.out}]")
    json.loads(args.out.read_text())  # round-trip sanity

    if args.smoke:
        check_both_starts()
        print("smoke ok: labels cross-checked on the grid and pair starts")
        rate = {r["mode"]: r["graphs_per_sec"] for r in doc["results"]}
        if rate["batched"] < rate["single"]:
            print("error: batched slower than single-graph loop",
                  file=sys.stderr)
            return 1
        print("smoke ok: batched >= single throughput")
    return 0


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

class TestEngineThroughput:
    def test_report(self, record_report):
        doc = build_report(n=32, batch=16, p=0.1, repeats=2)
        validate_report(doc)
        record_report("engine_throughput", render(doc))
        from benchmarks.conftest import RESULTS_DIR

        path = RESULTS_DIR / "engine_throughput.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        assert json.loads(path.read_text())["benchmark"] == "engine_throughput"

    def test_both_starts(self):
        check_both_starts()

    def test_validate_rejects_malformed(self):
        doc = build_report(n=8, batch=4, p=0.2, repeats=1)
        bad = dict(doc)
        del bad["speedups"]
        try:
            validate_report(bad)
        except ValueError:
            pass
        else:
            raise AssertionError("validate_report accepted a malformed doc")


class TestEngineBenchmarks:
    def test_batched_early(self, benchmark):
        graphs, _ = _build_instances(32, 16, 0.1)
        benchmark(lambda: BatchedGCA(graphs).run())

    def test_single_loop(self, benchmark):
        graphs, _ = _build_instances(32, 16, 0.1)
        benchmark(lambda: [run_vectorized(g) for g in graphs])


if __name__ == "__main__":
    sys.exit(main())
