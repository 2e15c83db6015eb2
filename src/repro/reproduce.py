"""The acceptance harness: every experiment's verdict in one call.

``python -m repro reproduce`` (or :func:`run_all`) executes a quick
version of every experiment E1-E20 from DESIGN.md's index and reports
PASS/FAIL per experiment -- the one-command answer to "does this
repository still reproduce the paper?".  The full-size runs and archived
reports live in ``benchmarks/``; these checks use small instances chosen
so the whole battery completes in seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass
class CheckResult:
    """One experiment's quick verdict."""

    experiment: str
    title: str
    passed: bool
    detail: str
    seconds: float


def _check(condition: bool, ok: str, bad: str) -> tuple:
    return bool(condition), ok if condition else bad


# ----------------------------------------------------------------------
# the individual checks (E1..E20)
# ----------------------------------------------------------------------

def _e1_table1() -> tuple:
    from repro.analysis import compare_table1
    from repro.core.machine import connected_components_interpreter
    from repro.graphs.generators import random_graph

    n = 8
    log = connected_components_interpreter(random_graph(n, 0.4, seed=1)).access_log
    rows = {c.generation: c for c in compare_table1(n, log)}
    exact = all(rows[g].active_matches for g in (0, 1, 2, 4, 5, 6, 8, 11))
    bounded = all(c.congestion_within_paper_bound for c in rows.values())
    return _check(
        exact and bounded,
        "generations 0-8/11 match; 9/10 within documented deviations",
        "Table 1 counts diverged",
    )


def _e2_table2() -> tuple:
    from repro.analysis import compare_table2
    from repro.core.vectorized import run_vectorized
    from repro.graphs.generators import random_graph

    for n in (8, 12):
        log = run_vectorized(random_graph(n, 0.3, seed=n), record_access=True).access_log
        if not all(r.matches for r in compare_table2(n, log)):
            return False, f"Table 2 mismatch at n={n}"
    return True, "per-step generation counts exact (incl. non-power-of-two n)"


def _e3_state_machine() -> tuple:
    from repro.core.schedule import full_schedule
    from repro.core.state_machine import HirschbergStateMachine

    for n in (2, 4, 8):
        if [s.label for s in HirschbergStateMachine(n)] != [
            s.label for s in full_schedule(n)
        ]:
            return False, f"controller != schedule at n={n}"
    return True, "dynamic controller emits the static schedule exactly"


def _e4_access_patterns() -> tuple:
    from repro.core.trace import figure3_patterns

    p = figure3_patterns(4)
    ok = (
        p["gen1"].active_count == 20
        and p["gen2"].active_count == 16
        and p["gen3.sub0"].active_count == 8
        and p["gen1"].reads_of(0) == 5
    )
    return _check(ok, "n=4 panels match Figure 3", "Figure 3 panels diverged")


def _e5_total_generations() -> tuple:
    from repro.core.schedule import total_generations
    from repro.core.vectorized import run_vectorized
    from repro.graphs.generators import random_graph
    from repro.util.intmath import ceil_log2

    for n in (4, 8, 16):
        res = run_vectorized(random_graph(n, 0.3, seed=n))
        expected = 1 + ceil_log2(n) * (3 * ceil_log2(n) + 8)
        if res.total_generations != expected or total_generations(n) != expected:
            return False, f"bound broken at n={n}"
    return True, "1 + log n (3 log n + 8), measured = formula"


def _e6_synthesis() -> tuple:
    from repro.hardware import paper_report, synthesize

    return _check(
        synthesize(16).summary() == paper_report().summary(),
        "model reproduces 272 cells / 23,051 LEs / 2,192 bits / 71 MHz",
        "cost model diverged from the published point",
    )


def _e7_replication() -> tuple:
    from repro.core.machine import connected_components_interpreter
    from repro.graphs.generators import random_graph
    from repro.hardware import ReadStrategy, run_cycles

    log = connected_components_interpreter(random_graph(8, 0.4, seed=2)).access_log
    serial = run_cycles(log, ReadStrategy.SERIAL)
    replicated = run_cycles(log, ReadStrategy.REPLICATED)
    return _check(
        replicated == log.total_generations and serial > replicated,
        f"congestion 1 under replication ({serial} -> {replicated} cycles)",
        "replication did not reach congestion 1",
    )


def _e8_cost_models() -> tuple:
    from repro.analysis import compare_models
    from repro.graphs.generators import random_graph

    rows = {r.model: r for r in compare_models(random_graph(16, 0.3, seed=3))}
    ok = (
        all(r.labels_correct for r in rows.values())
        and rows["gca"].time_units < rows["sequential"].time_units
        and rows["sequential"].work <= rows["gca"].work
    )
    return _check(ok, "GCA wins time, sequential wins work; all correct",
                  "cost-model shape broken")


def _e9_crossover() -> tuple:
    from repro.graphs.generators import path_graph
    from repro.hirschberg.variants import label_propagation_rounds
    from repro.util.intmath import outer_iterations

    n = 64
    return _check(
        label_propagation_rounds(path_graph(n)) == n - 1
        and outer_iterations(n) == 6,
        "diameter rounds vs log n iterations as predicted",
        "crossover shape broken",
    )


def _e10_ncells() -> tuple:
    from repro.core.row_machine import RowGCA, row_total_generations
    from repro.core.schedule import total_generations
    from repro.graphs.components import canonical_labels
    from repro.graphs.generators import random_graph

    g = random_graph(8, 0.3, seed=4)
    res = RowGCA(g).run()
    ok = (
        np.array_equal(res.labels, canonical_labels(g))
        and res.total_generations == row_total_generations(8)
        and row_total_generations(8) > total_generations(8)
    )
    return _check(ok, "n-cell design correct, slower as predicted",
                  "row machine broken")


def _e11_multiplexed() -> tuple:
    from repro.core.schedule import total_generations
    from repro.hardware.multiplexed import estimate_multiplexed, frontier

    full = estimate_multiplexed(16, 272)
    points = frontier(16)
    pareto = all(
        b.total_cycles <= a.total_cycles and b.logic_elements > a.logic_elements
        for a, b in zip(points, points[1:])
    )
    return _check(
        full.total_cycles == total_generations(16) and pareto,
        "Pareto frontier; fully parallel endpoint = generation count",
        "frontier shape broken",
    )


def _e12_hashing() -> tuple:
    from repro.analysis.hashing import compare_mappings
    from repro.core.machine import connected_components_interpreter
    from repro.graphs.generators import random_graph

    n = 8
    log = connected_components_interpreter(random_graph(n, 0.4, seed=5)).access_log
    profiles = {p.mapping_name: p for p in compare_mappings(log, n, 4)}
    hashed = profiles["universal-hash (median of samples)"]
    ok = profiles["aware"].peak <= hashed.peak < profiles["adversarial"].peak
    return _check(ok, "aware <= hashed < adversarial", "mapping ordering broken")


def _e13_closure() -> tuple:
    from repro.extensions.transitive_closure import (
        closure_generations,
        transitive_closure_gca,
        transitive_closure_reference,
    )
    from repro.graphs.generators import random_graph

    g = random_graph(8, 0.25, seed=6)
    res = transitive_closure_gca(g)
    ok = (
        np.array_equal(res.closure, transitive_closure_reference(g))
        and res.total_generations == closure_generations(8)
    )
    return _check(ok, "closure exact; log n (n+1) generations",
                  "transitive closure broken")


def _e14_algorithms() -> tuple:
    from repro.gca.algorithms import gca_bitonic_sort, gca_prefix_sum, gca_reduce

    values = [9, -3, 4, 0, 7, 7, -1, 2]
    ok = (
        gca_reduce(values, "min") == -3
        and gca_prefix_sum(values) == list(np.cumsum(values))
        and gca_bitonic_sort(values) == sorted(values)
    )
    return _check(ok, "reduce/scan/sort kernels correct", "kernel broken")


def _e15_verilog() -> tuple:
    from repro.hardware.cells import CellKind, count_cells
    from repro.hardware.verilog import design_statistics, generate_verilog

    stats = design_statistics(generate_verilog(4))
    counts = count_cells(4)
    ok = (
        stats["standard_instances"] == counts[CellKind.STANDARD]
        and stats["extended_instances"] == counts[CellKind.EXTENDED]
        and stats["case_arms_extended"] == 12
    )
    return _check(ok, "generated design structurally tied to the cost model",
                  "Verilog generator diverged")


def _e16_logic() -> tuple:
    from repro.gca.logic_simulation import LogicSimulator, ripple_carry_adder

    bits = 3
    circuit, a, b, cin = ripple_carry_adder(bits)
    sim = LogicSimulator(circuit)
    for x, y in ((3, 4), (7, 7), (0, 5)):
        inputs = {a[i]: (x >> i) & 1 for i in range(bits)}
        inputs.update({b[i]: (y >> i) & 1 for i in range(bits)})
        inputs[cin] = 0
        out = sim.run(inputs)
        got = sum(out[f"sum{i}"] << i for i in range(bits)) + (out["carry_out"] << bits)
        if got != x + y:
            return False, f"adder computed {x}+{y}={got}"
    return True, "gate-per-cell adder exact"


def _e17_sweep() -> tuple:
    from repro.analysis.sweep import SweepSpec, run_sweep

    records = run_sweep(SweepSpec(name="quick", sizes=[6, 10],
                                  engines=["vectorized", "row", "unionfind"]))
    return _check(all(r.correct for r in records),
                  f"{len(records)} sweep runs oracle-verified",
                  "sweep produced incorrect runs")


def _e18_edgelist() -> tuple:
    from repro.graphs.union_find import UnionFind
    from repro.hirschberg.edgelist import (
        connected_components_edgelist,
        random_edge_list,
    )

    g = random_edge_list(20_000, 25_000, seed=7)
    res = connected_components_edgelist(g)
    uf = UnionFind(g.n)
    us, vs = g.pairs()
    for u, v in zip(us.tolist(), vs.tolist()):
        uf.union(u, v)
    return _check(
        np.array_equal(res.labels, uf.canonical_labels()),
        "20k-node edge-list run oracle-verified",
        "edge-list variant diverged",
    )


def _e19_butterfly() -> tuple:
    from repro.network.butterfly import ButterflyNetwork
    from repro.util.intmath import ceil_log2

    p = 64
    reqs = [(s, 0) for s in range(p)]
    combined = ButterflyNetwork(p, combining=True).route(reqs)
    plain = ButterflyNetwork(p, combining=False).route(reqs)
    ok = combined.cycles <= ceil_log2(p) + 1 and plain.cycles >= p
    return _check(ok, "broadcast: log p with combining vs p without",
                  "routing behaviour broken")


def _e20_numerical() -> tuple:
    from repro.gca.numerical import gca_bfs_levels, gca_matvec, gca_sssp
    from repro.graphs.generators import path_graph
    from repro.graphs.metrics import bfs_distances

    rng = np.random.default_rng(8)
    M = rng.integers(-5, 6, size=(6, 6))
    x = rng.integers(-5, 6, size=6)
    g = path_graph(7)
    levels, _ = gca_bfs_levels(g, 0)
    dist, _ = gca_sssp(g.matrix, 0)
    ok = (
        np.array_equal(gca_matvec(M, x).vector, M.astype(np.int64) @ x)
        and np.array_equal(levels, bfs_distances(g, 0))
        and dist[6] == 6
    )
    return _check(ok, "matvec/BFS/SSSP kernels exact", "fabric kernel broken")


#: The registry, in DESIGN.md order.
CHECKS: List[tuple] = [
    ("E1", "Table 1: active cells / reads / congestion", _e1_table1),
    ("E2", "Table 2: generations per step", _e2_table2),
    ("E3", "Figure 2: the state machine", _e3_state_machine),
    ("E4", "Figure 3: access patterns (n=4)", _e4_access_patterns),
    ("E5", "total generations = 1 + log n (3 log n + 8)", _e5_total_generations),
    ("E6", "Section 4 synthesis point", _e6_synthesis),
    ("E7", "replication -> congestion 1", _e7_replication),
    ("E8", "GCA vs PRAM vs sequential cost models", _e8_cost_models),
    ("E9", "diameter vs log n crossover", _e9_crossover),
    ("E10", "n-cell design alternative", _e10_ncells),
    ("E11", "time-multiplexed frontier", _e11_multiplexed),
    ("E12", "memory-mapping / universal hashing", _e12_hashing),
    ("E13", "transitive closure", _e13_closure),
    ("E14", "GCA algorithm library", _e14_algorithms),
    ("E15", "generated Verilog design", _e15_verilog),
    ("E16", "logic simulation (gate per cell)", _e16_logic),
    ("E17", "oracle-verified engine sweep", _e17_sweep),
    ("E18", "edge-list variant at scale", _e18_edgelist),
    ("E19", "butterfly routing with combining", _e19_butterfly),
    ("E20", "semiring matrix fabric", _e20_numerical),
]


def run_all(only: Optional[List[str]] = None) -> List[CheckResult]:
    """Run the experiment checks; ``only`` filters by experiment id."""
    wanted = {e.upper() for e in only} if only else None
    results = []
    for exp_id, title, fn in CHECKS:
        if wanted is not None and exp_id not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            CheckResult(
                experiment=exp_id,
                title=title,
                passed=passed,
                detail=detail,
                seconds=time.perf_counter() - start,
            )
        )
    return results


def render(results: List[CheckResult]) -> str:
    """Human-readable verdict table."""
    from repro.util.formatting import render_table

    rows = [
        [r.experiment, r.title, "PASS" if r.passed else "FAIL",
         f"{r.seconds * 1e3:.0f}", r.detail]
        for r in results
    ]
    verdict = "ALL EXPERIMENTS PASS" if all(r.passed for r in results) else \
        f"{sum(not r.passed for r in results)} EXPERIMENT(S) FAILED"
    return render_table(
        ["id", "experiment", "verdict", "ms", "detail"],
        rows,
        title=f"Reproduction acceptance harness -- {verdict}",
    )
