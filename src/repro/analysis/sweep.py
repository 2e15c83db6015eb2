"""Declarative experiment sweeps for the benchmark harness.

The reproduction benches each regenerate one table/figure; this module
provides the generic machinery for *parameter sweeps* across them:

* :class:`SweepSpec` -- a declarative grid (sizes x densities x engines x
  seeds) with a workload family;
* :func:`run_sweep` -- executes the grid, verifying every result against
  the union-find oracle, timing the engine, and collecting the
  model-level metrics (generations, work, peak congestion) where the
  engine exposes them; ``jobs=N`` fans the grid cells out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`;
* the ``"batched"`` engine -- groups a cell's seeds into **one**
  :class:`~repro.core.batched.BatchedGCA` call, so the sweep measures the
  throughput path the same harness otherwise measures per graph;
* :class:`SparseSweepSpec` + :func:`run_sparse_sweep` -- the sparse-scale
  counterpart: workloads are :class:`~repro.hirschberg.edgelist
  .EdgeListGraph` instances placed in **shared memory**
  (:mod:`repro.analysis.shm`), so ``jobs=N`` workers attach zero-copy
  views instead of pickling multi-million-entry edge arrays through the
  process pipe, and write their label vectors into pre-allocated shared
  slots the parent verifies (union-find oracle at small ``n``,
  cross-engine agreement at scale);
* :class:`RunRecord` + JSON (de)serialisation -- archive-stable records
  so sweeps can be compared across machines/runs;
* :func:`summarize` -- aggregation into printable rows (median seconds
  per (engine, n)).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.shm import (
    SharedArray,
    SharedArrayRef,
    SharedEdgeListRef,
    SharedWorkspace,
    attach_edge_list,
    share_edge_list,
)
from repro.core.batched import BatchedGCA
from repro.core.machine import connected_components_interpreter
from repro.core.row_machine import RowGCA
from repro.core.vectorized import run_vectorized
from repro.graphs.adjacency import AdjacencyMatrix
from repro.graphs.components import canonical_labels, components_union_find
from repro.graphs.generators import (
    path_graph,
    planted_components,
    random_graph,
    random_spanning_tree,
)
from repro.graphs.union_find import UnionFind
from repro.hirschberg.contracting import connected_components_contracting
from repro.hirschberg.edgelist import (
    EdgeListGraph,
    connected_components_edgelist,
    random_edge_list,
)
from repro.hirschberg.pram_impl import hirschberg_on_pram
from repro.hirschberg.reference import connected_components_reference

PathLike = Union[str, Path]

#: Workload families available to sweeps: name -> (n, density, seed) -> graph.
WORKLOADS: Dict[str, Callable[[int, float, int], AdjacencyMatrix]] = {
    "random": lambda n, p, seed: random_graph(n, p, seed=seed),
    "path": lambda n, p, seed: path_graph(n),
    "tree": lambda n, p, seed: random_spanning_tree(n, seed=seed),
    "planted": lambda n, p, seed: planted_components(
        [max(1, n // 4)] * 4, intra_p=max(p, 0.2), seed=seed
    ),
}


def _run_engine(name: str, graph: AdjacencyMatrix) -> Dict[str, Optional[int]]:
    """Execute one engine; returns labels plus engine-native metrics."""
    if name == "vectorized":
        res = run_vectorized(graph)
        return {"labels": res.labels, "generations": res.total_generations,
                "work": None, "peak_congestion": None}
    if name == "vectorized_early":
        res = run_vectorized(graph, early_exit=True)
        return {"labels": res.labels, "generations": res.total_generations,
                "work": None, "peak_congestion": None}
    if name == "interpreter":
        res = connected_components_interpreter(graph)
        return {"labels": res.labels,
                "generations": res.total_generations,
                "work": res.access_log.total_active,
                "peak_congestion": res.access_log.peak_congestion}
    if name == "reference":
        return {"labels": connected_components_reference(graph),
                "generations": None, "work": None, "peak_congestion": None}
    if name == "pram":
        res = hirschberg_on_pram(graph)
        return {"labels": res.labels, "generations": res.parallel_steps,
                "work": res.work, "peak_congestion": res.peak_read_congestion}
    if name == "row":
        res = RowGCA(graph).run()
        return {"labels": res.labels, "generations": res.total_generations,
                "work": res.access_log.total_active,
                "peak_congestion": res.access_log.peak_congestion}
    if name == "unionfind":
        return {"labels": components_union_find(graph),
                "generations": None, "work": None, "peak_congestion": None}
    if name == "edgelist":
        res = connected_components_edgelist(EdgeListGraph.from_adjacency(graph))
        return {"labels": res.labels, "generations": res.iterations,
                "work": None, "peak_congestion": None}
    if name == "contracting":
        res = connected_components_contracting(
            EdgeListGraph.from_adjacency(graph)
        )
        return {"labels": res.labels, "generations": res.iterations,
                "work": res.total_work, "peak_congestion": None}
    if name == "auto":
        from repro.core.api import connected_components

        res = connected_components(graph, engine="auto")
        return {"labels": res.labels, "generations": None,
                "work": None, "peak_congestion": None}
    raise ValueError(f"unknown engine {name!r}")


#: Engines selectable in sweeps.  ``batched`` is special: it executes all
#: of a cell's seeds in one :class:`~repro.core.batched.BatchedGCA` call.
ENGINES = ("vectorized", "vectorized_early", "interpreter", "reference",
           "pram", "row", "unionfind", "batched", "edgelist", "contracting",
           "auto")


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep grid."""

    name: str
    sizes: Sequence[int]
    engines: Sequence[str] = ("vectorized", "reference", "unionfind")
    densities: Sequence[float] = (0.1,)
    workload: str = "random"
    seeds: Sequence[int] = (0,)

    def validate(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; have {sorted(WORKLOADS)}"
            )
        for engine in self.engines:
            if engine not in ENGINES:
                raise ValueError(f"unknown engine {engine!r}; have {ENGINES}")
        if not self.sizes:
            raise ValueError("sizes must be non-empty")

    @property
    def run_count(self) -> int:
        return (len(self.sizes) * len(self.engines) * len(self.densities)
                * len(self.seeds))


@dataclass
class RunRecord:
    """One (engine, workload-instance) execution's outcome."""

    sweep: str
    engine: str
    workload: str
    n: int
    density: float
    seed: int
    seconds: float
    correct: bool
    generations: Optional[int] = None
    work: Optional[int] = None
    peak_congestion: Optional[int] = None
    batch_size: Optional[int] = None
    #: Undirected edge count (recorded by sparse sweeps, where density is
    #: a derived quantity rather than a grid parameter).
    m: Optional[int] = None
    #: The engine ``"auto"`` dispatched to (sparse sweeps only).
    resolved_engine: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)


def _run_cell(args: Tuple[SweepSpec, int, float]) -> List[RunRecord]:
    """Execute one (n, density) grid cell: every seed on every engine.

    Top-level (rather than a closure) so ``jobs=N`` can ship cells to a
    :class:`~concurrent.futures.ProcessPoolExecutor`.
    """
    spec, n, density = args
    instances = []
    for seed in spec.seeds:
        graph = WORKLOADS[spec.workload](n, density, seed)
        instances.append((seed, graph, canonical_labels(graph)))
    records: List[RunRecord] = []
    for engine in spec.engines:
        if engine == "batched":
            graphs = [graph for _, graph, _ in instances]
            start = time.perf_counter()
            result = BatchedGCA(graphs).run()
            elapsed = time.perf_counter() - start
            generations = result.generations_run()
            for slot, (seed, graph, oracle) in enumerate(instances):
                records.append(
                    RunRecord(
                        sweep=spec.name,
                        engine=engine,
                        workload=spec.workload,
                        n=graph.n,
                        density=density,
                        seed=seed,
                        seconds=elapsed / len(instances),
                        correct=bool(
                            np.array_equal(result.labels[slot], oracle)
                        ),
                        generations=int(generations[slot]),
                        batch_size=result.batch_size,
                    )
                )
            continue
        for seed, graph, oracle in instances:
            start = time.perf_counter()
            result = _run_engine(engine, graph)
            elapsed = time.perf_counter() - start
            records.append(
                RunRecord(
                    sweep=spec.name,
                    engine=engine,
                    workload=spec.workload,
                    n=graph.n,
                    density=density,
                    seed=seed,
                    seconds=elapsed,
                    correct=bool(np.array_equal(result["labels"], oracle)),
                    generations=result["generations"],
                    work=result["work"],
                    peak_congestion=result["peak_congestion"],
                )
            )
    return records


def run_sweep(spec: SweepSpec, jobs: int = 1) -> List[RunRecord]:
    """Execute the sweep grid; every run is oracle-verified.

    Parameters
    ----------
    spec:
        The declarative grid.
    jobs:
        Number of worker processes.  ``1`` (default) runs in-process;
        ``N > 1`` distributes the (n, density) grid cells over a
        :class:`~concurrent.futures.ProcessPoolExecutor` (record order is
        preserved; timings then reflect a loaded machine).
    """
    spec.validate()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cells = [(spec, n, density) for n in spec.sizes for density in spec.densities]
    if jobs == 1 or len(cells) == 1:
        parts = [_run_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            parts = list(pool.map(_run_cell, cells))
    return [record for part in parts for record in part]


# ----------------------------------------------------------------------
# sparse sweeps over shared memory
# ----------------------------------------------------------------------

#: Engines selectable in sparse sweeps (all consume an
#: :class:`~repro.hirschberg.edgelist.EdgeListGraph` directly).
SPARSE_ENGINES = ("edgelist", "contracting", "auto")


@dataclass(frozen=True)
class SparseSweepSpec:
    """A sweep grid over sparse random edge lists.

    Workload instances are ``random_edge_list(n, round(edge_factor * n))``
    graphs; ``edge_factor`` replaces the dense grid's density axis
    because at sparse scale ``m/n`` -- not ``m / (n choose 2)`` -- is the
    knob that stays meaningful as ``n`` grows.
    """

    name: str
    sizes: Sequence[int]
    edge_factors: Sequence[float] = (2.0,)
    engines: Sequence[str] = ("edgelist", "contracting")
    seeds: Sequence[int] = (0,)
    #: Largest ``n`` still verified against the union-find oracle; above
    #: it the engines are cross-checked against each other instead (the
    #: Python-loop oracle would dominate the sweep's wall clock).
    oracle_max_n: int = 50_000

    def validate(self) -> None:
        for engine in self.engines:
            if engine not in SPARSE_ENGINES:
                raise ValueError(
                    f"unknown sparse engine {engine!r}; have {SPARSE_ENGINES}"
                )
        if not self.sizes:
            raise ValueError("sizes must be non-empty")
        if not self.engines:
            raise ValueError("engines must be non-empty")
        for factor in self.edge_factors:
            if factor < 0:
                raise ValueError(f"edge_factor must be >= 0, got {factor}")

    @property
    def run_count(self) -> int:
        return (len(self.sizes) * len(self.edge_factors) * len(self.engines)
                * len(self.seeds))


def _run_sparse_task(
    task: Tuple[str, SharedEdgeListRef, SharedArrayRef]
) -> Dict[str, object]:
    """Execute one (engine, shared graph) run inside a worker process.

    Attaches zero-copy views of the parent's edge arrays, solves, writes
    the label vector into the pre-allocated shared slot, and returns only
    scalars -- no array crosses the process boundary in either direction.
    Top-level so ``jobs=N`` can ship it to a ProcessPoolExecutor.
    """
    engine, graph_ref, labels_ref = task
    graph, handles = attach_edge_list(graph_ref)
    out = SharedArray.attach(labels_ref)
    try:
        start = time.perf_counter()
        if engine == "edgelist":
            labels = connected_components_edgelist(graph).labels
            resolved = engine
        elif engine == "contracting":
            labels = connected_components_contracting(graph).labels
            resolved = engine
        elif engine == "auto":
            from repro.core.api import connected_components

            res = connected_components(graph, engine="auto")
            labels, resolved = res.labels, res.method
        else:
            raise ValueError(f"unknown sparse engine {engine!r}")
        elapsed = time.perf_counter() - start
        out.array[...] = labels
    finally:
        out.close()
        for handle in handles:
            handle.close()
    return {"engine": engine, "resolved": resolved, "seconds": elapsed}


def run_sparse_sweep(spec: SparseSweepSpec, jobs: int = 1) -> List[RunRecord]:
    """Execute a sparse sweep; every run is verified.

    The parent generates each workload once and publishes it in shared
    memory; workers (``jobs > 1``) attach zero-copy views and deposit
    their label vectors in shared result slots.  Verification happens in
    the parent while the blocks are still mapped: against the union-find
    oracle up to ``spec.oracle_max_n``, by cross-engine agreement (first
    engine in ``spec.engines`` is the baseline) beyond it.
    """
    spec.validate()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    instances = []
    for n in spec.sizes:
        for factor in spec.edge_factors:
            for seed in spec.seeds:
                graph = random_edge_list(
                    n, max(0, int(round(factor * n))), seed=seed
                )
                instances.append((seed, graph))
    records: List[RunRecord] = []
    with SharedWorkspace() as workspace:
        tasks = []
        slots = []
        for idx, (_seed, graph) in enumerate(instances):
            graph_ws, graph_ref = share_edge_list(graph)
            workspace.blocks.extend(graph_ws.blocks)
            for engine in spec.engines:
                slot = workspace.zeros((graph.n,), np.int64)
                tasks.append((engine, graph_ref, slot.ref))
                slots.append((idx, engine, slot))
        if jobs == 1 or len(tasks) == 1:
            outcomes = [_run_sparse_task(task) for task in tasks]
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
                outcomes = list(pool.map(_run_sparse_task, tasks))

        oracles: Dict[int, np.ndarray] = {}
        baselines: Dict[int, np.ndarray] = {}
        for (idx, engine, slot), outcome in zip(slots, outcomes):
            seed, graph = instances[idx]
            labels = slot.array
            if graph.n <= spec.oracle_max_n:
                if idx not in oracles:
                    uf = UnionFind(graph.n)
                    us, vs = graph.pairs()
                    for u, v in zip(us.tolist(), vs.tolist()):
                        uf.union(u, v)
                    oracles[idx] = uf.canonical_labels()
                correct = bool(np.array_equal(labels, oracles[idx]))
            else:
                baseline = baselines.setdefault(idx, labels.copy())
                correct = bool(np.array_equal(labels, baseline))
            records.append(
                RunRecord(
                    sweep=spec.name,
                    engine=engine,
                    workload="sparse-random",
                    n=graph.n,
                    density=graph.edge_count / max(1, graph.n * (graph.n - 1) // 2),
                    seed=seed,
                    seconds=float(outcome["seconds"]),
                    correct=correct,
                    m=graph.edge_count,
                    resolved_engine=str(outcome["resolved"]),
                )
            )
    return records


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def dumps_records(records: Sequence[RunRecord]) -> str:
    """Serialise records to a JSON document."""
    return json.dumps([r.to_dict() for r in records], indent=2)


def loads_records(text: str) -> List[RunRecord]:
    """Parse records written by :func:`dumps_records`."""
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError("expected a JSON list of run records")
    return [RunRecord(**entry) for entry in raw]


def save_records(records: Sequence[RunRecord], path: PathLike) -> None:
    Path(path).write_text(dumps_records(records))


def load_records(path: PathLike) -> List[RunRecord]:
    return loads_records(Path(path).read_text())


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def summarize(records: Sequence[RunRecord]) -> List[List[object]]:
    """Aggregate to rows ``[engine, n, runs, median_ms, all_correct,
    generations]`` sorted by engine then n."""
    groups: Dict[tuple, List[RunRecord]] = {}
    for r in records:
        groups.setdefault((r.engine, r.n), []).append(r)
    rows = []
    for (engine, n), group in sorted(groups.items()):
        times = sorted(r.seconds for r in group)
        median = times[len(times) // 2]
        gens = {r.generations for r in group if r.generations is not None}
        rows.append([
            engine, n, len(group), round(median * 1e3, 3),
            all(r.correct for r in group),
            sorted(gens)[0] if len(gens) == 1 else (sorted(gens) if gens else "-"),
        ])
    return rows
