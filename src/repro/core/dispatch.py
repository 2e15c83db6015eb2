"""Adaptive engine dispatch from a small measured cost model.

``engine="auto"`` chooses among five interchangeable engines for the
same labelling -- the cell-accurate interpreter, the fused vectorised
field, the stacked batched field, the contracting sparse variant and
the sharded out-of-core variant -- and the right one depends on the
workload: ``n``, the edge count, the batch size and how much memory the
engine's working set may claim.  This module centralises that decision
so every caller (``engine="auto"`` in :mod:`repro.core.api`, the serve
planner, the CLI, the sweep harness) picks the same way.

The model is deliberately small: a handful of per-unit constants
(seconds per cell-generation, per contracted vertex and edge, per
engine-internal NumPy dispatch, ...) measured on the reference
development box (see ``benchmarks/bench_sparse_scaling.py``), combined
with the paper's closed-form schedule length ``1 + log n (3 log n + 8)``.
It only has to be right about *tiers*, not percent-level differences;
:func:`calibrate` re-measures the constants for callers on very
different hardware.

The measured verdict is itself a result worth recording: for a *single*
graph the contracting engine wins the wall clock everywhere -- even at
50% density it beats the dense field by an order of magnitude, because
the field pays ``Theta(n^2)`` cells for every one of the
``1 + log n (3 log n + 8)`` generations while contraction pays
``O(n + m)`` per level on a shrinking problem.  The dense engines'
regions are therefore *capability* regions, not speed regions: the
interpreter is dispatched when congestion instrumentation is required
(``require_instrumentation=True``), and the vectorised/batched field
engines remain the reproduction of the paper's architecture (and the
batched engine the fastest *field* path for many-graph workloads).  The
scatter edge-list engine and the chunk-parallel Liu--Tarjan engine are
not priced at all: on a 2-core host contracting beat edge-list at every
measured point from ``n = 32`` to ``n = 10^6``, and beat the pooled
parallel engine at ``n = 10^6, m = 5 * 10^6`` (EXPERIMENTS.md, E26).
Both stay selectable by name (``engine="edgelist"``,
``engine="parallel"``).

>>> choose_engine(4, 3, require_instrumentation=True)
'interpreter'
>>> choose_engine(512, 60_000)           # mid-size, dense-ish
'contracting'
>>> choose_engine(8, 12, batch_size=64)  # many tiny dense graphs
'batched'
>>> choose_engine(2_000_000, 6_000_000)  # large sparse
'contracting'

The **memory dimension**: every engine's predicted resident working set
(:func:`predict_memory`) is compared against the model's byte budget,
and engines that would not fit are priced infeasible.  The sharded
out-of-core engine bounds its resident set to the budget by
construction, so it is always feasible -- it is the engine of last
resort when the edge list outgrows RAM:

>>> tight = CostModel(memory_budget=float(1 << 30))
>>> choose_engine(50_000_000, 1_000_000_000, model=tight)
'sharded'

``engine="auto"`` in :mod:`repro.core.api` sizes that budget from a
live probe of the host's available memory
(:func:`probe_available_memory`) instead of the shipped default.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Dict, Optional, Union

from repro.util.intmath import ceil_log2

#: Engines the dispatcher selects between (in stable tie-break order;
#: the out-of-core engine comes last so an in-RAM engine wins any tie).
DISPATCHABLE = (
    "contracting", "batched", "vectorized", "interpreter", "sharded",
)


def _schedule_generations(n: int) -> int:
    """The paper's total generation count ``1 + log n (3 log n + 8)``."""
    log_n = ceil_log2(max(n, 2))
    return 1 + log_n * (3 * log_n + 8)


@dataclass(frozen=True)
class CostModel:
    """Measured per-unit costs (seconds) and memory parameters.

    The defaults were measured on the reference development machine
    (NumPy 2.x, single core); :func:`calibrate` refreshes them in a few
    hundred milliseconds on the current host.
    """

    #: interpreter: seconds per cell per generation (Python cell objects).
    interpreter_cell_gen: float = 4.5e-6
    #: vectorised engine: fixed NumPy dispatch cost per generation...
    vectorized_gen_dispatch: float = 4.5e-6
    #: ...plus per cell per generation on the fused kernels.
    vectorized_cell_gen: float = 4.5e-10
    #: batched engine: per cell per generation; the per-generation
    #: dispatch is shared by the whole batch.
    batched_cell_gen: float = 4.0e-10
    #: contracting engine: per (vertex + directed edge) unit...
    contracting_unit: float = 6.0e-8
    #: ...times this effective level count (the active problem shrinks
    #: geometrically, so the level series sums to a small constant)...
    contracting_levels: float = 2.5
    #: ...plus the fixed dispatch cost of one contraction level.
    contracting_level_dispatch: float = 1.0e-5
    #: fixed per-request overhead of one full ``connected_components``
    #: call (validation, graph conversion, result assembly) -- what a
    #: *solo* request pays on top of the raw engine kernels.  Batched
    #: execution pays it once per batch; the serve scheduler uses the
    #: difference for its batch-vs-solo decision.
    request_overhead: float = 2.5e-5
    #: one round trip through the serve layer's persistent process pool
    #: (slab write, queue hop, worker attach, result hop).  The serve
    #: scheduler ships a flush to the pool only when its predicted batch
    #: seconds dominate this term, so small batches stay inline.  The
    #: default is a conservative placeholder; a running
    #: :class:`~repro.serve.executor.PoolExecutor` replaces it with the
    #: round trip it *measured* during warm-up on this host.
    pool_dispatch_overhead: float = 2.0e-3
    #: sharded out-of-core engine: seconds per undirected edge across
    #: partition IO, per-shard contraction and the boundary merge.
    sharded_edge: float = 7.5e-7
    #: fixed overhead of one sharded run (shard files, plan, pool
    #: spin-up) -- keeps small graphs away from the disk path.
    sharded_overhead: float = 0.5
    #: dense field footprint per cell (double-buffered field + adjacency).
    dense_bytes_per_cell: float = 48.0
    #: interpreter footprint per cell (a Python object per cell).
    interpreter_bytes_per_cell: float = 800.0
    #: in-RAM sparse engines: resident bytes per directed edge (edge
    #: arrays plus sort/dedup/CSR temporaries, measured envelope).
    sparse_bytes_per_edge: float = 80.0
    #: ...plus resident bytes per vertex (label/pointer arrays).
    sparse_bytes_per_node: float = 48.0
    #: bytes an engine's working set may claim before it is infeasible.
    memory_budget: float = float(2 << 30)


#: The shipped defaults.
DEFAULT_COST_MODEL = CostModel()


def probe_available_memory(default: Optional[int] = None) -> int:
    """Bytes of memory the host can spare right now.

    Reads ``MemAvailable`` from ``/proc/meminfo`` (the kernel's estimate
    of allocatable memory without swapping).  On platforms without it,
    returns ``default`` when given, else the shipped budget -- the probe
    must never make dispatch fail, only make it better informed.
    """
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    if default is not None:
        return int(default)
    return int(DEFAULT_COST_MODEL.memory_budget)


def predict_memory(
    n: int, m: int, batch_size: int = 1, model: Optional[CostModel] = None
) -> Dict[str, float]:
    """Predicted resident working set in bytes for every engine.

    The dense engines pay per cell, the contracting engine per vertex
    and directed edge, and the sharded out-of-core engine clamps its
    resident set to the model's budget by construction (its capacity
    grows with disk, not RAM) -- so its entry is the smaller of the
    in-RAM footprint and the budget.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    model = model or DEFAULT_COST_MODEL
    cells = n * (n + 1)
    sparse = (
        n * model.sparse_bytes_per_node
        + 2 * m * model.sparse_bytes_per_edge
    )
    return {
        "interpreter": cells * model.interpreter_bytes_per_cell,
        "vectorized": cells * model.dense_bytes_per_cell,
        "batched": cells * model.dense_bytes_per_cell * batch_size,
        "contracting": sparse,
        "sharded": min(sparse, model.memory_budget),
    }


def predict_costs(
    n: int, m: int, batch_size: int = 1, model: Optional[CostModel] = None
) -> Dict[str, float]:
    """Predicted seconds per graph for every engine (infeasible ones get
    ``inf``).

    Parameters
    ----------
    n, m:
        Vertex count and *undirected* edge count of one graph.
    batch_size:
        How many same-size graphs the caller will solve per call; only
        the batched engine amortises over it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    model = model or DEFAULT_COST_MODEL

    cells = n * (n + 1)
    gens = _schedule_generations(n)
    m_directed = 2 * m

    costs: Dict[str, float] = {}
    memory = predict_memory(n, m, batch_size=batch_size, model=model)
    fits = {
        name: bytes_needed <= model.memory_budget
        for name, bytes_needed in memory.items()
    }

    costs["interpreter"] = (
        cells * gens * model.interpreter_cell_gen
        if fits["interpreter"] else float("inf")
    )
    costs["vectorized"] = (
        gens * (model.vectorized_gen_dispatch + cells * model.vectorized_cell_gen)
        if fits["vectorized"] else float("inf")
    )
    costs["batched"] = (
        gens * (model.vectorized_gen_dispatch / batch_size
                + cells * model.batched_cell_gen)
        if batch_size > 1 and fits["batched"] else float("inf")
    )
    costs["contracting"] = (
        model.contracting_levels * (
            model.contracting_level_dispatch
            + (n + m_directed) * model.contracting_unit
        )
        if fits["contracting"] else float("inf")
    )
    # The out-of-core engine is always feasible: its resident set is
    # clamped to the budget by construction.  Its constants price the
    # disk round trips, so it only wins when nothing in-RAM fits.
    costs["sharded"] = model.sharded_overhead + m * model.sharded_edge
    return costs


def choose_engine(
    n: int,
    m: int,
    batch_size: int = 1,
    model: Optional[CostModel] = None,
    require_instrumentation: bool = False,
) -> str:
    """The cheapest feasible engine for ``batch_size`` graphs of shape
    ``(n, m)`` under ``model`` (defaults to the shipped measurements).

    ``require_instrumentation=True`` restricts the choice to the
    cell-accurate interpreter (the only engine with congestion
    instrumentation); it raises ``ValueError`` when the interpreter's
    per-cell Python objects would not fit the memory budget.
    """
    costs = predict_costs(n, m, batch_size=batch_size, model=model)
    if require_instrumentation:
        if costs["interpreter"] == float("inf"):
            raise ValueError(
                f"interpreter infeasible for n={n} under the memory budget"
            )
        return "interpreter"
    return min(DISPATCHABLE, key=lambda name: (costs[name], DISPATCHABLE.index(name)))


def explain_choice(
    n: int, m: int, batch_size: int = 1, model: Optional[CostModel] = None
) -> Dict[str, object]:
    """The decision plus its inputs -- for ``--method auto`` CLI output
    and for auditing dispatch decisions in tests/benchmarks."""
    model = model or DEFAULT_COST_MODEL
    costs = predict_costs(n, m, batch_size=batch_size, model=model)
    return {
        "n": n,
        "m": m,
        "batch_size": batch_size,
        "predicted_seconds": costs,
        "memory": {
            "budget_bytes": model.memory_budget,
            "predicted_bytes": predict_memory(
                n, m, batch_size=batch_size, model=model
            ),
        },
        "feasible": sorted(k for k, v in costs.items() if v != float("inf")),
        "choice": choose_engine(n, m, batch_size=batch_size, model=model),
    }


def calibrate(
    model: Optional[CostModel] = None, seconds_budget: float = 1.0
) -> CostModel:
    """Re-measure the per-unit constants on the current host.

    Runs a few tiny workloads per engine (bounded by ``seconds_budget``
    overall on a typical machine) and returns a :class:`CostModel` with
    the measured constants; memory parameters are kept from ``model``.
    """
    # Imported here: dispatch sits below the engines in the layering.
    from repro.core.vectorized import run_vectorized
    from repro.core.machine import connected_components_interpreter
    from repro.graphs.generators import random_graph
    from repro.hirschberg.contracting import connected_components_contracting
    from repro.hirschberg.edgelist import random_edge_list

    base = model or DEFAULT_COST_MODEL
    deadline = time.perf_counter() + seconds_budget

    def timed(fn) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
            if time.perf_counter() > deadline:
                break
        return best

    n_i = 8
    g = random_graph(n_i, 0.3, seed=0)
    interp = timed(lambda: connected_components_interpreter(g)) / (
        n_i * (n_i + 1) * _schedule_generations(n_i)
    )

    g_small, g_big = random_graph(8, 0.3, seed=0), random_graph(96, 0.1, seed=0)
    t_small = timed(lambda: run_vectorized(g_small))
    t_big = timed(lambda: run_vectorized(g_big))
    per_gen_small = t_small / _schedule_generations(8)
    per_gen_big = t_big / _schedule_generations(96)
    cells_small, cells_big = 8 * 9, 96 * 97
    cell_gen = max(
        (per_gen_big - per_gen_small) / (cells_big - cells_small), 1e-12
    )
    dispatch = max(per_gen_small - cells_small * cell_gen, 1e-9)

    g_tiny = random_edge_list(16, 24, seed=0)
    c_dispatch = timed(lambda: connected_components_contracting(g_tiny)) / (
        base.contracting_levels
    )

    # full-API call on a tiny dense input vs the raw engine on a
    # pre-built edge list: the difference is the per-request overhead
    # (validation, dense -> sparse conversion, result assembly).
    from repro.core.api import connected_components
    from repro.hirschberg.edgelist import EdgeListGraph

    g8 = random_graph(8, 0.3, seed=1)
    e8 = EdgeListGraph.from_adjacency(g8)
    t_full = timed(lambda: connected_components(g8, engine="contracting"))
    t_raw = timed(lambda: connected_components_contracting(e8))
    overhead = max(t_full - t_raw, 1e-9)

    ge = random_edge_list(20_000, 40_000, seed=0)
    contract = max(
        timed(lambda: connected_components_contracting(ge))
        / base.contracting_levels - c_dispatch,
        1e-9,
    ) / (ge.n + ge.src.size)

    return replace(
        base,
        interpreter_cell_gen=interp,
        vectorized_gen_dispatch=dispatch,
        vectorized_cell_gen=cell_gen,
        batched_cell_gen=cell_gen,
        contracting_unit=contract,
        contracting_level_dispatch=c_dispatch,
        request_overhead=overhead,
    )


# ----------------------------------------------------------------------
# cost-model persistence
# ----------------------------------------------------------------------
#: Bumped whenever the :class:`CostModel` schema changes incompatibly;
#: cache files with a different version are silently ignored.
_CACHE_VERSION = 2


def host_fingerprint() -> Dict[str, object]:
    """What the calibration constants were measured *on*.

    A calibration file carried to a different machine -- or the same
    image booted with a different core count -- would silently misprice
    the pool dispatch term, so the cache is keyed by the facts that term
    depends on: logical CPU count, architecture and OS.
    """
    import platform

    return {
        "cpu_count": int(os.cpu_count() or 1),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def default_cache_path() -> Path:
    """Where :func:`cached_cost_model` persists calibration results.

    ``$REPRO_CACHE_DIR/costmodel.json`` when the variable is set (tests
    and hermetic builds), else ``$XDG_CACHE_HOME/repro/costmodel.json``,
    else ``~/.cache/repro/costmodel.json``.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override) / "costmodel.json"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "costmodel.json"


def save_cost_model(
    model: CostModel, path: Union[str, Path, None] = None
) -> Path:
    """Persist ``model`` as JSON at ``path`` (default cache location)."""
    path = Path(path) if path is not None else default_cache_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": _CACHE_VERSION,
        "saved_at": time.time(),
        "host": host_fingerprint(),
        "constants": asdict(model),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_cost_model(
    path: Union[str, Path, None] = None
) -> Optional[CostModel]:
    """The :class:`CostModel` cached at ``path``, or ``None``.

    Returns ``None`` when the file is missing, unparsable, from a
    different schema version, measured on a different host (see
    :func:`host_fingerprint` -- a cache carried to a different core
    count must recalibrate, not misprice pool dispatch), or holds
    non-numeric constants -- a stale cache must never break startup,
    only trigger recalibration.  Constants the :class:`CostModel` no
    longer has are ignored, so a cache written before a field was
    removed still loads.
    """
    path = Path(path) if path is not None else default_cache_path()
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != _CACHE_VERSION:
        return None
    if payload.get("host") != host_fingerprint():
        return None
    constants = payload.get("constants")
    if not isinstance(constants, dict):
        return None
    known = {f.name for f in fields(CostModel)}
    kept = {
        k: float(v)
        for k, v in constants.items()
        if k in known and isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    return replace(DEFAULT_COST_MODEL, **kept)


def cached_cost_model(
    path: Union[str, Path, None] = None,
    recalibrate: bool = False,
    seconds_budget: float = 1.0,
) -> CostModel:
    """The host's calibrated :class:`CostModel`, measured at most once.

    Loads the cache written by a previous call (so server startup and
    repeated CLI runs don't re-measure); on a miss -- or with
    ``recalibrate=True``, the escape hatch after a hardware change --
    runs :func:`calibrate` and persists the result.
    """
    if not recalibrate:
        cached = load_cost_model(path)
        if cached is not None:
            return cached
    model = calibrate(seconds_budget=seconds_budget)
    save_cost_model(model, path)
    return model
