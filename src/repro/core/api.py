"""The top-level convenience API of the library.

Most users want one call::

    from repro import connected_components
    result = connected_components(graph)     # engine="auto"
    result.labels          # node -> component representative (minimum index)
    result.components()    # the components as node lists

``engine`` selects the execution engine:

* ``"auto"`` (default for :func:`connected_components`) -- the rule
  table in :mod:`repro.core.dispatch`: ``"contracting"``, or
  ``"sharded"`` when its working set would not fit the memory budget;
* ``"vectorized"`` -- whole-array NumPy execution over the dense field;
* ``"batched"`` -- the stacked batched field (one graph here; shines on
  many graphs via :func:`repro.core.batched.connected_components_batch`);
* ``"edgelist"`` -- the work-efficient ``O((n + m) log n)`` sparse
  variant (selectable by name only; ``"auto"`` never picks it);
* ``"contracting"`` -- the contracting sparse variant: every outer
  iteration relabels supervertices and drops settled edges, so iteration
  ``t`` runs on the surviving ``(n_t, m_t)`` only (fastest at every
  measured scale, and ``"auto"``'s choice whenever it fits in memory);
* ``"parallel"`` -- the chunk-parallel Liu--Tarjan/FastSV engine:
  synchronous hook/combine/jump label-propagation rounds whose phases
  fan out across a pre-forked shared-memory worker pool when
  ``kernel_workers > 1`` (serial through the same kernels otherwise);
  selectable by name only -- contracting beat it on every measured
  host, so ``"auto"`` never picks it;
* ``"sharded"`` -- the out-of-core engine: the edge list is partitioned
  into disk-backed shards, each solved by the contracting engine under a
  bounded memory budget, and the per-shard label frontiers merged with a
  log-step label-propagation pass (capacity bounded by disk, not RAM;
  ``engine="auto"`` routes here when the estimated working set exceeds
  the host's available memory);
* ``"interpreter"`` -- the cell-accurate engine with full congestion
  instrumentation (slow; use for measurement, small ``n``);
* ``"reference"`` -- the plain data-parallel Listing-1 program (no GCA
  field; the specification the others are validated against);
* ``"pram"`` -- the Listing-1 program on the access-checked PRAM simulator.

:func:`gca_connected_components` is the historical entry point; its
``method=`` is the same selector (default ``"vectorized"``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.core.dispatch import (
    DEFAULT_COST_MODEL,
    CostModel,
    choose_engine,
    probe_available_memory,
)
from repro.core.machine import connected_components_interpreter
from repro.core.vectorized import run_vectorized
from repro.graphs.adjacency import AdjacencyMatrix
from repro.hirschberg.contracting import connected_components_contracting
from repro.hirschberg.edgelist import EdgeListGraph, connected_components_edgelist
from repro.hirschberg.pram_impl import hirschberg_on_pram
from repro.hirschberg.reference import hirschberg_reference

GraphLike = Union[AdjacencyMatrix, np.ndarray, EdgeListGraph]

_METHODS = (
    "auto", "vectorized", "batched", "edgelist", "contracting",
    "parallel", "sharded", "interpreter", "reference", "pram",
)

#: Engines that need the dense adjacency field.
_DENSE_METHODS = ("vectorized", "batched", "interpreter", "reference", "pram")

#: Largest ``n`` for which an :class:`EdgeListGraph` input is silently
#: densified when a dense engine is requested explicitly.
_DENSE_CONVERT_LIMIT = 8192


@dataclass
class ComponentsResult:
    """Result of a connected-components run.

    Attributes
    ----------
    labels:
        ``labels[i]`` is the representative (minimum node index) of node
        ``i``'s component -- the paper's super-node convention.
    method:
        The engine that produced the result.
    detail:
        The engine-specific result object (``VectorizedResult``,
        ``InterpreterResult``, ``ReferenceResult``, ``PRAMRunResult``,
        ``EdgeListResult``, ``ContractingResult``, ``ParallelResult``,
        ``ShardedResult`` or ``BatchedResult``) for callers that need
        instrumentation data.
    requested_method:
        What the caller asked for; differs from ``method`` only for
        ``"auto"``, where ``method`` records the dispatched engine.
    """

    labels: np.ndarray
    method: str
    detail: object
    requested_method: Optional[str] = None

    @property
    def n(self) -> int:
        """Number of nodes."""
        return int(self.labels.shape[0])

    @property
    def component_count(self) -> int:
        """Number of connected components."""
        return int(np.unique(self.labels).size)

    def components(self) -> List[List[int]]:
        """The components as sorted node lists, ordered by representative."""
        groups: dict = {}
        for node, label in enumerate(self.labels.tolist()):
            groups.setdefault(label, []).append(node)
        return [sorted(groups[k]) for k in sorted(groups)]

    def same_component(self, a: int, b: int) -> bool:
        """Whether nodes ``a`` and ``b`` are connected."""
        return bool(self.labels[a] == self.labels[b])


def _to_adjacency(graph: GraphLike) -> AdjacencyMatrix:
    """Densify for the field engines (guarded for edge-list inputs)."""
    if isinstance(graph, AdjacencyMatrix):
        return graph
    if isinstance(graph, EdgeListGraph):
        if graph.n > _DENSE_CONVERT_LIMIT:
            raise ValueError(
                f"cannot densify an EdgeListGraph with n={graph.n} "
                f"(> {_DENSE_CONVERT_LIMIT}) for a dense engine; use "
                f"engine='edgelist', 'contracting' or 'auto'"
            )
        matrix = np.zeros((graph.n, graph.n), dtype=np.int64)
        matrix[graph.src, graph.dst] = 1
        return AdjacencyMatrix(matrix)
    return AdjacencyMatrix(np.asarray(graph))


def _to_edge_list(graph: GraphLike) -> EdgeListGraph:
    if isinstance(graph, EdgeListGraph):
        return graph
    g = graph if isinstance(graph, AdjacencyMatrix) else AdjacencyMatrix(np.asarray(graph))
    return EdgeListGraph.from_adjacency(g)


#: Lazily probed cost model for ``engine="auto"``: the shipped defaults
#: with the memory budget replaced by the host's available memory
#: (probed once per process; pass ``cost_model=`` to override).
_PROBED_MODEL: Optional[CostModel] = None


def _probed_cost_model() -> CostModel:
    global _PROBED_MODEL
    if _PROBED_MODEL is None:
        from dataclasses import replace

        _PROBED_MODEL = replace(
            DEFAULT_COST_MODEL,
            memory_budget=float(probe_available_memory()),
        )
    return _PROBED_MODEL


#: Process-global worker pool for ``engine="parallel"``: forked once on
#: first use (keyed by worker count; a different request replaces it),
#: reused by every later parallel solve, torn down by the executor's
#: ``atexit`` hook.  ``None`` entries never exist -- 1-worker requests
#: run inline and skip the pool entirely.
_KERNEL_POOL: Optional[tuple] = None
_KERNEL_POOL_LOCK = threading.Lock()


def _kernel_pool(workers: int):
    global _KERNEL_POOL
    with _KERNEL_POOL_LOCK:
        if _KERNEL_POOL is not None and _KERNEL_POOL[0] == workers:
            return _KERNEL_POOL[1]
        from repro.serve.executor import PoolExecutor

        if _KERNEL_POOL is not None:
            _KERNEL_POOL[1].shutdown()
        pool = PoolExecutor(workers=workers, calibrate=False).start()
        _KERNEL_POOL = (workers, pool)
        return pool


def _graph_shape(graph: GraphLike):
    """Cheap ``(n, m)`` for the dispatcher, any input kind."""
    if isinstance(graph, EdgeListGraph):
        return graph.n, graph.edge_count
    g = graph if isinstance(graph, AdjacencyMatrix) else AdjacencyMatrix(np.asarray(graph))
    return g.n, g.edge_count


def connected_components(
    graph: GraphLike,
    engine: str = "auto",
    iterations: Optional[int] = None,
    early_exit: bool = False,
    cost_model: Optional[CostModel] = None,
    sanitize: bool = False,
    shards: Optional[int] = None,
    memory_budget: Optional[int] = None,
    variant: Optional[str] = None,
    kernel_workers: Optional[int] = None,
) -> ComponentsResult:
    """Compute the connected components of ``graph``.

    Parameters
    ----------
    graph:
        An :class:`~repro.graphs.adjacency.AdjacencyMatrix`, a square
        symmetric 0/1 array, or a sparse
        :class:`~repro.hirschberg.edgelist.EdgeListGraph`.
    engine:
        One of ``"auto"``, ``"vectorized"``, ``"batched"``,
        ``"edgelist"``, ``"contracting"``, ``"parallel"``,
        ``"sharded"``, ``"interpreter"``, ``"reference"``, ``"pram"``
        (see module docstring).  ``"auto"`` dispatches on ``(n, m)`` via
        :func:`repro.core.dispatch.choose_engine`.
    iterations:
        Override the outer-iteration count (default ``ceil(log2 n)``;
        for the contracting engine this caps the contraction levels).
    early_exit:
        Stop at the label fixed point instead of running the full
        schedule.  Supported by the vectorised engine only; with
        ``engine="auto"`` this forces the vectorised engine.
    cost_model:
        Override the :class:`~repro.core.dispatch.CostModel` used by
        ``"auto"``.  When omitted, ``"auto"`` uses the shipped constants
        with the memory budget set from a live probe of the host's
        available memory, so workloads whose working set exceeds what
        this machine can hold route to the sharded out-of-core engine.
    shards, memory_budget:
        Tuning knobs for the sharded engine (shard count override and
        resident byte budget); ignored by every other engine.  See
        :func:`repro.hirschberg.sharded.connected_components_sharded`.
    variant, kernel_workers:
        Tuning knobs for ``engine="parallel"``: the update rule
        (``"sv"``, ``"fastsv"`` (default), ``"stochastic"``) and how
        many pool workers to fan the rounds out on (default 1, the
        inline serial-kernel path); ignored by every other engine,
        ``"auto"`` included.  See
        :func:`repro.hirschberg.parallel.connected_components_parallel`.
    sanitize:
        Run under the CROW write-barrier engine
        (:class:`repro.check.sanitizer.SanitizedAutomaton`): every
        cross-cell write raises at the offending store and the read
        accounting is independently cross-checked.  Implies the
        interpreter engine (only ``engine="auto"`` or
        ``engine="interpreter"`` is accepted); slow -- use for
        validation at small ``n``.

    Returns
    -------
    ComponentsResult
    """
    if engine not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {engine!r}")
    requested = engine
    if sanitize:
        if engine not in ("auto", "interpreter"):
            raise ValueError(
                "sanitize=True runs on the write-barrier interpreter; "
                f"engine must be 'auto' or 'interpreter', got {engine!r}"
            )
        engine = "interpreter"
    n, m = _graph_shape(graph)
    if n == 0:
        # The empty graph has no components; every engine agrees trivially
        # and none of the field machinery needs to be built.
        return ComponentsResult(
            labels=np.empty(0, dtype=np.int64),
            method="vectorized" if engine == "auto" else engine,
            detail=None,
            requested_method=requested,
        )
    if engine == "auto":
        if early_exit:
            engine = "vectorized"
        else:
            model = cost_model if cost_model is not None else _probed_cost_model()
            engine = choose_engine(n, m, model=model)
    if early_exit and engine != "vectorized":
        raise ValueError(
            f"early_exit is only supported by the vectorized engine, "
            f"not {engine!r}"
        )

    if engine == "vectorized":
        detail = run_vectorized(
            _to_adjacency(graph), iterations=iterations, early_exit=early_exit
        )
        labels = detail.labels
    elif engine == "batched":
        from repro.core.batched import BatchedGCA

        detail = BatchedGCA([_to_adjacency(graph)], iterations=iterations).run()
        labels = detail.labels[0]
    elif engine == "edgelist":
        detail = connected_components_edgelist(
            _to_edge_list(graph), iterations=iterations
        )
        labels = detail.labels
    elif engine == "contracting":
        detail = connected_components_contracting(
            _to_edge_list(graph), max_levels=iterations
        )
        labels = detail.labels
    elif engine == "parallel":
        from repro.hirschberg.parallel import connected_components_parallel

        if kernel_workers is not None and kernel_workers < 1:
            raise ValueError(
                f"kernel_workers must be >= 1, got {kernel_workers}"
            )
        workers = kernel_workers if kernel_workers is not None else 1
        detail = connected_components_parallel(
            _to_edge_list(graph),
            variant=variant if variant is not None else "fastsv",
            pool=_kernel_pool(workers) if workers > 1 else None,
            max_rounds=iterations,
        )
        labels = detail.labels
    elif engine == "sharded":
        if iterations is not None:
            raise ValueError(
                "the sharded engine does not support an iterations "
                "override (its merge runs to the fixed point)"
            )
        from repro.hirschberg.sharded import connected_components_sharded

        detail = connected_components_sharded(
            _to_edge_list(graph), shards=shards, memory_budget=memory_budget
        )
        labels = detail.labels
    elif engine == "interpreter":
        if sanitize:
            from repro.check.sanitizer import run_sanitized

            detail = run_sanitized(_to_adjacency(graph), iterations=iterations)
        else:
            detail = connected_components_interpreter(
                _to_adjacency(graph), iterations=iterations
            )
        labels = detail.labels
    elif engine == "reference":
        detail = hirschberg_reference(_to_adjacency(graph), iterations=iterations)
        labels = detail.labels
    else:  # pram
        detail = hirschberg_on_pram(_to_adjacency(graph), iterations=iterations)
        labels = detail.labels
    return ComponentsResult(
        labels=labels,
        method=engine,
        detail=detail,
        requested_method=requested,
    )


def gca_connected_components(
    graph: GraphLike,
    method: str = "vectorized",
    iterations: Optional[int] = None,
    early_exit: bool = False,
) -> ComponentsResult:
    """Compute the connected components of ``graph`` with the GCA algorithm.

    The historical entry point; identical to :func:`connected_components`
    with ``engine=method`` (default ``"vectorized"`` rather than
    ``"auto"``).
    """
    return connected_components(
        graph, engine=method, iterations=iterations, early_exit=early_exit
    )
