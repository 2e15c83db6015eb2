"""The cell-accurate GCA interpreter for the connected-components algorithm.

This solver runs the generation rules of :mod:`repro.core.generations` on
the generic :class:`~repro.gca.automaton.GlobalCellularAutomaton` engine,
cell by cell, with full access instrumentation.  It is the measurement
instrument behind the Table 1 / Figure 3 reproductions; for large inputs
use :mod:`repro.core.vectorized`, which computes the same fields (verified
by cross-validation tests) at array speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from repro.core.field import CellField, FieldLayout
from repro.core.generations import Generation
from repro.core.state_machine import HirschbergStateMachine
from repro.gca.automaton import GlobalCellularAutomaton
from repro.gca.cell import KEEP, CellUpdate, CellView, Neighbor
from repro.gca.instrumentation import AccessLog, GenerationStats
from repro.gca.rules import Rule
from repro.graphs.adjacency import AdjacencyMatrix

GraphLike = Union[AdjacencyMatrix, np.ndarray]


class GenerationRuleAdapter(Rule):
    """Adapts a scalar :class:`~repro.core.generations.Generation` to the
    generic engine's :class:`~repro.gca.rules.Rule` interface.

    Active cells always perform their global read (when the generation
    reads at all) -- like the synthesized hardware, where the neighbour
    multiplexer is wired regardless of whether the data operation ends up
    selecting the own value -- so congestion measurements reflect the
    hardware access pattern, not a software short-circuit.
    """

    def __init__(self, generation: Generation, layout: FieldLayout):
        self._generation = generation
        self._layout = layout

    @property
    def generation(self) -> Generation:
        return self._generation

    def is_active(self, cell: CellView) -> bool:
        return self._generation.active(self._layout, cell.index)

    def pointer(self, cell: CellView) -> int:
        return self._generation.pointer(self._layout, cell.index, cell.data)

    def update(self, cell: CellView, neighbor: Neighbor) -> CellUpdate:
        new_data = self._generation.data(
            self._layout, cell.index, cell.data, cell.aux["a"], neighbor.data
        )
        # Store the pointer that was actually used, mirroring the paper's
        # "the pointer is computed in the current generation" semantics.
        return CellUpdate(data=new_data, pointer=neighbor.index)

    def step(self, cell: CellView, read) -> CellUpdate:
        if not self.is_active(cell):
            return KEEP
        if not self._generation.reads:
            new_data = self._generation.data(
                self._layout, cell.index, cell.data, cell.aux["a"], cell.data
            )
            return CellUpdate(data=new_data)
        return self.update(cell, read(self.pointer(cell)))


@dataclass
class InterpreterResult:
    """Outcome of an interpreter run."""

    labels: np.ndarray
    n: int
    iterations: int
    access_log: AccessLog
    generation_stats: List[GenerationStats] = field(default_factory=list)
    #: Set on sanitized runs: the
    #: :class:`repro.gca.sanitized.SanitizerReport` of the write-barrier
    #: engine.  ``None`` for plain runs.
    sanitizer: Optional[object] = None

    @property
    def total_generations(self) -> int:
        """Generations executed (the measured side of the paper's
        ``1 + log n (3 log n + 8)`` bound)."""
        return len(self.generation_stats)

    @property
    def component_count(self) -> int:
        return int(np.unique(self.labels).size)


GenerationCallback = Callable[[str, "GCAConnectedComponents"], None]


class GCAConnectedComponents:
    """The instrumented GCA connected-components machine.

    Parameters
    ----------
    graph:
        Undirected input graph.
    iterations:
        Outer iterations (default ``ceil(log2 n)``).
    record_access:
        Keep the per-generation access statistics (needed for Table 1).
    engine_factory:
        Callable building the underlying engine (same signature as
        :class:`~repro.gca.automaton.GlobalCellularAutomaton`); pass
        :class:`repro.gca.sanitized.SanitizedAutomaton` to run with
        the CROW write barrier armed.

    Attributes
    ----------
    field:
        The :class:`~repro.core.field.CellField` layout wrapper (kept in
        sync with the engine after every generation).
    engine:
        The underlying :class:`~repro.gca.automaton.GlobalCellularAutomaton`.
    """

    def __init__(
        self,
        graph: GraphLike,
        iterations: Optional[int] = None,
        record_access: bool = True,
        engine_factory: Optional[Callable[..., GlobalCellularAutomaton]] = None,
    ):
        g = graph if isinstance(graph, AdjacencyMatrix) else AdjacencyMatrix(np.asarray(graph))
        self.field = CellField(g)
        self.layout = self.field.layout
        self.state_machine = HirschbergStateMachine(g.n, iterations=iterations)
        factory = engine_factory or GlobalCellularAutomaton
        self.engine = factory(
            size=self.layout.size,
            initial_data=0,
            initial_pointer=0,
            aux={"a": self.field.A_plane},
            hands=1,
            record_access=record_access,
        )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def D(self) -> np.ndarray:
        """Current data matrix, shape ``(n+1, n)``."""
        return self.engine.data.reshape(self.layout.rows, self.layout.cols)

    @property
    def P(self) -> np.ndarray:
        """Current pointer matrix, shape ``(n+1, n)``."""
        return self.engine.pointers.reshape(self.layout.rows, self.layout.cols)

    @property
    def labels(self) -> np.ndarray:
        """The C vector: first column of ``D_square``."""
        return self.D[: self.n, 0].copy()

    # ------------------------------------------------------------------
    def step_generation(self) -> GenerationStats:
        """Execute the next scheduled generation; returns its statistics."""
        scheduled = self.state_machine.advance()
        adapter = GenerationRuleAdapter(scheduled.rule, self.layout)
        stats = self.engine.step(adapter, label=scheduled.label)
        return stats

    def run(
        self, on_generation: Optional[GenerationCallback] = None
    ) -> InterpreterResult:
        """Run the full schedule and return the result."""
        all_stats: List[GenerationStats] = []
        while not self.state_machine.done:
            stats = self.step_generation()
            all_stats.append(stats)
            if on_generation is not None:
                on_generation(stats.label, self)
        self.field.load_flat(
            data=self.engine.data, pointers=self.engine.pointers
        )
        return InterpreterResult(
            labels=self.labels,
            n=self.n,
            iterations=self.state_machine.iterations,
            access_log=self.engine.access_log,
            generation_stats=all_stats,
            sanitizer=getattr(self.engine, "sanitizer_report", None),
        )


def connected_components_interpreter(
    graph: GraphLike, iterations: Optional[int] = None
) -> InterpreterResult:
    """One-shot convenience: build the machine, run it, return the result."""
    return GCAConnectedComponents(graph, iterations=iterations).run()
