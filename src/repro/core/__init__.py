"""The paper's contribution: Hirschberg's algorithm as a GCA program.

* :mod:`~repro.core.field` -- the ``(n+1) x n`` cell field (D/P/A overlay);
* :mod:`~repro.core.generations` -- the 12 generation rules of Figure 2;
* :mod:`~repro.core.schedule` -- the static generation schedule and the
  closed-form counts of Table 2;
* :mod:`~repro.core.state_machine` -- the dynamic controller of Figure 2;
* :mod:`~repro.core.machine` -- the cell-accurate instrumented interpreter;
* :mod:`~repro.core.row_machine` -- the n-cell design alternative;
* :mod:`~repro.core.vectorized` -- the per-generation whole-array
  reference and the single-graph runner;
* :mod:`~repro.core.batched` -- the fused field kernel, many graphs per
  dispatch;
* :mod:`~repro.core.trace` -- generation traces and Figure 3 patterns;
* :mod:`~repro.core.api` -- the one-call public interface.
"""

from repro.core.api import ComponentsResult, gca_connected_components
from repro.core.batched import (
    BatchedGCA,
    BatchedResult,
    connected_components_batch,
)
from repro.core.field import CellField, FieldLayout
from repro.core.machine import (
    GCAConnectedComponents,
    InterpreterResult,
    connected_components_interpreter,
)
from repro.core.row_machine import (
    RowGCA,
    RowGCAResult,
    connected_components_row_gca,
    row_generations_per_iteration,
    row_total_generations,
)
from repro.core.schedule import (
    STEP_OF_GENERATION,
    ScheduledGeneration,
    full_schedule,
    generations_per_iteration,
    generations_per_step,
    iteration_generations,
    total_generations,
)
from repro.core.state_machine import HirschbergStateMachine, MachineState
from repro.core.trace import (
    AccessPattern,
    GenerationSnapshot,
    TraceRecorder,
    access_pattern,
    figure3_patterns,
)
from repro.core.verification import (
    LockstepReport,
    LockstepValidator,
    LockstepViolation,
    validated_connected_components,
)
from repro.core.vectorized import (
    VectorizedResult,
    connected_components_vectorized,
    run_vectorized,
)

__all__ = [
    "ComponentsResult",
    "gca_connected_components",
    "BatchedGCA",
    "BatchedResult",
    "connected_components_batch",
    "CellField",
    "FieldLayout",
    "GCAConnectedComponents",
    "InterpreterResult",
    "connected_components_interpreter",
    "RowGCA",
    "RowGCAResult",
    "connected_components_row_gca",
    "row_generations_per_iteration",
    "row_total_generations",
    "STEP_OF_GENERATION",
    "ScheduledGeneration",
    "full_schedule",
    "generations_per_iteration",
    "generations_per_step",
    "iteration_generations",
    "total_generations",
    "HirschbergStateMachine",
    "MachineState",
    "AccessPattern",
    "GenerationSnapshot",
    "TraceRecorder",
    "access_pattern",
    "figure3_patterns",
    "LockstepReport",
    "LockstepValidator",
    "LockstepViolation",
    "validated_connected_components",
    "VectorizedResult",
    "connected_components_vectorized",
    "run_vectorized",
]
