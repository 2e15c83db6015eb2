"""The pure kernels never write their inputs.

The Hirschberg step functions and the per-generation field transform
return fresh arrays: several callers hold the same vectors across steps
(step 6 needs the step-3 ``T`` unchanged) and the interpreter
cross-validation needs ``D`` to survive ``apply_generation``.  Every
input here is frozen with ``writeable = False``, so NumPy raises on any
in-place write.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.field import FieldLayout
from repro.core.schedule import full_schedule
from repro.core.vectorized import apply_generation
from repro.graphs.generators import random_graph
from repro.hirschberg import steps
from repro.util.intmath import outer_iterations

SIZES = (1, 2, 5, 17, 33)
TARGETS = ("step2", "step3", "step4", "step5", "step6", "one_iteration",
           "apply_generation")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def _run_step(target: str, graph) -> None:
    """Call one step function on frozen inputs taken from a real run."""
    n = graph.n
    jumps = outer_iterations(n)
    C = steps.step1_init(n)
    T2 = steps.step2_candidate_components(graph, C)
    T3 = steps.step3_supernode_min(C, T2)
    C4 = steps.step4_adopt(T3)
    C5 = steps.step5_pointer_jump(C4, jumps)
    T2, T3, C4, C5 = map(_frozen, (T2, T3, C4, C5))
    calls = {
        "step2": lambda: steps.step2_candidate_components(graph, C4),
        "step3": lambda: steps.step3_supernode_min(C4, T2),
        "step4": lambda: steps.step4_adopt(T3),
        "step5": lambda: steps.step5_pointer_jump(C4, jumps),
        "step6": lambda: steps.step6_resolve_pairs(C5, T3),
        "one_iteration": lambda: steps.one_iteration(graph, C5, jumps),
    }
    calls[target]()


def _run_field(graph) -> None:
    layout = FieldLayout(graph.n)
    A = _frozen(graph.matrix.astype(np.int64))
    D = _frozen(np.zeros((graph.n + 1, graph.n), dtype=np.int64))
    for sched in full_schedule(graph.n):
        D = _frozen(apply_generation(sched, D, A, layout))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("target", TARGETS)
def test_kernel_leaves_readonly_inputs_alone(target, n):
    graph = random_graph(n, 0.3, seed=n)
    assert not graph.matrix.flags.writeable
    if target == "apply_generation":
        _run_field(graph)
    else:
        _run_step(target, graph)
