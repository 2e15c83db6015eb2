"""Engine dispatch for ``engine="auto"``: a three-rule table.

``engine="auto"`` in :mod:`repro.core.api`, the serve planner, the CLI
and the sweep harness all pick an engine here, so they pick the same
way.  The table has three rules, checked in order:

1. congestion instrumentation required -> the cell-accurate
   ``"interpreter"`` (``ValueError`` when its per-cell Python objects
   would not fit the memory budget);
2. the contracting engine's predicted working set
   (:func:`predict_memory`) exceeds the budget -> the out-of-core
   ``"sharded"`` engine, whose resident set is bounded by the budget;
3. otherwise -> ``"contracting"``.

There is no speed rule because the speed choice is almost constant.
The paper's field pays ``Theta(n^2)`` cells for every one of its
``1 + log n (3 log n + 8)`` generations, while contraction pays
``O(n + m)`` per level on a shrinking problem.  Measured on a 2-core
host (EXPERIMENTS.md, E28), contracting beat every dense engine at
least 5x on edge-list input.  On dense adjacency input the ``batched``
field, which works only on the edges still crossing two labels, leads
at ``p = 1`` from ``n = 64`` and at ``p = 0.5`` from ``n = 128``
(1.4-15x, E37), and since each matrix is read once it leads at
``p = 0.01`` too (1.2-2.2x, E38).  No rule routes adjacency input by
density yet.  ``vectorized`` runs the same fused field kernel at a
batch of one (E30).  The dense engines stay
selectable by name as the reproduction of the paper's architecture (and
``batched`` as the field path for many same-size graphs); ``edgelist``
and ``parallel`` stay selectable by name too (E26).

>>> choose_engine(4, 3, require_instrumentation=True)
'interpreter'
>>> choose_engine(512, 130_816)          # the complete graph K_512
'contracting'
>>> choose_engine(2_000_000, 6_000_000)  # large sparse
'contracting'
>>> tight = CostModel(memory_budget=float(1 << 30))
>>> choose_engine(50_000_000, 1_000_000_000, model=tight)
'sharded'

``engine="auto"`` sizes the budget from a live probe of the host's
available memory (:func:`probe_available_memory`) instead of the
shipped default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

#: Engines the rule table can return.
DISPATCHABLE = ("contracting", "interpreter", "sharded")


@dataclass(frozen=True)
class CostModel:
    """A measured time constant (seconds) and memory parameters."""

    #: contracting engine: seconds per ``n + 2m`` unit of one whole
    #: solve.  Measured at ``n = 10^6``, ``m = 5 * 10^6`` uniform random
    #: pairs on a 2-core x86_64 host (NumPy 2.4): 6.6e-8 to 8.6e-8 over
    #: three seeds.  Only :func:`explain_choice`'s prediction reads it;
    #: no rule decides on time.
    contracting_unit: float = 7.5e-8
    #: interpreter footprint per cell (a Python object per cell).
    interpreter_bytes_per_cell: float = 800.0
    #: in-RAM contracting engine: resident bytes per directed edge (edge
    #: arrays plus sort/dedup temporaries, measured envelope; the traced
    #: peak of ``from_arrays`` + ``auto`` above the input is 14-17 B,
    #: E39)...
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
    n: int, m: int, model: Optional[CostModel] = None
) -> Dict[str, float]:
    """Predicted resident working set in bytes of every dispatchable
    engine for one graph of ``n`` vertices and ``m`` undirected edges.

    The interpreter pays per cell, the contracting engine per vertex and
    directed edge, and the sharded engine clamps its resident set to the
    model's budget by construction (its capacity grows with disk, not
    RAM), so its entry is the smaller of the in-RAM footprint and the
    budget.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    model = model or DEFAULT_COST_MODEL
    sparse = (
        n * model.sparse_bytes_per_node
        + 2 * m * model.sparse_bytes_per_edge
    )
    return {
        "contracting": sparse,
        "interpreter": n * (n + 1) * model.interpreter_bytes_per_cell,
        "sharded": min(sparse, model.memory_budget),
    }


def choose_engine(
    n: int,
    m: int,
    model: Optional[CostModel] = None,
    require_instrumentation: bool = False,
) -> str:
    """The engine the rule table (module docstring) picks for one graph
    of ``n`` vertices and ``m`` undirected edges under ``model``."""
    model = model or DEFAULT_COST_MODEL
    memory = predict_memory(n, m, model=model)
    if require_instrumentation:
        if memory["interpreter"] > model.memory_budget:
            raise ValueError(
                f"interpreter infeasible for n={n} under the memory budget"
            )
        return "interpreter"
    if memory["contracting"] > model.memory_budget:
        return "sharded"
    return "contracting"


def explain_choice(
    n: int, m: int, model: Optional[CostModel] = None
) -> Dict[str, object]:
    """The decision plus its inputs -- for ``--method auto`` CLI output
    and for auditing dispatch decisions in tests and benchmarks.

    ``predicted_seconds`` holds the chosen engine's predicted solve time,
    ``(n + 2m) * contracting_unit``; the sharded engine contracts the
    same edges shard by shard, so for it this is a floor.
    """
    model = model or DEFAULT_COST_MODEL
    memory = predict_memory(n, m, model=model)
    choice = choose_engine(n, m, model=model)
    return {
        "n": n,
        "m": m,
        "predicted_seconds": {choice: (n + 2 * m) * model.contracting_unit},
        "memory": {
            "budget_bytes": model.memory_budget,
            "predicted_bytes": memory,
        },
        "feasible": sorted(
            name for name, need in memory.items()
            if need <= model.memory_budget
        ),
        "choice": choice,
    }


def host_fingerprint() -> Dict[str, object]:
    """The facts a measurement depends on: logical CPU count,
    architecture and OS (benchmark reports carry it)."""
    import platform

    return {
        "cpu_count": int(os.cpu_count() or 1),
        "machine": platform.machine(),
        "system": platform.system(),
    }
