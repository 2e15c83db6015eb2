"""The generation schedule: which rule runs when (Tables 1 and 2).

The six steps of Hirschberg's algorithm expand into 12 numbered GCA
generations; generations 3, 7 and 10 consist of ``ceil(log2 n)``
sub-generations each.  Generation 0 runs once; generations 1-11 repeat in
every outer iteration.  This module builds the concrete, labelled schedule
for a given ``n`` and exposes the step <-> generation correspondence the
Table 2 bench reproduces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List

from repro.core.generations import (
    Gen0Initialise,
    Gen1CopyVectorToRows,
    Gen2MaskNonNeighbors,
    Gen3ReduceMin,
    Gen4FallbackToOwn,
    Gen5CopyVectorToRowsKeepLast,
    Gen6MaskNonMembers,
    Gen9DistributeAndArchive,
    Gen10PointerJump,
    Gen11ResolvePairs,
    Generation,
)
from repro.util.intmath import (
    jump_iterations,
    outer_iterations,
    reduction_subgenerations,
)
from repro.util.validation import check_positive

#: Hirschberg step implemented by each numbered generation (paper, Sec. 3).
STEP_OF_GENERATION: Dict[int, int] = {
    0: 1,
    1: 2, 2: 2, 3: 2, 4: 2,
    5: 3, 6: 3, 7: 3, 8: 3,
    9: 4,
    10: 5,
    11: 6,
}


@dataclass(frozen=True)
class ScheduledGeneration:
    """One entry of the concrete schedule."""

    iteration: int          # outer iteration index; -1 for generation 0
    number: int             # the paper's generation number 0..11
    sub_generation: int     # sub-generation index within 3/7/10, else 0
    rule: Generation

    @property
    def step(self) -> int:
        """The Hirschberg step (1..6) this generation belongs to."""
        return STEP_OF_GENERATION[self.number]

    @property
    def label(self) -> str:
        """Label like ``"it1.gen3.sub2"`` (iteration omitted for gen 0)."""
        if self.number == 0:
            return "gen0"
        base = f"it{self.iteration}.gen{self.number}"
        if self.number in (3, 7, 10):
            return f"{base}.sub{self.sub_generation}"
        return base


def iteration_generations(n: int, iteration: int) -> List[ScheduledGeneration]:
    """The schedule of one outer iteration (generations 1..11)."""
    check_positive("n", n)
    subgens = reduction_subgenerations(n)
    jumps = jump_iterations(n)
    out: List[ScheduledGeneration] = []

    def add(number: int, rule: Generation, sub: int = 0) -> None:
        out.append(
            ScheduledGeneration(
                iteration=iteration, number=number, sub_generation=sub, rule=rule
            )
        )

    add(1, Gen1CopyVectorToRows())
    add(2, Gen2MaskNonNeighbors())
    for s in range(subgens):
        add(3, Gen3ReduceMin(s, label="gen3"), sub=s)
    add(4, Gen4FallbackToOwn(label="gen4"))
    add(5, Gen5CopyVectorToRowsKeepLast())
    add(6, Gen6MaskNonMembers())
    for s in range(subgens):
        add(7, Gen3ReduceMin(s, label="gen7"), sub=s)
    add(8, Gen4FallbackToOwn(label="gen8"))
    add(9, Gen9DistributeAndArchive())
    for s in range(jumps):
        add(10, Gen10PointerJump(s), sub=s)
    add(11, Gen11ResolvePairs())
    return out


def full_schedule(n: int, iterations: int = None) -> List[ScheduledGeneration]:
    """The complete schedule: generation 0 plus ``iterations`` outer
    iterations (default ``ceil(log2 n)``)."""
    check_positive("n", n)
    total_iters = outer_iterations(n) if iterations is None else iterations
    if total_iters < 0:
        raise ValueError(f"iterations must be >= 0, got {total_iters}")
    schedule = [
        ScheduledGeneration(
            iteration=-1, number=0, sub_generation=0, rule=Gen0Initialise()
        )
    ]
    for it in range(total_iters):
        schedule.extend(iteration_generations(n, it))
    return schedule


# ----------------------------------------------------------------------
# closed-form generation counts (Table 2 & the total bound)
# ----------------------------------------------------------------------

def generations_per_step(n: int) -> Dict[int, int]:
    """Table 2: generations each Hirschberg step takes (per iteration;
    step 1 = the one-off initialisation generation).

    ======  =====================
    step    generations
    ======  =====================
    1       1
    2       1 + log(n) + 1 + 1
    3       1 + log(n) + 1 + 1
    4       1
    5       log(n)
    6       1
    ======  =====================
    """
    check_positive("n", n)
    log = reduction_subgenerations(n)
    jumps = jump_iterations(n)
    return {1: 1, 2: 3 + log, 3: 3 + log, 4: 1, 5: jumps, 6: 1}


# typed: a bool must still fail check_positive after 1 is cached; every
# BatchedResult.generations_run() call asks, and building the Table 2
# dict cost more than the rest of that call
@functools.lru_cache(maxsize=64, typed=True)
def generations_per_iteration(n: int) -> int:
    """Generations in one outer iteration: ``3 log(n) + 8``."""
    per_step = generations_per_step(n)
    return sum(count for step, count in per_step.items() if step != 1)


def total_generations(n: int, iterations: int = None) -> int:
    """The paper's total bound ``1 + log(n) * (3 log(n) + 8)``.

    With ``ceil(log2 n)`` substituted for every ``log(n)``, and the actual
    iteration count if ``iterations`` is given.
    """
    check_positive("n", n)
    total_iters = outer_iterations(n) if iterations is None else iterations
    return 1 + total_iters * generations_per_iteration(n)
