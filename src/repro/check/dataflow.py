"""Intraprocedural forward dataflow over the :mod:`repro.check.cfg` CFG.

The framework is tiny on purpose: an analysis is a *state type*
(anything hashable-equatable; the built-ins use ``frozenset``), a
``transfer`` over one CFG event, and a ``join`` at merge points.
:func:`solve_forward` runs the classic worklist fixpoint;
:func:`iter_event_states` replays the solution so a rule can ask "what
was the state just before this statement?" -- which is all the lockset,
async-discipline and taint rules need.

All concrete analyses here are **may**-analyses with union join:
over-approximating reachability can create a false positive (silenced
with a reviewed ``allow[...]``), never a silent false negative.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, FrozenSet, Iterator, Tuple

from repro.check.cfg import CFG, Event

#: Dataflow state: a frozenset of analysis-specific facts.
State = FrozenSet[object]

EMPTY: State = frozenset()

#: ``transfer(state, event) -> state`` over one CFG event.
Transfer = Callable[[State, Event], State]


def solve_forward(
    cfg: CFG, transfer: Transfer, initial: State = EMPTY
) -> Dict[int, State]:
    """Run the worklist fixpoint; returns the state at *entry* of every
    reachable block (union join at merges)."""
    states: Dict[int, State] = {cfg.entry: initial}
    work = deque([cfg.entry])
    while work:
        bid = work.popleft()
        state = states[bid]
        for event in cfg.blocks[bid].events:
            state = transfer(state, event)
        for succ in cfg.blocks[bid].succs:
            if succ not in states:
                states[succ] = state
                work.append(succ)
            else:
                merged = states[succ] | state
                if merged != states[succ]:
                    states[succ] = merged
                    work.append(succ)
    return states


def iter_event_states(
    cfg: CFG, transfer: Transfer, initial: State = EMPTY
) -> Iterator[Tuple[Event, State]]:
    """Yield ``(event, state-before-event)`` for every event in every
    reachable block, after solving to fixpoint."""
    entry_states = solve_forward(cfg, transfer, initial)
    for bid in cfg.reachable():
        state = entry_states[bid]
        for event in cfg.blocks[bid].events:
            yield event, state
            state = transfer(state, event)

