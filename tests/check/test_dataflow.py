"""The forward fixpoint and the canned analyses on top of it."""

from __future__ import annotations

import ast
from typing import FrozenSet

from repro.check.cfg import build_cfg, function_defs
from repro.check.dataflow import iter_event_states, solve_forward
from repro.check.domain import lockset_transfer


def _cfg(source: str):
    tree = ast.parse(source)
    return build_cfg(next(iter(dict(function_defs(tree)).values())))


def test_solve_forward_merges_with_union():
    # facts: line numbers of executed assigns; at the join both must
    # survive (may-analysis)
    cfg = _cfg(
        "def f(x):\n"
        "    if x:\n"
        "        a = 1\n"
        "    else:\n"
        "        a = 2\n"
        "    return a\n"
    )

    def transfer(state: FrozenSet[int], event) -> FrozenSet[int]:
        if event[0] == "stmt" and isinstance(event[1], ast.Assign):
            return state | {event[1].lineno}
        return state

    states = solve_forward(cfg, transfer)
    exit_facts = set()
    for event, state in iter_event_states(cfg, transfer):
        if event[0] == "stmt" and isinstance(event[1], ast.Return):
            exit_facts = set(state)
    assert {3, 5} <= exit_facts
    assert states  # entry block solved


def _assign_lines(state: FrozenSet[int], event) -> FrozenSet[int]:
    if event[0] == "stmt" and isinstance(event[1], ast.Assign):
        return state | {event[1].lineno}
    return state


def test_fixpoint_terminates_on_loop():
    cfg = _cfg(
        "def f(n):\n"
        "    i = 0\n"
        "    while i < n:\n"
        "        i = i + 1\n"
        "    return i\n"
    )
    states = solve_forward(cfg, _assign_lines)
    # converged, did not spin; the back edge carries line 4 to the test
    assert {2, 4} <= set().union(*states.values())


def test_lockset_transfer_tracks_with_and_acquire():
    cfg = _cfg(
        "def f(conn, lock):\n"
        "    lock.acquire()\n"
        "    conn.send(b'x')\n"
        "    lock.release()\n"
        "    conn.recv()\n"
    )
    held_at = {}
    for event, state in iter_event_states(cfg, lockset_transfer):
        if event[0] == "stmt":
            held_at[event[1].lineno] = set(state)
    assert held_at[3], "lock held across send"
    assert not held_at[5], "released before recv"


def test_lockset_transfer_ignores_async_with():
    cfg = _cfg(
        "async def f(alock):\n"
        "    async with alock:\n"
        "        x = 1\n"
        "    return x\n"
    )
    for event, state in iter_event_states(cfg, lockset_transfer):
        assert not state  # asyncio locks never enter the sync lockset

