"""The CROW write barrier: a sanitizing interpreter engine.

This module enforces the paper's concurrent-read, owner-write (CROW)
discipline on live planes; no static rule duplicates it.  It lives in
:mod:`repro.gca` because it subclasses the interpreter engine.

* :class:`SanitizedAutomaton` is the interpreter engine with a
  **write barrier** on its state planes.  While a cell's rule executes,
  the planes are locked to that cell: any store to a foreign index --
  however deviously reached (``engine._data[j] = x`` from inside a
  rule, a leaked snapshot, a mutated aux view) -- raises
  :class:`~repro.gca.errors.OwnerWriteViolation` at the exact write,
  turning the paper's CROW contract from documentation into an
  assertion.  It also re-counts every global read independently of the
  engine's :class:`~repro.gca.instrumentation.ReadRecorder` and raises
  :class:`SanitizerMismatch` when the two disagree -- a cross-check of
  the Table 1 congestion accounting itself.

Entry points: ``connected_components(..., sanitize=True)`` and
:func:`run_sanitized`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.gca.automaton import GlobalCellularAutomaton
from repro.gca.cell import CellUpdate, CellView, Neighbor
from repro.gca.errors import GCAError, OwnerWriteViolation
from repro.gca.instrumentation import GenerationStats
from repro.gca.rules import Rule


class SanitizerMismatch(GCAError):
    """The sanitizer's independent read tally disagrees with the
    engine's congestion instrumentation -- one of the two is lying."""


# ----------------------------------------------------------------------
# the CROW write barrier
# ----------------------------------------------------------------------
class _Guard:
    """Shared write-lock state of one automaton's planes.

    ``owner is None`` -- unlocked (engine bookkeeping between cells and
    between generations).  ``owner == i`` -- only element ``i`` may be
    stored; everything else raises.
    """

    __slots__ = ("owner",)

    def __init__(self) -> None:
        self.owner: Optional[int] = None


class GuardedArray(np.ndarray):
    """An int64 plane whose ``__setitem__`` enforces owner-only writes.

    The guard propagates through views (``__array_finalize__``) and the
    anchor records the plane's buffer span, so a write through *any*
    alias -- ``engine._pointer[1:]``, a reversed view, a smuggled
    slice -- is mapped back to the absolute cell index it lands on
    before the owner check.  Copies are private memory and exempt: a
    rule may scratch on them freely, and the moment a result is stored
    back into a real plane the barrier sees it.
    """

    _guard: Optional[_Guard] = None
    _anchor: Optional[Tuple[int, int]] = None  # plane buffer [start, end)

    def __array_finalize__(self, obj) -> None:
        if obj is not None:
            self._guard = getattr(obj, "_guard", None)
            self._anchor = getattr(obj, "_anchor", None)

    def __setitem__(self, key, value) -> None:
        guard = self._guard
        if (
            guard is not None
            and guard.owner is not None
            and self._overlaps_plane()
        ):
            self._check_owner_write(key, guard.owner)
        super().__setitem__(key, value)

    def _overlaps_plane(self) -> bool:
        """Whether this array's data lives inside the guarded plane.

        Copies allocate fresh memory outside the anchored span -- they
        are scratch space, not shared state.  Missing provenance stays
        conservative."""
        anchor = self._anchor
        if anchor is None:
            return True
        start, end = anchor
        addr = int(self.__array_interface__["data"][0])
        return start <= addr < end

    def _check_owner_write(self, key, owner: int) -> None:
        if isinstance(key, (int, np.integer)):
            index = int(key)
            if index < 0:
                index += self.shape[0]
            anchor = self._anchor
            if anchor is not None and self.ndim == 1:
                # map the view-local index to the absolute plane index
                addr = int(self.__array_interface__["data"][0])
                addr += index * self.strides[0]
                index = (addr - anchor[0]) // self.itemsize
            if index == owner:
                return
            raise OwnerWriteViolation(
                f"write to cell {index} while cell {owner} executes; "
                "CROW permits a cell to write only its own state"
            )
        raise OwnerWriteViolation(
            f"non-scalar write ({key!r}) to a guarded plane while cell "
            f"{owner} executes; CROW permits only the owner's element"
        )


def _guarded(arr: np.ndarray, guard: _Guard) -> GuardedArray:
    out = np.asarray(arr).view(GuardedArray)
    out._guard = guard
    start = int(out.__array_interface__["data"][0])
    out._anchor = (start, start + out.nbytes)
    return out


class _SanitizingRule(Rule):
    """Wraps the scheduled rule: locks the guard to the executing cell
    and re-counts reads independently of the engine's recorder."""

    def __init__(self, inner: Rule, guard: _Guard, tally: Dict[int, int]):
        self._inner = inner
        self._guard = guard
        self._tally = tally

    def is_active(self, cell: CellView) -> bool:
        return self._inner.is_active(cell)

    def pointer(self, cell: CellView) -> int:
        return self._inner.pointer(cell)

    def update(self, cell: CellView, neighbor: Neighbor) -> CellUpdate:
        return self._inner.update(cell, neighbor)

    def step(
        self, cell: CellView, read: Callable[[int], Neighbor]
    ) -> CellUpdate:
        # the wrapper is the barrier mechanism itself, not a GCA rule:
        # arming the guard and tallying reads is its entire job
        self._guard.owner = cell.index
        tally = self._tally

        def counted_read(target: int) -> Neighbor:
            neighbor = read(target)
            tally[neighbor.index] = tally.get(neighbor.index, 0) + 1
            return neighbor

        return self._inner.step(cell, counted_read)


@dataclass
class SanitizerReport:
    """What a sanitized run observed (attached to the result)."""

    generations: int = 0
    total_reads: int = 0
    peak_congestion: int = 0
    mismatches: List[str] = field(default_factory=list)

    def note_generation(
        self, stats: GenerationStats, tally: Dict[int, int]
    ) -> None:
        self.generations += 1
        self.total_reads += sum(tally.values())
        self.peak_congestion = max(
            self.peak_congestion, max(tally.values(), default=0)
        )

    def summary(self) -> str:
        return (
            f"sanitizer: {self.generations} generations verified, "
            f"{self.total_reads} reads cross-checked, "
            f"peak congestion {self.peak_congestion}, "
            f"{len(self.mismatches)} mismatches"
        )


class SanitizedAutomaton(GlobalCellularAutomaton):
    """The interpreter engine with the CROW write barrier armed.

    Drop-in for :class:`~repro.gca.automaton.GlobalCellularAutomaton`
    (pass as ``engine_factory`` to
    :class:`~repro.core.machine.GCAConnectedComponents`).  Each
    :meth:`step` additionally cross-validates the generation's
    per-cell read counts against the engine's own recorder.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._guard = _Guard()
        self._data = _guarded(self._data, self._guard)
        self._pointer = _guarded(self._pointer, self._guard)
        self.sanitizer_report = SanitizerReport()

    def step(self, rule: Rule, label: Optional[str] = None) -> GenerationStats:
        tally: Dict[int, int] = {}
        wrapped = _SanitizingRule(rule, self._guard, tally)
        try:
            stats = super().step(wrapped, label=label)
        finally:
            self._guard.owner = None
            # the commit swapped in freshly-copied planes whose anchors
            # still describe the previous buffers; re-anchor so the next
            # generation guards the planes that are actually live
            self._data = _guarded(self._data, self._guard)
            self._pointer = _guarded(self._pointer, self._guard)
        if stats.reads_per_cell != tally:
            raise SanitizerMismatch(
                f"generation {stats.label!r}: engine recorded "
                f"{stats.total_reads} reads (max congestion "
                f"{stats.max_congestion}), sanitizer counted "
                f"{sum(tally.values())} (max "
                f"{max(tally.values(), default=0)})"
            )
        self.sanitizer_report.note_generation(stats, tally)
        return stats

    def load(self, data=None, pointers=None) -> None:
        super().load(data, pointers)
        self._data = _guarded(self._data, self._guard)
        self._pointer = _guarded(self._pointer, self._guard)


def run_sanitized(graph, iterations: Optional[int] = None):
    """Run the full interpreter solve under the CROW write barrier.

    Returns the usual
    :class:`~repro.core.machine.InterpreterResult`, with
    :attr:`~repro.core.machine.InterpreterResult.sanitizer` holding the
    :class:`SanitizerReport`.
    """
    from repro.core.machine import GCAConnectedComponents

    machine = GCAConnectedComponents(
        graph, iterations=iterations, engine_factory=SanitizedAutomaton
    )
    result = machine.run()
    # hand back a plain ndarray, not the guarded view
    result.labels = np.array(result.labels, dtype=np.int64)
    return result
