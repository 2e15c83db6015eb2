"""Runtime sanitizer behaviour: the CROW write barrier and the shm
epoch/leak observer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.shm import SharedArray, SlabPool, live_segments
from repro.check.sanitizer import ShmSanitizer, ShmSanitizerError, shm_sanitizer
from repro.core.api import connected_components
from repro.gca.cell import KEEP, CellUpdate
from repro.gca.errors import OwnerWriteViolation
from repro.gca.rules import Rule
from repro.gca.sanitized import SanitizedAutomaton, SanitizerMismatch, run_sanitized
from repro.graphs.generators import random_graph


class _EvilRule(Rule):
    """Writes a foreign cell's state through the engine reference."""

    def __init__(self, automaton, victim=5, culprit=3):
        self.automaton = automaton
        self.victim = victim
        self.culprit = culprit

    def pointer(self, cell):
        return cell.index

    def update(self, cell, neighbor):
        return KEEP

    def step(self, cell, read):
        if cell.index == self.culprit:
            self.automaton._data[self.victim] = 99
        return KEEP


class _SelfWriteRule(_EvilRule):
    """Owner-only writes through the engine are *still* caught as the
    commit goes through CellUpdate -- but a cell writing its own slot
    directly is permitted by CROW (it owns it)."""

    def step(self, cell, read):
        if cell.index == self.culprit:
            self.automaton._data[self.culprit] = 7  # own slot: allowed
        return CellUpdate(data=7)


# ----------------------------------------------------------------------
# CROW write barrier
# ----------------------------------------------------------------------
def test_cross_cell_write_raises():
    auto = SanitizedAutomaton(size=8)
    with pytest.raises(OwnerWriteViolation, match="cell 5 while cell 3"):
        auto.step(_EvilRule(auto))


def test_owner_write_is_allowed():
    auto = SanitizedAutomaton(size=8)
    auto.step(_SelfWriteRule(auto))
    assert int(auto.data[3]) == 7


def test_leaked_snapshot_alias_is_guarded():
    """The guard propagates through views/copies of the planes."""
    auto = SanitizedAutomaton(size=4)

    class AliasRule(_EvilRule):
        def step(self, cell, read):
            if cell.index == 0:
                alias = self.automaton._pointer[1:]  # a view
                alias[0] = 2  # = cell 1 -> cross-cell
            return KEEP

    with pytest.raises(OwnerWriteViolation):
        auto.step(AliasRule(auto))


def test_non_scalar_write_rejected():
    auto = SanitizedAutomaton(size=4)

    class SliceRule(_EvilRule):
        def step(self, cell, read):
            if cell.index == 0:
                self.automaton._data[:] = 1
            return KEEP

    with pytest.raises(OwnerWriteViolation, match="non-scalar"):
        auto.step(SliceRule(auto))


def test_guard_disarmed_between_generations():
    auto = SanitizedAutomaton(size=4)
    auto.load(data=np.asarray([3, 2, 1, 0]))  # engine-side writes are fine
    assert auto.data.tolist() == [3, 2, 1, 0]
    with pytest.raises(OwnerWriteViolation):
        auto.step(_EvilRule(auto, victim=0, culprit=1))
    # after the failed generation the guard is released again
    auto.load(pointers=np.asarray([0, 0, 0, 0]))


def test_sanitized_solve_matches_plain_interpreter():
    g = random_graph(16, 0.2, seed=3)
    plain = connected_components(g, engine="interpreter")
    sanitized = connected_components(g, engine="interpreter", sanitize=True)
    assert np.array_equal(plain.labels, sanitized.labels)
    assert type(sanitized.labels) is np.ndarray  # not the guarded subclass

    report = sanitized.detail.sanitizer
    assert report is not None
    assert report.generations == len(plain.detail.generation_stats)
    # the independent tally cross-validates the Table 1 accounting
    assert report.total_reads == plain.detail.access_log.total_reads
    assert report.peak_congestion == plain.detail.access_log.peak_congestion
    assert report.mismatches == []
    assert "generations verified" in report.summary()


def test_sanitize_rejects_non_interpreter_engines():
    g = random_graph(8, 0.3, seed=0)
    with pytest.raises(ValueError, match="sanitize"):
        connected_components(g, engine="vectorized", sanitize=True)


def test_sanitize_auto_routes_to_interpreter():
    g = random_graph(8, 0.3, seed=0)
    result = connected_components(g, engine="auto", sanitize=True)
    assert result.method == "interpreter"
    assert result.requested_method == "auto"
    assert np.array_equal(
        result.labels, connected_components(g, engine="vectorized").labels
    )


def test_run_sanitized_entry_point():
    g = random_graph(12, 0.25, seed=7)
    result = run_sanitized(g)
    assert result.sanitizer is not None
    assert result.sanitizer.generations == result.total_generations


def test_read_accounting_mismatch_detected(monkeypatch):
    """If the engine's congestion recorder drops reads, the sanitizer's
    independent tally disagrees and the run fails loudly."""
    from repro.gca.instrumentation import ReadRecorder

    monkeypatch.setattr(ReadRecorder, "note", lambda self, target: None)
    with pytest.raises(SanitizerMismatch, match="sanitizer counted"):
        run_sanitized(random_graph(4, 0.5, seed=1))


# ----------------------------------------------------------------------
# shm sanitizer
# ----------------------------------------------------------------------
def test_shm_sanitizer_clean_window():
    with shm_sanitizer() as san:
        pool = SlabPool(1 << 20)
        slab = pool.acquire((10,), np.int64)
        slab.array[:] = 7
        pool.release(slab)
        recycled = pool.acquire((10,), np.int64)
        pool.release(recycled)
        pool.close_all()
    assert san.leaked() == []
    assert san.violations == []
    assert san.slab_acquires == 2
    assert san.stamps_verified == 2
    assert "0 leaked" in san.summary()


def test_shm_sanitizer_detects_leak():
    arr = None
    try:
        with pytest.raises(ShmSanitizerError, match="leaked"):
            with shm_sanitizer() as _:
                arr = SharedArray.zeros((4,), np.int64)
                arr.close()  # closed but never unlinked
    finally:
        if arr is not None:
            arr.unlink()
    assert live_segments() == frozenset()


def test_shm_sanitizer_detects_epoch_clobber():
    with pytest.raises(ShmSanitizerError, match="epoch"):
        with shm_sanitizer():
            pool = SlabPool(1 << 20)
            slab = pool.acquire((10,), np.int64)  # capacity 128 > 80 + 8
            raw = np.ndarray(
                (slab.capacity,), np.uint8, buffer=slab.block._shm.buf
            )
            raw[-8:] = 0xAB  # overrun past the requested region
            pool.release(slab)
            pool.close_all()
    assert live_segments() == frozenset()


def test_shm_sanitizer_detects_double_acquire():
    san = ShmSanitizer()

    class _FakeBlock:
        class _FakeShm:
            buf = bytearray(64)

        _shm = _FakeShm()

        class ref:
            name = "psm_fake"

    class _FakeSlab:
        block = _FakeBlock()
        capacity = 64

        class ref:
            nbytes = 64  # no spare tail -> no stamping

    a, b = _FakeSlab(), _FakeSlab()
    san.on_acquire(a)
    san.on_acquire(b)  # same segment name, still checked out
    assert any("already checked out" in v for v in san.violations)


def test_shm_sanitizer_does_not_mask_body_exception():
    with pytest.raises(RuntimeError, match="body failed"):
        with shm_sanitizer():
            arr = SharedArray.zeros((4,), np.int64)
            try:
                raise RuntimeError("body failed")
            finally:
                arr.close()
                arr.unlink()


def test_observer_restored_after_window():
    from repro.analysis import shm as shm_mod

    assert shm_mod._observer is None
    with shm_sanitizer():
        assert shm_mod._observer is not None
    assert shm_mod._observer is None
