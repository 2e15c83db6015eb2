"""Runtime shm sanitizer: the dynamic counterpart of the SHM rules.

:class:`ShmSanitizer` observes the shared-memory layer
(:mod:`repro.analysis.shm`): it tracks every segment created, attached
and unlinked during its window, stamps a **write epoch** into the
spare tail of every pooled slab handed out and verifies the stamp on
release (a concurrent writer overrunning its requested region clobbers
the stamp), and flags double-acquisition of a live slab.  On exit it
fails loudly on any segment the window leaked.

Entry point: the :func:`shm_sanitizer` context manager, wrapped around
any code that drives the shared-memory pool -- for example a
``connected_components_sharded`` solve on a
:class:`~repro.serve.executor.PoolExecutor` (CI runs exactly that).
The GCA write barrier lives in :mod:`repro.gca.sanitized`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np


class ShmSanitizerError(RuntimeError):
    """The shm sanitizer found leaked segments or write-epoch races."""


#: Bytes of slab tail needed to hold one epoch stamp.
_STAMP_BYTES = 8


class ShmSanitizer:
    """Observer for :mod:`repro.analysis.shm` (install via
    :func:`shm_sanitizer`).

    Tracks create/attach/close/unlink per segment, stamps a
    monotonically increasing epoch into the spare tail of every pooled
    slab on acquire and re-checks it on release.  Thread-safe (the
    sharded engine acquires pool slabs from several threads).
    """

    def __init__(self) -> None:
        import threading

        self._lock = threading.Lock()
        self.created: Dict[str, int] = {}
        self.unlinked: set = set()
        self.attaches = 0
        self.closes = 0
        self.slab_acquires = 0
        self.stamps_verified = 0
        self.violations: List[str] = []
        self._epoch = 0
        self._checked_out: Dict[int, Tuple[str, Optional[int], int]] = {}

    # -- observer hooks (called by repro.analysis.shm) ------------------
    def on_create(self, name: str, nbytes: int) -> None:
        with self._lock:
            self.created[name] = nbytes

    def on_unlink(self, name: str) -> None:
        with self._lock:
            self.unlinked.add(name)

    def on_attach(self, name: str) -> None:
        with self._lock:
            self.attaches += 1

    def on_close(self, name: str) -> None:
        with self._lock:
            self.closes += 1

    def on_acquire(self, slab: Any) -> None:
        tail = self._tail_view(slab)
        with self._lock:
            self.slab_acquires += 1
            self._epoch += 1
            epoch = self._epoch
            for _key, (name, _stamp, _e) in self._checked_out.items():
                if name == slab.block.ref.name:
                    self.violations.append(
                        f"slab {name} acquired while already checked out"
                    )
            stamp = None
            if tail is not None:
                tail[0] = epoch
                stamp = epoch
            self._checked_out[id(slab)] = (
                slab.block.ref.name, stamp, epoch
            )

    def on_release(self, slab: Any) -> None:
        tail = self._tail_view(slab)
        with self._lock:
            entry = self._checked_out.pop(id(slab), None)
            if entry is None:
                self.violations.append(
                    f"slab {slab.block.ref.name} released but never "
                    "acquired during the sanitizer window"
                )
                return
            name, stamp, _epoch = entry
            if stamp is not None and tail is not None:
                if int(tail[0]) == stamp:
                    self.stamps_verified += 1
                else:
                    self.violations.append(
                        f"slab {name}: write-epoch stamp clobbered "
                        f"(expected {stamp}, found {int(tail[0])}); a "
                        "writer overran its requested region"
                    )

    # -- verdicts -------------------------------------------------------
    @staticmethod
    def _tail_view(slab: Any) -> Optional[np.ndarray]:
        """The epoch slot: the last 8 bytes of the slab's block, when
        the requested array leaves at least that much spare capacity."""
        if slab.capacity - slab.ref.nbytes < _STAMP_BYTES:
            return None
        return np.ndarray(
            (1,), dtype=np.int64, buffer=slab.block._shm.buf,
            offset=slab.capacity - _STAMP_BYTES,
        )

    def leaked(self) -> List[str]:
        """Segments created during the window and never unlinked."""
        with self._lock:
            return sorted(set(self.created) - self.unlinked)

    def verify(self) -> None:
        """Raise :class:`ShmSanitizerError` on leaks or violations."""
        problems = list(self.violations)
        leaks = self.leaked()
        if leaks:
            problems.append(
                f"{len(leaks)} leaked shm segment(s): {', '.join(leaks)}"
            )
        if problems:
            raise ShmSanitizerError("; ".join(problems))

    def summary(self) -> str:
        return (
            f"shm sanitizer: {len(self.created)} segments created, "
            f"{self.attaches} attaches, {self.slab_acquires} slab "
            f"acquires, {self.stamps_verified} epoch stamps verified, "
            f"{len(self.leaked())} leaked, "
            f"{len(self.violations)} violations"
        )


@contextmanager
def shm_sanitizer(strict: bool = True) -> Iterator[ShmSanitizer]:
    """Install a :class:`ShmSanitizer` for the duration of the block.

    On clean exit, :meth:`ShmSanitizer.verify` runs (unless
    ``strict=False``) and raises :class:`ShmSanitizerError` on leaked
    segments or epoch races.  An exception inside the block propagates
    unmasked; the observer is restored either way.
    """
    # imported here, not at module top: repro.check is a closed layer
    # (stdlib+numpy only at the top level; ARCH601 enforces it)
    from repro.analysis import shm as shm_mod

    sanitizer = ShmSanitizer()
    previous = shm_mod.set_shm_observer(sanitizer)
    try:
        yield sanitizer
    finally:
        shm_mod.set_shm_observer(previous)
    if strict:
        sanitizer.verify()
