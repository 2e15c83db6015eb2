"""Regression tests pinning the error-path fixes the lint rules found.

Three latent issues surfaced while bringing ``src/`` clean under
``python -m repro check``:

* ``share_edge_list`` leaked the ``src`` segment when the ``dst``
  create failed (SHM202);
* ``attach_edge_list`` pinned the ``src`` mapping when the ``dst``
  attach failed (SHM202);
* ``PoolExecutor`` built multi-slab batches with unguarded consecutive
  acquisitions (SHM202) and forked replacement workers while holding
  the pool lock (LOCK301) -- the fork now happens outside the critical
  section (pinned by the lint self-check staying clean).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.shm import (
    SharedArray,
    SlabPool,
    attach_edge_list,
    live_segments,
    share_edge_list,
)
from repro.hirschberg.edgelist import random_edge_list
from repro.serve.executor import PoolExecutor


def test_share_edge_list_rolls_back_on_second_create_failure(monkeypatch):
    graph = random_edge_list(8, 12, seed=0)
    before = live_segments()
    calls = {"n": 0}
    original = SharedArray.create.__func__

    def failing(cls, source):
        calls["n"] += 1
        if calls["n"] == 2:
            raise OSError("synthetic ENOSPC")
        return original(cls, source)

    monkeypatch.setattr(SharedArray, "create", classmethod(failing))
    with pytest.raises(OSError, match="ENOSPC"):
        share_edge_list(graph)
    assert live_segments() == before  # the first segment was unlinked


def test_attach_edge_list_closes_first_mapping_on_failure(monkeypatch):
    graph = random_edge_list(8, 12, seed=1)
    workspace, ref = share_edge_list(graph)
    closed = []
    original_close = SharedArray.close

    def spying_close(self):
        closed.append(self.ref.name)
        original_close(self)

    try:
        monkeypatch.setattr(SharedArray, "close", spying_close)
        calls = {"n": 0}
        original_attach = SharedArray.attach.__func__

        def failing(cls, array_ref):
            calls["n"] += 1
            if calls["n"] == 2:
                raise FileNotFoundError("owner unlinked dst")
            return original_attach(cls, array_ref)

        monkeypatch.setattr(SharedArray, "attach", classmethod(failing))
        with pytest.raises(FileNotFoundError):
            attach_edge_list(ref)
        assert ref.src.name in closed  # src mapping rolled back
    finally:
        monkeypatch.setattr(SharedArray, "close", original_close)
        workspace.close()
        workspace.unlink()
    assert live_segments() == frozenset()


def test_pool_acquire_slabs_rolls_back_partial_batch(monkeypatch):
    executor = PoolExecutor(workers=1)  # never started
    try:
        before = live_segments()  # just the heartbeat segment
        calls = {"n": 0}
        original = SlabPool.acquire

        def failing(self, shape, dtype=np.int64):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("synthetic shm exhaustion")
            return original(self, shape, dtype)

        monkeypatch.setattr(SlabPool, "acquire", failing)
        with pytest.raises(OSError, match="exhaustion"):
            executor._acquire_slabs(
                [((16,), np.int64), ((16,), np.int64)]
            )
        monkeypatch.setattr(SlabPool, "acquire", original)
        # the first slab was discarded (unlinked), not left checked out
        assert live_segments() == before
    finally:
        executor._slabs.close_all()
        executor._hb.close()
        executor._hb.unlink()
    assert live_segments() == frozenset()


def test_acquire_slabs_success_path():
    executor = PoolExecutor(workers=1)
    try:
        slabs = executor._acquire_slabs(
            [((4, 4), np.int8), ((4,), np.int64)]
        )
        assert [s.array.shape for s in slabs] == [(4, 4), (4,)]
        for slab in slabs:
            executor._slabs.release(slab)
    finally:
        executor._slabs.close_all()
        executor._hb.close()
        executor._hb.unlink()
    assert live_segments() == frozenset()
