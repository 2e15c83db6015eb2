"""Shared fixtures of the serve tests."""

import threading

import pytest

#: Seconds a test's leftover server workers get to finish before the
#: leak guard fails the test.
JOIN_SECONDS = 5.0


def _serve_workers():
    return {t for t in threading.enumerate()
            if t.name.startswith("repro-serve-worker")}


@pytest.fixture(autouse=True)
def no_leaked_serve_workers():
    """Fail a test that leaves a server worker thread running: every
    server a test starts must be stopped by its end."""
    before = _serve_workers()
    yield
    leaked = _serve_workers() - before
    for thread in leaked:
        thread.join(JOIN_SECONDS)
    alive = sorted(t.name for t in leaked if t.is_alive())
    assert not alive, f"serve worker threads still running: {alive}"
