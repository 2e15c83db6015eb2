"""Shared-memory hygiene violations (lint fixture, never imported)."""


def leak_attach(ref):
    handle = SharedArray.attach(ref)  # SHM201: never closed, never escapes
    total = handle.array.sum()
    return int(total)


def publish_pair(a, b):
    src = SharedArray.create(a)  # noqa: F821
    dst = SharedArray.create(b)  # SHM202: unguarded second acquisition
    return src, dst


def drain(queue_lock, conn):
    with queue_lock:
        payload = conn.recv()  # LOCK301: blocking recv under a held lock
    return payload
