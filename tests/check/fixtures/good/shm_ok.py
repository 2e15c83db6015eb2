"""Shared-memory hygiene done right (lint fixture, never imported)."""


def publish_pair(a, b):
    src = SharedArray.create(a)  # noqa: F821
    try:
        dst = SharedArray.create(b)  # guarded: failure rolls back src
    except BaseException:
        src.close()
        src.unlink()
        raise
    return src, dst  # ownership escapes to the caller


def probe(ref):
    handle = SharedArray.attach(ref)  # noqa: F821
    try:
        return int(handle.array.sum())
    finally:
        handle.close()  # released on every path


def drain(queue_lock, conn):
    with queue_lock:
        item = pop_item()  # noqa: F821 -- non-blocking under the lock
    payload = conn.recv()  # blocking call happens outside the lock
    return item, payload
