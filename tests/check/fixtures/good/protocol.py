"""Wire-protocol handling done right: the near-miss twins of the bad
protocol fixture.

Every header-decoded length passes a bounds check (or a validator
call) before sizing anything."""

import struct

import numpy as np

HEADER = struct.Struct("<IIQ")  # 16 bytes

MAX_EDGES = 1 << 24


def decode(header, payload):
    if header.m > MAX_EDGES:
        raise ValueError(f"header declares {header.m} edges; cap is "
                         f"{MAX_EDGES}")
    flat = np.frombuffer(payload, dtype=np.uint64, count=header.m)
    return flat[:header.m]


def decode_via_validator(header, payload):
    m = _validated_length(header.m)
    return np.frombuffer(payload, dtype=np.uint64, count=m)


def _validated_length(m):
    if not 0 <= m <= MAX_EDGES:
        raise ValueError(f"length {m} out of range")
    return m


def read_body(sock, hdr):
    if hdr.payload_bytes > MAX_EDGES * 16:
        raise ValueError("oversized payload")
    return sock.recv(hdr.payload_bytes)


def parse(buf):
    kind, flags, request_id = HEADER.unpack(buf)
    return kind, flags, request_id


def constant_sizes_are_fine(sock):
    return sock.recv(4096)
