"""Planted wire-protocol violations.

PROTO501: a header-decoded length sizes an allocation and bounds a
slice with no validation between decode and use (the rule engages
only in modules that import struct)."""

import struct  # noqa: F401

import numpy as np


def decode(header, payload):
    flat = np.frombuffer(payload, dtype=np.uint64, count=header.m)
    return flat[:header.m]


def read_body(sock, hdr):
    return sock.recv(hdr.payload_bytes)
