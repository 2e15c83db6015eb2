"""Uniform argument validation.

Every public entry point of the library validates its inputs through these
helpers so error messages are consistent and tests can assert on them.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def check_positive(name: str, value: int, minimum: int = 1) -> int:
    """Check that ``value`` is an integer ``>= minimum`` and return it.

    Accepts any integral type (including NumPy integers) but rejects bools,
    floats and other types.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_index(name: str, value: int, size: int) -> int:
    """Check that ``value`` is a valid index into a container of ``size``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if not 0 <= value < size:
        raise IndexError(f"{name} must be in [0, {size}), got {value}")
    return int(value)


def check_square(name: str, matrix: np.ndarray) -> np.ndarray:
    """Check that ``matrix`` is a 2-D square NumPy array and return it."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"{name} must be a square 2-D array, got shape {matrix.shape}"
        )
    return matrix


def check_symmetric_binary(name: str, matrix: np.ndarray) -> np.ndarray:
    """Check that ``matrix`` is a square, symmetric, 0/1 adjacency matrix.

    The diagonal may be anything on input; callers normalise it.  Returns a
    fresh ``np.int8`` copy of the matrix.
    """
    matrix = check_square(name, matrix)
    # an elementwise test, not np.unique: NumPy >= 2.3 hashes in unique,
    # which dominates validating a large matrix; the sorted value list is
    # only built for the error message
    if not np.logical_or(matrix == 0, matrix == 1).all():
        values = np.unique(matrix)
        raise ValueError(
            f"{name} must contain only 0/1 entries, found values {values[:10]}"
        )
    # 0/1 casts losslessly, and the transpose is cheaper to read as int8
    out = matrix.astype(np.int8)
    if not np.array_equal(out, out.T):
        raise ValueError(f"{name} must be symmetric (undirected graph)")
    return out


def check_type(name: str, value: Any, expected: type) -> Any:
    """Check that ``value`` is an instance of ``expected`` and return it."""
    if not isinstance(value, expected):
        raise TypeError(
            f"{name} must be {expected.__name__}, got {type(value).__name__}"
        )
    return value
