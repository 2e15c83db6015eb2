"""Uniform argument validation.

Every public entry point of the library validates its inputs through these
helpers so error messages are consistent and tests can assert on them.
"""

from __future__ import annotations

from typing import Any, Optional

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


#: The density line of the adjacency check: a matrix with at most
#: ``n * n / SPARSE_DIVISOR`` nonzeros is checked through its nonzeros,
#: and a batch of such graphs runs on pairs from iteration 0
#: (:mod:`repro.core.batched`).  EXPERIMENTS.md E38 has the measurement
#: that set it.
SPARSE_DIVISOR = 48


def check_symmetric_binary(name: str, matrix: np.ndarray) -> np.ndarray:
    """Check that ``matrix`` is a square, symmetric, 0/1 adjacency matrix.

    The diagonal may be anything on input; callers normalise it.  Returns a
    fresh ``np.int8`` copy of the matrix.
    """
    matrix = check_square(name, matrix)
    out = np.empty(matrix.shape, dtype=np.int8)
    check_adjacency_into(name, matrix, out.view(np.bool_))
    return out


def check_adjacency_into(
    name: str, matrix: np.ndarray, out: np.ndarray
) -> Optional[np.ndarray]:
    """Write ``matrix != 0`` into the bool ``out`` and check the matrix.

    The one rule behind :func:`check_symmetric_binary` and
    :class:`repro.core.batched.BatchedGCA`: the square ``matrix`` (its
    diagonal included) must hold only 0/1 entries and be symmetric.  It
    reads ``matrix`` once.  With at most ``n * n / SPARSE_DIVISOR``
    nonzeros both tests run on the nonzeros' flat keys ``i * n + j``,
    which are returned (sorted); a denser matrix is tested on all its
    entries (an integer one by its ``min`` and ``max``) and by the bool
    ``out == out.T`` compare, and ``None`` is returned.
    """
    if matrix.dtype.kind in "SU":  # text holds no 0/1 entries
        _raise_not_binary(name, matrix)
    np.not_equal(matrix, 0, out=out)
    n = out.shape[0]
    keys = sparse_keys(out)
    if keys is not None:
        i, j = np.divmod(keys, n)
        binary = (matrix[i, j] == 1).all()
    elif matrix.dtype.kind == "b":
        binary = True
    elif matrix.dtype.kind in "iu":
        binary = matrix.min() >= 0 and matrix.max() <= 1
    else:
        binary = np.logical_or(matrix == 0, matrix == 1).all()
    if not binary:
        _raise_not_binary(name, matrix)
    if keys is None:
        symmetric = np.array_equal(out, out.T)
    else:
        symmetric = out[j, i].all()
    if not symmetric:
        raise ValueError(f"{name} must be symmetric (undirected graph)")
    return keys


def sparse_keys(adjacent: np.ndarray) -> Optional[np.ndarray]:
    """Sorted flat keys ``i * n + j`` of the nonzeros of the square bool
    ``adjacent`` if there are at most ``n * n / SPARSE_DIVISOR``, else
    ``None``."""
    n = adjacent.shape[0]
    if SPARSE_DIVISOR * np.count_nonzero(adjacent) > n * n:
        return None
    return np.flatnonzero(adjacent)


def _raise_not_binary(name: str, matrix: np.ndarray) -> None:
    # the sorted value list is only built for the error message: np.unique
    # hashes in NumPy >= 2.3, which would dominate a passing check
    values = np.unique(matrix)
    raise ValueError(
        f"{name} must contain only 0/1 entries, found values {values[:10]}"
    )


def check_type(name: str, value: Any, expected: type) -> Any:
    """Check that ``value`` is an instance of ``expected`` and return it."""
    if not isinstance(value, expected):
        raise TypeError(
            f"{name} must be {expected.__name__}, got {type(value).__name__}"
        )
    return value
