"""Unit tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.validation import (
    check_index,
    check_positive,
    check_square,
    check_symmetric_binary,
    check_type,
)


class TestCheckPositive:
    def test_accepts_ints(self):
        assert check_positive("x", 1) == 1
        assert check_positive("x", 5, minimum=5) == 5

    def test_accepts_numpy_ints(self):
        assert check_positive("x", np.int64(3)) == 3
        assert isinstance(check_positive("x", np.int64(3)), int)

    def test_rejects_below_minimum(self):
        with pytest.raises(ValueError, match="x must be >= 1"):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", 4, minimum=5)

    def test_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            check_positive("x", True)
        with pytest.raises(TypeError):
            check_positive("x", 1.0)


class TestCheckIndex:
    def test_accepts_valid(self):
        assert check_index("i", 0, 3) == 0
        assert check_index("i", 2, 3) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            check_index("i", 3, 3)
        with pytest.raises(IndexError):
            check_index("i", -1, 3)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            check_index("i", 1.5, 3)


class TestCheckSquare:
    def test_accepts_square(self):
        m = check_square("m", np.zeros((3, 3)))
        assert m.shape == (3, 3)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            check_square("m", np.zeros((2, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            check_square("m", np.zeros(4))


class TestCheckSymmetricBinary:
    def test_accepts_symmetric(self):
        m = np.array([[0, 1], [1, 0]])
        out = check_symmetric_binary("m", m)
        assert out.dtype == np.int8

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric_binary("m", np.array([[0, 1], [0, 0]]))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0/1"):
            check_symmetric_binary("m", np.array([[0, 2], [2, 0]]))

    @pytest.mark.parametrize("bad, listed", [
        (np.array([[0, 2], [2, 0]]), "[0 2]"),
        (np.array([[0, -1], [-1, 0]]), "[-1  0]"),
        (np.array([[0.0, 0.5], [0.5, 0.0]]), "[0.  0.5]"),
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), "nan"),
        (np.array([[0, 256], [256, 0]], dtype=np.int16), "256"),
    ])
    def test_rejects_and_lists_offending_values(self, bad, listed):
        with pytest.raises(ValueError, match="0/1") as err:
            check_symmetric_binary("m", bad)
        assert listed in str(err.value)

    @pytest.mark.parametrize("dtype", [bool, np.float64, np.int16, np.uint8])
    def test_accepts_zero_one_of_any_dtype(self, dtype):
        m = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 1]], dtype=dtype)
        out = check_symmetric_binary("m", m)
        assert out.dtype == np.int8
        assert out.tolist() == [[0, 1, 1], [1, 0, 0], [1, 0, 1]]

    def test_rejects_asymmetric_after_binary_check(self):
        """Asymmetric 0/1 float input still fails on symmetry."""
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric_binary("m", np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_returns_a_copy(self):
        m = np.array([[0, 1], [1, 0]], dtype=np.int8)
        out = check_symmetric_binary("m", m)
        out[0, 1] = 0
        assert m[0, 1] == 1


class TestCheckType:
    def test_accepts(self):
        assert check_type("x", "s", str) == "s"

    def test_rejects(self):
        with pytest.raises(TypeError):
            check_type("x", 1, str)
