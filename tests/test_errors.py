import math

import numpy as np
import pytest

from varprop.errors import (
    InvalidInputError,
    InvalidParameterError,
    checked_int,
    checked_lam,
    integer_array,
)


class TestCheckedInt:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3)])
    def test_integers_pass_as_int(self, value):
        out = checked_int(value, "x", low=1, high=4)
        assert out == 3 and type(out) is int

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 3.0, 2.5, math.nan, "3", None])
    def test_non_integers_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="x must be an integer, got .*integers"):
            checked_int(value, "x")

    def test_bounds_are_low_inclusive_and_high_exclusive(self):
        assert checked_int(-5, "x") == -5
        assert checked_int(1, "x", low=1, high=2) == 1
        with pytest.raises(InvalidParameterError, match=r"^x must be >= 1 and an integer, got 0$"):
            checked_int(0, "x", low=1)
        with pytest.raises(InvalidParameterError,
                           match=r"^x must be >= 1 and < 2 and an integer, got 2$"):
            checked_int(2, "x", low=1, high=2)


class TestCheckedLam:
    @pytest.mark.parametrize("value", [0, 0.0, 2.5, np.float64(2.5), np.float32(2.5), 7])
    def test_finite_nonnegative_passes_as_float(self, value):
        out = checked_lam(value)
        assert out == float(value) and type(out) is float

    @pytest.mark.parametrize(
        "value",
        # a string or None used to raise a bare TypeError from the comparison
        [True, False, np.bool_(True), -0.1, -math.inf, math.inf, math.nan, "0.1", None],
    )
    def test_others_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="^lam must be finite and >= 0"):
            checked_lam(value)

    def test_name_in_message(self):
        with pytest.raises(InvalidParameterError, match="^fraction must be finite"):
            checked_lam(-1.0, "fraction")


class TestIntegerArray:
    def test_integer_dtypes_become_int64(self):
        out = integer_array(np.array([1, 2], dtype=np.uint8), "idx")
        assert out.dtype == np.int64 and out.tolist() == [1, 2]
        assert integer_array([], "idx").size == 0

    @pytest.mark.parametrize("values", [[1.0, 2.0], [True, False]])
    def test_other_dtypes_rejected(self, values):
        with pytest.raises(InvalidInputError, match="idx must have an integer dtype"):
            integer_array(values, "idx")
