"""Tests for the parameter-validation helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.util.validation import (
    check_in_range,
    check_max_slots,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestCheckMaxSlots:
    def test_accepts_integers(self):
        assert check_max_slots(1) == 1
        cap = check_max_slots(np.int64(7))
        assert cap == 7 and type(cap) is int

    @pytest.mark.parametrize("value", [None, 2.5, 3.0, "10", True])
    def test_rejects_non_integers(self, value):
        with pytest.raises(TypeError, match="max_slots"):
            check_max_slots(value)

    def test_accepts_the_largest_int64(self):
        assert check_max_slots(2**63 - 1) == 2**63 - 1

    @pytest.mark.parametrize("value", [0, -1, np.int64(-5), 2**63])
    def test_rejects_caps_outside_int64_range(self, value):
        with pytest.raises(ValueError, match="max_slots"):
            check_max_slots(value)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2.5) == 2.5

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -1)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            check_positive("x", math.nan)
        with pytest.raises(ValueError):
            check_positive("x", math.inf)

    def test_returns_float(self):
        assert isinstance(check_positive("x", 3), float)


class TestCheckPositiveInt:
    def test_accepts_positive_int(self):
        assert check_positive_int("k", 7) == 7

    def test_rejects_zero_negative(self):
        with pytest.raises(ValueError):
            check_positive_int("k", 0)
        with pytest.raises(ValueError):
            check_positive_int("k", -3)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int("k", True)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int("k", 3.0)


class TestCheckProbability:
    def test_accepts_interior_and_one(self):
        assert check_probability("p", 0.5) == 0.5
        assert check_probability("p", 1.0) == 1.0

    def test_zero_rejected_by_default(self):
        with pytest.raises(ValueError):
            check_probability("p", 0.0)

    def test_zero_allowed_when_requested(self):
        assert check_probability("p", 0.0, allow_zero=True) == 0.0

    def test_above_one_rejected(self):
        with pytest.raises(ValueError):
            check_probability("p", 1.0001)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            check_probability("p", math.nan)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("d", 1.0, 1.0, 2.0) == 1.0
        assert check_in_range("d", 2.0, 1.0, 2.0) == 2.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range("d", 1.0, 1.0, 2.0, low_inclusive=False)
        with pytest.raises(ValueError):
            check_in_range("d", 2.0, 1.0, 2.0, high_inclusive=False)

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            check_in_range("d", 2.5, 1.0, 2.0)

    def test_error_message_mentions_name(self):
        with pytest.raises(ValueError, match="delta"):
            check_in_range("delta", 5.0, 0.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            check_in_range("d", math.nan, 0.0, 1.0)
