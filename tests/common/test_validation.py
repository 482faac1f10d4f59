"""Unit tests for argument-validation helpers."""

import pytest

from repro.common import ConfigurationError
from repro.common.validation import (
    require,
    require_finite,
    require_in_range,
    require_length,
    require_non_negative,
    require_positive,
)


class TestRequire:
    def test_passes_silently(self):
        require(True, "never shown")

    def test_raises_with_message(self):
        with pytest.raises(ConfigurationError, match="boom"):
            require(False, "boom")


class TestRequirePositive:
    def test_accepts_and_returns(self):
        assert require_positive(3, "x") == 3

    @pytest.mark.parametrize("value", [0, -1, 1.5, "3", True])
    def test_rejects(self, value):
        with pytest.raises(ConfigurationError, match="x must be"):
            require_positive(value, "x")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0, "x") == 0

    @pytest.mark.parametrize("value", [-1, 0.0, False])
    def test_rejects(self, value):
        with pytest.raises(ConfigurationError):
            require_non_negative(value, "x")


class TestRequireInRange:
    def test_inclusive_bounds(self):
        assert require_in_range(0.0, 0.0, 1.0, "p") == 0.0
        assert require_in_range(1.0, 0.0, 1.0, "p") == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ConfigurationError):
            require_in_range(1.01, 0.0, 1.0, "p")


class TestRequireFinite:
    def test_accepts_and_returns(self):
        assert require_finite(0.0, "t") == 0.0
        assert require_finite(5, "t", 5) == 5
        assert require_finite(2.5, "t", 1.0, strict=True) == 2.5

    @pytest.mark.parametrize("value, low, strict", [
        (float("nan"), 0.0, False),
        (float("inf"), 0.0, False),
        (float("-inf"), 0.0, False),
        (10**400, 0.0, False),
        ("3", 0.0, False),
        (None, 0.0, False),
        (-0.5, 0.0, False),
        (0.0, 0.0, True),
        (3.0, 4.0, True),
    ])
    def test_rejects_naming_the_field(self, value, low, strict):
        with pytest.raises(ConfigurationError, match="^t must be a finite"):
            require_finite(value, "t", low, strict=strict)


class TestRequireLength:
    def test_accepts(self):
        assert require_length([1, 2], 2, "xs") == [1, 2]

    def test_rejects(self):
        with pytest.raises(ConfigurationError, match="length 3"):
            require_length([1], 3, "xs")
