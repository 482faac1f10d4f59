"""Small argument-validation helpers.

These helpers keep constructor bodies readable and produce consistent
error messages.  They raise :class:`~repro.common.errors.ConfigurationError`
(a ``ValueError`` subclass) so user-facing APIs fail with familiar types.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.common.errors import ConfigurationError

__all__ = [
    "require",
    "require_positive",
    "require_non_negative",
    "require_in_range",
    "require_finite",
    "require_length",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def require_positive(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


def require_non_negative(value: int, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigurationError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def require_in_range(value: float, low: float, high: float, name: str) -> float:
    """Validate ``low <= value <= high`` and return ``value``."""
    if not (low <= value <= high):
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def require_finite(
    value: float, name: str, low: float = 0.0, *, strict: bool = False
) -> float:
    """Validate that ``value`` is a finite number ``>= low`` (``> low``
    when ``strict``) and return it.

    NaN compares false with everything, so a bare ``value < low`` check
    lets it through; this one rejects NaN, the infinities and ints
    beyond the float range.
    """
    try:
        finite = math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite or (value <= low if strict else value < low):
        bound = f"> {low:g}" if strict else f">= {low:g}"
        raise ConfigurationError(
            f"{name} must be a finite number {bound}, got {value!r}"
        )
    return value


def require_length(seq: Sequence[object], length: int, name: str) -> Sequence[object]:
    """Validate that ``seq`` has exactly ``length`` elements and return it."""
    if len(seq) != length:
        raise ConfigurationError(f"{name} must have length {length}, got {len(seq)}")
    return seq
