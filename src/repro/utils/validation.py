"""Small argument-validation helpers.

These raise ``ValueError`` with consistent, greppable messages.  They exist
so configuration dataclasses across the package validate uniformly instead of
each re-implementing slightly different checks.
"""

from __future__ import annotations


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for fluent use."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_count(name: str, value: float) -> int:
    """Require ``int(value) >= 1`` (a packet count or a number of queues);
    return ``int(value)``.  A fraction that truncates to zero is rejected
    rather than silently becoming 0."""
    count = int(value)
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")
    return count


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it for fluent use."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_in_range(name: str, value: float, low: float, high: float) -> float:
    """Require ``low <= value <= high``; return it for fluent use."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it for fluent use."""
    return check_in_range(name, value, 0.0, 1.0)
