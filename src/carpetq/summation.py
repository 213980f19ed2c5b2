"""Compensated summation for long runs of small float terms."""

from __future__ import annotations

from typing import Iterable

__all__ = ["neumaier"]


def neumaier(values: Iterable[float]) -> float:
    """Neumaier-variant compensated sum of ``values``, in the order given.

    Cheaper than math.fsum and not correctly rounded; the order of the
    values is part of the result.
    """
    s = comp = 0.0
    for value in values:
        t = s + value
        if abs(s) >= abs(value):
            comp += (s - t) + value
        else:
            comp += (value - t) + s
        s = t
    return s + comp
