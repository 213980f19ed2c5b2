"""Compensated accumulation for long streams of small float terms."""

from __future__ import annotations

from typing import Iterable

__all__ = ["KahanSum"]


class KahanSum:
    """Neumaier-variant compensated sum.

    Streaming counterpart of math.fsum for places where terms arrive
    one at a time and holding them all would defeat the point.
    """

    __slots__ = ("_sum", "_comp")

    def __init__(self, value: float = 0.0):
        self._sum = float(value)
        self._comp = 0.0

    def add(self, value: float) -> None:
        self.extend((value,))

    def merge(self, other: "KahanSum") -> None:
        self.extend((other._sum, other._comp))

    def extend(self, values: Iterable[float]) -> None:
        """Add each value in turn."""
        s, comp = self._sum, self._comp
        for value in values:
            t = s + value
            if abs(s) >= abs(value):
                comp += (s - t) + value
            else:
                comp += (value - t) + s
            s = t
        self._sum, self._comp = s, comp

    @property
    def total(self) -> float:
        return self._sum + self._comp
