"""Exact rational arithmetic on the circle R/Z.

An angle is a reduced fraction normalized to [0, 1).  All operations here
are exact; nothing in this module touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from typing import Iterable

from .errors import InvariantError

__all__ = [
    "Angle",
    "double",
    "cyclic_sort",
]


@total_ordering
class Angle:
    """A point of R/Z stored as a reduced fraction in [0, 1)."""

    __slots__ = ("_frac",)

    def __init__(self, numerator, denominator=1):
        self._frac = Fraction(numerator, denominator) % 1

    @property
    def fraction(self) -> Fraction:
        return self._frac

    @property
    def numerator(self) -> int:
        return self._frac.numerator

    @property
    def denominator(self) -> int:
        return self._frac.denominator

    def __eq__(self, other):
        if isinstance(other, Angle):
            return self._frac == other._frac
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, Angle):
            return self._frac < other._frac
        return NotImplemented

    def __hash__(self):
        return hash(self._frac)

    def __str__(self):
        return f"{self._frac.numerator}/{self._frac.denominator}"

    def __repr__(self):
        return f"Angle({self._frac.numerator}, {self._frac.denominator})"


def double(a: Angle) -> Angle:
    """Image of a under x -> 2x mod 1."""
    return Angle(2 * a.fraction)


def cyclic_sort(angles: Iterable[Angle]) -> list[Angle]:
    """Sort angles by circle position, starting from the smallest representative.

    Duplicates are rejected because downstream orbit code relies on
    distinctness.
    """
    ordered = sorted(angles)
    for u, v in zip(ordered, ordered[1:]):
        if u == v:
            raise InvariantError(f"duplicate angle in cyclic_sort: {u}")
    return ordered
