"""Exact circle arithmetic: normalization, doubling, distances, cyclic order."""

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from quaddyn.angles import (
    Angle,
    circle_distance,
    cyclic_sort,
    double,
)


def test_normalization_wraps_into_unit_interval():
    assert Angle(7, 7) == Angle(0)
    assert Angle(-1, 3) == Angle(2, 3)
    assert Angle(Fraction(9, 4)).fraction == Fraction(1, 4)


def test_double_and_preimages_are_inverse():
    a = Angle(3, 7)
    assert double(a) == Angle(6, 7)
    lo, hi = Angle(3, 14), Angle(5, 7)
    assert double(lo) == a
    assert double(hi) == a
    assert circle_distance(lo, hi) == Fraction(1, 2)


def test_circle_distance_symmetric_and_bounded():
    rng = random.Random(7)
    for _ in range(200):
        a = Angle(rng.randrange(0, 64), 64)
        b = Angle(rng.randrange(1, 97), 97)
        d = circle_distance(a, b)
        assert d == circle_distance(b, a)
        assert 0 <= d <= Fraction(1, 2)


def test_circle_distance_wraps_around_zero():
    assert circle_distance(Angle(1, 16), Angle(15, 16)) == Fraction(1, 8)


def test_cyclic_sort_is_rotation_invariant():
    angles = [Angle(5, 7), Angle(1, 7), Angle(4, 7), Angle(2, 7)]
    base = cyclic_sort(angles)
    assert base == cyclic_sort(angles[2:] + angles[:2])
    fracs = [a.fraction for a in base]
    assert fracs == sorted(fracs)


@given(
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
)
def test_circle_distance_triangle_inequality(x, y, z):
    a, b, c = Angle(x), Angle(y), Angle(z)
    assert circle_distance(a, c) <= circle_distance(a, b) + circle_distance(b, c)
