"""Exact circle arithmetic: normalization, doubling, cyclic order."""

from fractions import Fraction

from quaddyn.angles import Angle, cyclic_sort, double


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


def test_cyclic_sort_is_rotation_invariant():
    angles = [Angle(5, 7), Angle(1, 7), Angle(4, 7), Angle(2, 7)]
    base = cyclic_sort(angles)
    assert base == cyclic_sort(angles[2:] + angles[:2])
    fracs = [a.fraction for a in base]
    assert fracs == sorted(fracs)
