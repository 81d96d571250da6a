"""Doubling-map orbit search, rotation numbers, landing pairs, and the
convergent-Cauchy external angle."""

import random
from fractions import Fraction
from math import gcd

import pytest

from quaddyn import cardioid
from quaddyn.angles import Angle, double
from quaddyn.cardioid import (
    ExternalAngle,
    _rotation_word,
    external_angle,
    find_orbit,
    landing_pair,
    rotation_number,
    scan_orbits,
)
from quaddyn.cfrac import CFExpansion, _convergents, cf_expand
from quaddyn.errors import InvariantError, PrecisionError


def circle_distance(a, b):
    """Shorter arc length between two angles, in [0, 1/2]."""
    d = abs(a.fraction - b.fraction)
    return min(d, 1 - d)


GOLDEN = CFExpansion((), (1,))


def _angle_set(orbit):
    return {a.fraction for a in orbit.angles}


def test_find_orbit_known_cycles():
    assert _angle_set(find_orbit(1, 2)) == {Fraction(1, 3), Fraction(2, 3)}
    assert _angle_set(find_orbit(2, 3)) == {Fraction(3, 7), Fraction(5, 7), Fraction(6, 7)}
    assert _angle_set(find_orbit(1, 3)) == {Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)}


def test_orbit_is_closed_under_doubling():
    orbit = find_orbit(3, 7)
    angles = set(orbit.angles)
    for a in angles:
        assert double(a) in angles
        assert a.denominator == 2**7 - 1 or (2**7 - 1) % a.denominator == 0


def test_find_orbit_rejects_bad_input():
    for p, q in ((0, 3), (3, 3), (2, 4), (4, 2)):
        with pytest.raises(InvariantError):
            find_orbit(p, q)


def test_rotation_number_examples():
    assert rotation_number([Angle(1, 3), Angle(2, 3)]) == Fraction(1, 2)
    assert rotation_number([Angle(1, 7), Angle(2, 7), Angle(4, 7)]) == Fraction(1, 3)
    assert rotation_number([Angle(3, 7), Angle(5, 7), Angle(6, 7)]) == Fraction(2, 3)


def test_rotation_number_ignores_input_order():
    shuffled = [Angle(6, 7), Angle(3, 7), Angle(5, 7)]
    assert rotation_number(shuffled) == Fraction(2, 3)


def test_rotation_number_rejects_non_cycles():
    with pytest.raises(InvariantError):
        rotation_number([Angle(1, 3), Angle(1, 7)])


@pytest.mark.parametrize(
    "p,q,expected",
    [
        (1, 2, (Fraction(1, 3), Fraction(2, 3))),
        (2, 3, (Fraction(5, 7), Fraction(6, 7))),
        (3, 5, (Fraction(21, 31), Fraction(22, 31))),
    ],
)
def test_landing_pair_reference_values(p, q, expected):
    lo, hi = landing_pair(p, q)
    assert (lo.fraction, hi.fraction) == expected


def test_landing_gap_is_strict_minimum():
    # Oracle: build the whole cycle and take the cyclically adjacent pair
    # with the smallest forward gap (the first one on a tie, as for q = 2).
    for q in range(2, 40):
        modulus = 2**q - 1
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            angles = find_orbit(p, q).angles
            lo, hi = min(
                zip(angles, angles[1:] + angles[:1]),
                key=lambda pair: (pair[1].fraction - pair[0].fraction) % 1,
            )
            assert landing_pair(p, q) == (lo, hi), f"{p}/{q}"
            # every other pair is strictly farther apart, in units of 1/modulus
            nums = [int(a.fraction * modulus) for a in angles]
            ends = {int(lo.fraction * modulus), int(hi.fraction * modulus)}
            gap = circle_distance(lo, hi) * modulus
            for i, a in enumerate(nums):
                for b in nums[i + 1 :]:
                    if {a, b} != ends:
                        assert gap < min((a - b) % modulus, (b - a) % modulus)


def test_orbit_uniqueness_small_denominators():
    # Exhaustive scan: exactly one cycle per coprime rotation number.
    for q in range(2, 9):
        found = scan_orbits(q)
        expected = {
            Fraction(p, q)
            for p in range(1, q)
            if Fraction(p, q).denominator == q
        }
        assert set(found) == expected
        assert all(len(orbits) == 1 for orbits in found.values())


def test_external_angle_golden_iterates():
    result = external_angle(GOLDEN, 16)
    assert tuple(a.fraction for a in result.iterates[:3]) == (
        Fraction(1, 3),
        Fraction(5, 7),
        Fraction(21, 31),
    )
    assert result.bound == Fraction(1, 2**15)
    assert result.approx.denominator % 2 == 1


def test_external_angle_outputs_are_cauchy():
    coarse = external_angle(GOLDEN, 12)
    fine = external_angle(GOLDEN, 20)
    assert circle_distance(coarse.approx, fine.approx) <= Fraction(2, 2**12)


def test_external_angle_rational_delegates_to_landing_pair():
    result = external_angle(cf_expand(Fraction(1, 2)), 16)
    assert result.exact_pair is not None
    lo, hi = result.exact_pair
    assert (lo.fraction, hi.fraction) == (Fraction(1, 3), Fraction(2, 3))


def test_external_angle_stopping_rule_consistency():
    # Successive kept iterates must differ by less than the requested gap.
    result = external_angle(GOLDEN, 16)
    last_two = result.iterates[-2:]
    assert circle_distance(last_two[0], last_two[1]) < Fraction(1, 2**16)


# -- Fraction oracle: the former external_angle loop, which built an Angle
# -- for every landing pair and compared them with circle_distance


def _oracle_rotation_word(p, q):
    word = 0
    for k in range(q):
        word <<= 1
        if (k * p) % q >= q - p:
            word |= 1
    return word


def _oracle_external_angle(cf, n, max_convergents=600):
    if n < 1:
        raise InvariantError("accuracy exponent must be >= 1")
    if cf.is_rational:
        value = cf.as_fraction()
        lo, hi = landing_pair(value.numerator, value.denominator)
        return ExternalAngle(approx=lo, bound=Fraction(0), iterates=(lo,), exact_pair=(lo, hi))
    threshold = Fraction(1, 2**n)
    iterates = []
    prev = None
    for pp, qq, _, _ in _convergents(map(cf.quotient, range(max_convergents))):
        if pp >= qq:
            continue
        current = Angle((_oracle_rotation_word(pp, qq) << 1) - 1, 2**qq - 1)
        iterates.append(current)
        if prev is not None and circle_distance(current, prev) < threshold:
            return ExternalAngle(
                approx=current, bound=Fraction(1, 2 ** (n - 1)), iterates=tuple(iterates)
            )
        prev = current
    raise PrecisionError(f"stopping rule did not fire within {max_convergents} convergents")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InvariantError, PrecisionError) as exc:
        return (type(exc).__name__, str(exc))


def _sweep_angles():
    """Golden, silver, large quotients, and twelve seeded expansions."""
    rng = random.Random(18)
    angles = [GOLDEN, CFExpansion((), (2,)), CFExpansion((1,), (20,)), CFExpansion((), (9, 1))]
    for _ in range(12):
        pre = tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 4)))
        per = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 3)))
        angles.append(CFExpansion(pre, per))
    return angles


def test_rotation_word_matches_shift_loop():
    for q in range(2, 90):
        for p in range(1, q):
            if gcd(p, q) == 1:
                assert _rotation_word(p, q) == _oracle_rotation_word(p, q), (p, q)
    for p, q in [(6765, 10946), (1, 4096), (1234, 4095), (46367, 46368)]:
        assert _rotation_word(p, q) == _oracle_rotation_word(p, q), (p, q)


def test_external_angle_matches_fraction_oracle():
    rationals = [cf_expand(Fraction(p, q)) for p, q in [(1, 2), (2, 5), (13, 21)]]
    for cf in _sweep_angles() + rationals:
        for n in range(-1, 81):
            got = _outcome(external_angle, cf, n)
            assert got == _outcome(_oracle_external_angle, cf, n), (cf, n)


@pytest.mark.parametrize("limit", [1, 2, 3, 5, 8])
def test_external_angle_gives_up_as_the_oracle_does(monkeypatch, limit):
    monkeypatch.setattr(cardioid, "_MAX_CONVERGENTS", limit)
    failures = 0
    for cf in _sweep_angles():
        for n in (1, 8, 40, 80):
            got = _outcome(external_angle, cf, n)
            assert got == _outcome(_oracle_external_angle, cf, n, limit), (cf, n)
            failures += got == ("PrecisionError", f"stopping rule did not fire within {limit} convergents")
    assert failures > 0
    assert _outcome(_oracle_external_angle, GOLDEN, 80, 5) == (
        "PrecisionError",
        "stopping rule did not fire within 5 convergents",
    )
