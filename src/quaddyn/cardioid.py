"""Rotation cycles of the doubling map and the external angles they pin down.

A q-periodic angle of x -> 2x mod 1 is k/(2^q - 1), and doubling acts on the
q-bit numerator as a cyclic shift.  For each reduced p/q in (0, 1) exactly one
such cycle has combinatorial rotation number p/q; its two closest elements
form the landing pair used to approximate external angles of irrational
internal angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .angles import Angle, cyclic_sort, double
from .cfrac import CFExpansion, _convergents
from .errors import InvariantError, PrecisionError

__all__ = [
    "PeriodicOrbit",
    "find_orbit",
    "scan_orbits",
    "rotation_number",
    "landing_pair",
    "external_angle",
    "ExternalAngle",
    "MAX_PERIOD",
]


@dataclass(frozen=True)
class PeriodicOrbit:
    """A doubling-map cycle in circle order."""

    angles: tuple[Angle, ...]

    @property
    def period(self) -> int:
        return len(self.angles)


def _validate_pq(p: int, q: int) -> None:
    if q < 2 or not 0 < p < q:
        raise InvariantError(f"rotation number must satisfy 0 < p < q, got {p}/{q}")
    if Fraction(p, q).denominator != q:
        raise InvariantError(f"rotation number {p}/{q} is not in lowest terms")


# largest period q of a rotation word; its cost is in the README's ceiling table
MAX_PERIOD = 2**20


def _rotation_word(p: int, q: int) -> int:
    """Numerator of one cycle element, as a q-bit word.

    Bit k (most significant first) records whether the rigid rotation orbit
    point {k*p/q} lies in the wrap arc [1 - p/q, 1); the resulting word over
    2^q - 1 is an element of the unique cycle with rotation number p/q.
    Periods above MAX_PERIOD are refused before the word is built.
    """
    if q > MAX_PERIOD:
        raise InvariantError(f"period {q} is above the ceiling {MAX_PERIOD}")
    wrap = q - p
    return int("".join(["1" if k * p % q >= wrap else "0" for k in range(q)]), 2)


def _shift_of(ordered: list, doubled: list) -> int | None:
    """Constant index shift of doubling on a sorted cycle, or None.

    doubled[i] is the image of ordered[i]; None means some image is missing
    from the cycle or the shift is not the same at every point.
    """
    index = {v: i for i, v in enumerate(ordered)}
    shifts = {
        (index[w] - i) % len(ordered) if w in index else None
        for i, w in enumerate(doubled)
    }
    return shifts.pop() if len(shifts) == 1 else None


def find_orbit(p: int, q: int) -> PeriodicOrbit:
    """The unique doubling cycle with rotation number p/q.

    Built directly from the rotation word, so large periods stay cheap; the
    exhaustive search over all k/(2^q - 1) lives in scan_orbits and the test
    suite cross-checks the two for every q up to 12.
    """
    _validate_pq(p, q)
    modulus = (1 << q) - 1
    word = _rotation_word(p, q)
    nums = sorted(((word << k) | (word >> (q - k))) & modulus for k in range(q))
    if len(set(nums)) != q:
        raise InvariantError(f"rotation word for {p}/{q} is not primitive")
    shift = _shift_of(nums, [(2 * v) % modulus for v in nums])
    if shift is None or Fraction(shift, q) != Fraction(p, q):
        raise InvariantError(f"constructed cycle fails rotation check for {p}/{q}")
    return PeriodicOrbit(tuple(Angle(v, modulus) for v in nums))


def scan_orbits(q: int) -> dict[Fraction, list[tuple[int, ...]]]:
    """Exhaustive scan of all k/(2^q - 1): rotation number -> sorted cycles.

    Cycles are returned as sorted numerator tuples over 2^q - 1.  Cycles of
    period strictly less than q and cycles without a coherent rotation number
    are skipped.  Cost grows like 2^q; keep q modest.
    """
    if q < 2:
        raise InvariantError("need q >= 2")
    modulus = (1 << q) - 1
    seen = bytearray(modulus)
    found: dict[Fraction, list[tuple[int, ...]]] = {}
    for k in range(1, modulus):
        if seen[k]:
            continue
        orbit = []
        v = k
        while not seen[v]:
            seen[v] = 1
            orbit.append(v)
            v = (2 * v) % modulus
        if v != k or len(orbit) != q:
            continue
        nums = sorted(orbit)
        shift = _shift_of(nums, [(2 * v) % modulus for v in nums])
        if shift is None or shift == 0:
            continue
        rot = Fraction(shift, q)
        if rot.denominator != q:
            # Coherent shift but not a primitive rotation number for this q.
            continue
        found.setdefault(rot, []).append(tuple(nums))
    return found


def rotation_number(angles: list[Angle]) -> Fraction:
    """Rotation number of a doubling cycle given in any order.

    Rejects inputs that are not a single doubling cycle acting by a constant
    shift in circle order.
    """
    if len(angles) < 2:
        raise InvariantError("need at least two angles")
    ordered = cyclic_sort(angles)
    q = len(ordered)
    shift = _shift_of(ordered, [double(a) for a in ordered])
    if shift is None:
        raise InvariantError(
            f"{q} angles are not closed under doubling with a constant shift"
        )
    if shift == 0 or gcd(shift, q) != 1:
        raise InvariantError(f"shift {shift} over {q} points is not a single cycle")
    return Fraction(shift, q)


def landing_pair(p: int, q: int) -> tuple[Angle, Angle]:
    """The two cycle elements realizing the minimal gap, in wake order.

    Closed form (Goldberg, Ann. Sci. ENS 25, 1992; Bullett and Sentenac,
    Math. Proc. Camb. Phil. Soc. 115, 1994): the pair is (w - 1, w) over
    2^q - 1, where bit k of the q-bit word w (k = 1..q, most significant
    first) is [k*p mod q >= q - p].  For q >= 3 the minimal gap is unique;
    for q = 2 both gaps tie and the numerically smaller representative comes
    first.  find_orbit and scan_orbits, which build the whole cycle, are the
    oracles the test suite checks this against.
    """
    _validate_pq(p, q)
    modulus = (1 << q) - 1
    w = _rotation_word(p, q) << 1
    return Angle(w - 1, modulus), Angle(w, modulus)


# external_angle gives up after this many convergents
_MAX_CONVERGENTS = 600


@dataclass(frozen=True)
class ExternalAngle:
    """Result of the external-angle computation at a cardioid internal angle.

    The approximation error is at most 2^(1-n) once the stopping rule fires
    at accuracy exponent n.  Rational internal angles are exact: both wake
    boundary angles are reported and the bound is zero.
    """

    approx: Angle
    bound: Fraction
    iterates: tuple[Angle, ...]
    exact_pair: tuple[Angle, Angle] | None = None


def external_angle(cf: CFExpansion, n: int) -> ExternalAngle:
    """External angle of the cardioid point with internal angle given by cf.

    Runs landing pairs along the convergents of the internal angle until two
    successive minus-angles agree to within 2^-n, then reports the last one
    with the certified bound 2^(1-n).  Gives up after 600 convergents.
    """
    if n < 1:
        raise InvariantError("accuracy exponent must be >= 1")
    if cf.is_rational:
        value = cf.as_fraction()
        lo, hi = landing_pair(value.numerator, value.denominator)
        return ExternalAngle(
            approx=lo,
            bound=Fraction(0),
            iterates=(lo,),
            exact_pair=(lo, hi),
        )
    iterates = tuple(Angle(a, (1 << q) - 1) for a, q in _minus_angles(cf, n))
    return ExternalAngle(
        approx=iterates[-1],
        bound=Fraction(1, 2 ** (n - 1)),
        iterates=iterates,
    )


def _minus_angles(cf: CFExpansion, n: int) -> list[tuple[int, int]]:
    """external_angle's iterates for an irrational cf, as (a, q) for a/(2^q - 1).

    Each is landing_pair(p, q)[0] for a convergent p/q, unreduced: the
    convergents are in lowest terms with 0 < p < q once the first one, 1/1,
    which is not a valid rotation number, is skipped.  For a/m and b/m_prev
    the circle distance is min(d, m*m_prev - d)/(m*m_prev) with
    d = |a*m_prev - b*m|, so the stopping rule compares integers.
    """
    iterates: list[tuple[int, int]] = []
    for p, q, _, _ in _convergents(map(cf.quotient, range(_MAX_CONVERGENTS))):
        if p >= q:
            continue
        a = (_rotation_word(p, q) << 1) - 1
        iterates.append((a, q))
        if len(iterates) > 1:
            b, r = iterates[-2]
            m, m_prev = (1 << q) - 1, (1 << r) - 1
            d = abs(a * m_prev - b * m)
            if min(d, m * m_prev - d) << n < m * m_prev:
                return iterates
    raise PrecisionError(
        f"stopping rule did not fire within {_MAX_CONVERGENTS} convergents"
    )
