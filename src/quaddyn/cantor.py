"""Invariant Cantor sets of the doubling map carved out by a half circle.

Fix an irrational internal angle theta and let alpha be the external angle it
determines on the main cardioid.  The closed half circle with endpoints
alpha/2 and alpha/2 + 1/2 that contains alpha is the allowed arc; the points
whose forward doubling orbit never leaves it form a Cantor set on which
doubling acts, in cyclic order, like the rigid rotation by theta.

Everything here is interval arithmetic over exact rationals: alpha is only
known through a certified bracket, so membership comes back three-valued and
orbit positions come back as brackets rather than as bare points.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .angles import Angle
from .cardioid import _minus_angles, external_angle
from .cfrac import CFExpansion
from .errors import InvariantError, PrecisionError

__all__ = [
    "CircleInterval",
    "HalfCircleArc",
    "CantorCover",
    "Membership",
    "SemiconjugacyReport",
    "build_arc",
    "membership",
    "cover",
    "dense_orbit",
    "semiconjugacy_check",
    "arcs_hausdorff",
]

HALF = Fraction(1, 2)
_MIN_PREC = 240  # starting bits of both orbits in semiconjugacy_check
_Arcs = list[tuple[int, int]]  # numerator pairs over one denominator


@dataclass(frozen=True)
class CircleInterval:
    """Closed arc {x mod 1 : lo <= x <= hi} with 0 <= lo < 1 and hi <= lo + 1."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.lo < 1:
            raise InvariantError(f"arc start {self.lo} not normalized to [0, 1)")
        if not self.lo <= self.hi <= self.lo + 1:
            raise InvariantError(f"arc [{self.lo}, {self.hi}] spans more than a turn")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2 % 1

    def contains(self, x: Fraction) -> bool:
        return (x - self.lo) % 1 <= self.width

    def doubled(self) -> "CircleInterval":
        lo = (2 * self.lo) % 1
        return CircleInterval(lo, lo + 2 * self.width)


class Membership(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class HalfCircleArc:
    """Certified allowed half circle for an irrational internal angle.

    The true arc runs from gamma = alpha/2 to gamma + 1/2 and contains alpha;
    only brackets for gamma (low) and for alpha itself are known.  The high
    endpoint's bracket is low shifted by a half turn.
    """

    low: CircleInterval
    alpha: CircleInterval

    def __post_init__(self) -> None:
        rel = (self.alpha.lo - self.low.lo) % 1
        if not (self.low.width < rel and rel + self.alpha.width < HALF):
            raise PrecisionError("cannot certify the alpha bracket inside the arc")

    def classify(self, lo: Fraction, width: Fraction = Fraction(0)) -> int:
        """Certified side of the bracket [lo, lo + width] on the circle.

        +1 when it certainly lies in the closed allowed arc, -1 when it
        certainly lies in the open complementary arc, 0 when the endpoint
        brackets are too coarse to tell.
        """
        if width >= Fraction(1, 4):
            raise PrecisionError("query bracket too wide to classify")
        rel = (lo - self.low.lo) % 1
        w = self.low.width
        if w <= rel and rel + width <= HALF:
            return 1
        if HALF + w < rel and rel + width < 1:
            return -1
        return 0

    def outer_arc(self) -> CircleInterval:
        """Closed arc certainly containing the allowed half circle."""
        return CircleInterval(self.low.lo, self.low.lo + HALF + self.low.width)


def _alpha_bracket(cf: CFExpansion, n: int) -> CircleInterval:
    """Exact rational bracket of width 2^(2-n) around alpha."""
    result = external_angle(cf, n)
    lo = (result.approx.fraction - result.bound) % 1
    return CircleInterval(lo, lo + 2 * result.bound)


def build_arc(cf: CFExpansion, prec: int = 64) -> HalfCircleArc:
    """Allowed-arc brackets of width at most 2^-prec, with dyadic endpoints.

    Computes alpha through the external-angle routine, halves its bracket to
    bracket the low endpoint, and keeps the half circle that provably
    contains alpha.  Construction raises PrecisionError when prec is too
    coarse to certify that containment.  alpha is interior, so some larger
    prec settles it, but nothing here adds bits: the caller must retry with
    more, as the cantor command's schedule does by doubling prec.
    """
    g_lo, g_hi, lo, width, den = _arc_numerators(cf, prec)
    one = 1 << (prec + 2)
    return HalfCircleArc(
        low=CircleInterval(Fraction(g_lo, one), Fraction(g_hi, one)),
        alpha=CircleInterval(Fraction(lo, den), Fraction(lo + width, den)),
    )


def _arc_numerators(cf: CFExpansion, prec: int) -> tuple[int, int, int, int, int]:
    """build_arc on integers: (g_lo, g_hi, lo, width, den).

    The low bracket is [g_lo, g_hi] over 2^(prec + 2) and the alpha bracket
    [lo, lo + width] over den.  With n = prec + 2 and the external angle's
    approximation a/m, m = 2^q - 1, the alpha bracket a/m -+ 2^(1-n) is
    exact over den = m * 2^n, and rounding it outward to multiples of
    2^-(prec + 1) is floor and ceiling division by 2m.  The checks and their
    messages are build_arc's and HalfCircleArc's, on these numerators.
    """
    if cf.is_rational:
        raise InvariantError("the Cantor construction needs an irrational angle")
    if prec < 4:
        raise InvariantError("need prec >= 4")
    n = prec + 2
    a, q = _minus_angles(cf, n)[-1]
    m = (1 << q) - 1
    den = m << n
    lo, width = ((a << n) - 2 * m) % den, 4 * m
    g_lo, g_hi = lo // (2 * m), -(-(lo + width) // (2 * m))
    if g_hi - g_lo > 4:
        raise PrecisionError("alpha bracket wider than requested")
    rel = (lo - g_lo * m) % den  # from gamma's low end to alpha's, over den
    if not ((g_hi - g_lo) * m < rel and 2 * (rel + width) < den):
        raise PrecisionError("cannot certify the alpha bracket inside the arc")
    return g_lo, g_hi, lo, width, den


def membership(
    a: Angle | Fraction | CircleInterval, arc: HalfCircleArc, depth: int = 64
) -> Membership:
    """Whether the doubling orbit of a stays in the allowed arc through depth.

    OUTSIDE is absolute: some iterate up to the given depth certainly falls
    in the open complementary arc, so the point is not in the Cantor set.
    INSIDE is absolute when the input is an exact rational whose eventual
    cycle closes within the depth budget (the whole orbit was certified);
    otherwise it only certifies the inspected iterates.  UNDECIDED means some
    iterate landed inside an endpoint bracket, where no side can be trusted.
    """
    if depth < 0:
        raise InvariantError("depth must be nonnegative")
    if not isinstance(a, CircleInterval):
        x = (a.fraction if isinstance(a, Angle) else Fraction(a)) % 1
        a = CircleInterval(x, x)
    seen: set[Fraction] = set()
    gap_hit = False
    for _ in range(depth + 1):
        if a.width == 0:
            if a.lo in seen:
                break
            seen.add(a.lo)
        side = arc.classify(a.lo, a.width)
        if side == -1:
            return Membership.OUTSIDE
        if side == 0:
            gap_hit = True
        a = a.doubled()
    return Membership.UNDECIDED if gap_hit else Membership.INSIDE


@dataclass(frozen=True)
class CantorCover:
    """Finite cover of the Cantor set by closed arcs with dyadic endpoints.

    The arcs are pairwise disjoint, of positive length, sorted by start, and
    the Cantor set is contained in their union.  hausdorff_bound is the
    claimed distance 2^-depth from the union down to the set itself; the
    depth-to-precision schedule behind it is heuristic, not a certified
    modulus.
    """

    depth: int
    arcs: tuple[CircleInterval, ...]
    hausdorff_bound: Fraction


def _default_prec(depth: int) -> int:
    """cover's default working precision, which the CLI also records."""
    return 2 * depth + 24


def cover(cf: CFExpansion, depth: int, prec: int | None = None) -> CantorCover:
    """Arcs left after removing depth generations of forbidden-arc preimages.

    Level zero is the allowed half circle itself (outer bracket); each
    refinement keeps the halves whose image stays covered, cut to the base
    arc.  Halves of disjoint arcs are disjoint, so nothing needs merging.
    prec defaults to a schedule that keeps the endpoint-bracket fattening
    far below the arc scale 2^-depth.  The arcs are _cover_arcs's.
    """
    arcs, one = _cover_arcs(cf, depth, prec)
    return CantorCover(
        depth=depth,
        arcs=tuple(CircleInterval(Fraction(a, one), Fraction(b, one)) for a, b in arcs),
        hausdorff_bound=Fraction(1, 2**depth),
    )


def _cover_arcs(cf: CFExpansion, depth: int, prec: int | None = None) -> tuple[_Arcs, int]:
    """cover's arcs as sorted (lo, hi) numerators over one, and one.

    one = 2^(prec + 2 + depth), where every halving is exact: the base arc's
    endpoints are multiples of 2^-(prec + 2), and each generation halves
    once.  No arc wraps past 0: for the low bracket [gamma, gamma + w],
    build_arc certifies rel + alpha.width < 1/2 with rel = alpha.lo - gamma
    >= gamma, and w <= alpha.width = 2^-prec, so the base
    [gamma, gamma + 1/2 + w] and the halves of any arc in it lie in [0, 1).
    """
    if depth < 0:
        raise InvariantError("cover depth must be nonnegative")
    if prec is None:
        prec = _default_prec(depth)
    g_lo, g_hi = _arc_numerators(cf, prec)[:2]
    one = 1 << (prec + 2 + depth)
    b_lo, b_hi = g_lo << depth, (g_hi + (1 << (prec + 1))) << depth
    arcs = [(b_lo, b_hi)]
    for _ in range(depth):
        refined = []
        for lo, hi in arcs:
            for h_lo, h_hi in ((lo >> 1, hi >> 1), ((lo + one) >> 1, (hi + one) >> 1)):
                m_lo, m_hi = max(h_lo, b_lo), min(h_hi, b_hi)
                if m_hi > m_lo:
                    refined.append((m_lo, m_hi))
        arcs = sorted(refined)
    return arcs, one


def _alpha_orbit(cf: CFExpansion, count: int, prec: int) -> tuple[_Arcs, int]:
    """dense_orbit's brackets as (lo, width) numerators over den, and den."""
    if count < 1:
        raise InvariantError("need at least one orbit point")
    bracket = _alpha_bracket(cf, prec + 2)
    den = math.lcm(bracket.lo.denominator, bracket.hi.denominator)
    lo, width = int(bracket.lo * den), int(bracket.width * den)
    if 4 * (width << (count - 1)) > den:
        raise PrecisionError(
            f"orbit bracket beyond width 1/4; start near 2^-{count + 2} "
            "relative to the target width instead"
        )
    orbit = []
    for _ in range(count):
        orbit.append((lo, width))
        lo, width = 2 * lo % den, 2 * width
    return orbit, den


def dense_orbit(cf: CFExpansion, count: int, prec: int = 240) -> list[CircleInterval]:
    """Brackets for the first `count` doubling iterates of alpha.

    The alpha bracket has width at most 2^-prec and doubling doubles it
    exactly, so the k-th bracket has width 2^(k-prec).  Iteration refuses to
    continue past width 1/4, where brackets stop being meaningful arcs.
    """
    orbit, den = _alpha_orbit(cf, count, prec)
    return [CircleInterval(Fraction(lo, den), Fraction(lo + w, den)) for lo, w in orbit]


@dataclass(frozen=True)
class SemiconjugacyReport:
    """Outcome of the cyclic-order comparison between the two orbits."""

    count: int
    passed: bool
    first_violation: int | None
    undecided_pairs: int
    alpha_exponent: int
    max_width: Fraction


def semiconjugacy_check(cf: CFExpansion, count: int) -> SemiconjugacyReport:
    """Compare cyclic orders of the alpha orbit and the rotation orbit.

    Doubling restricted to the Cantor set should visit the circle in exactly
    the cyclic order the rigid rotation by theta does.  Orders are read off
    bracket midpoints, which is sound only when all brackets are pairwise
    disjoint; the alpha precision is escalated (starting from 240 bits) until
    they are, because true orbit gaps can sit far below any fixed precision.
    Escalation failing to separate the brackets raises PrecisionError.

    Disjointness is tested only between brackets whose midpoints are
    neighbours in circle order.  That is enough: if brackets i and j meet,
    together they cover the short arc between their midpoints, so any
    midpoint k strictly inside that arc lies in bracket i or in bracket j,
    and then k meets i or j with fewer midpoints between them.  By induction
    some pair of neighbours meets.
    """
    if count < 1:
        raise InvariantError("need at least one orbit point")
    theta_lo, theta_hi = cf.bracket(Fraction(1, 2**_MIN_PREC * 4 * max(count, 2)))
    rden = math.lcm(theta_lo.denominator, theta_hi.denominator)
    a, d = int(theta_lo * rden), int((theta_hi - theta_lo) * rden)
    rotation = [(k * a % rden, k * d) for k in range(count)]
    rotation_width = Fraction((count - 1) * d, rden)  # of the widest bracket
    order_rotation = _cyclic_order(rotation, rden)
    if _neighbours_meet(rotation, order_rotation, rden):
        raise PrecisionError(f"rotation orbit brackets overlap at 2^-{_MIN_PREC}")

    exponent = _MIN_PREC + count + 2
    for _ in range(6):
        orbit, den = _alpha_orbit(cf, count, exponent)
        order_doubling = _cyclic_order(orbit, den)
        if not _neighbours_meet(orbit, order_doubling, den):
            first = _first_rank_mismatch(order_doubling, order_rotation)
            return SemiconjugacyReport(
                count=count,
                passed=first is None,
                first_violation=first,
                undecided_pairs=0,
                alpha_exponent=exponent,
                max_width=max(Fraction(orbit[-1][1], den), rotation_width),
            )
        exponent *= 2
    raise PrecisionError(
        f"orbit brackets still overlap at alpha exponent {exponent // 2}"
    )


def _neighbours_meet(arcs: _Arcs, order: tuple[int, ...], den: int) -> bool:
    """Whether two closed brackets meet, given their midpoints' circle order.

    Only cyclically adjacent brackets are compared; semiconjugacy_check
    explains why that decides the question for every pair.
    """
    if len(order) < 2:
        return False
    for i, j in zip(order, order[1:] + order[:1]):
        (lo_i, w_i), (lo_j, w_j) = arcs[i], arcs[j]
        forward = (2 * (lo_j - lo_i) + w_j - w_i) % (2 * den)
        if min(forward, 2 * den - forward) <= w_i + w_j:
            return True
    return False


def _cyclic_order(arcs: _Arcs, den: int) -> tuple[int, ...]:
    mid = [2 * lo + w for lo, w in arcs]  # numerators over 2 * den
    return tuple(sorted(range(len(mid)), key=lambda i: (mid[i] - mid[0]) % (2 * den)))


def _first_rank_mismatch(left: tuple[int, ...], right: tuple[int, ...]) -> int | None:
    # an index has different ranks exactly where the two orders differ
    return min((i for i, j in zip(left, right) if i != j), default=None)


def arcs_hausdorff(
    first: list[CircleInterval], second: list[CircleInterval]
) -> Fraction:
    """Exact Hausdorff distance between two finite unions of closed arcs.

    The distance function to an arc union is piecewise linear, so the
    supremum over the other union is attained either at an arc endpoint or
    at the midpoint of a complementary gap; both candidate sets are finite.
    """
    if not first or not second:
        raise InvariantError("need nonempty arc sets")
    return max(_sup_distance(first, second), _sup_distance(second, first))


def _sup_distance(
    source: list[CircleInterval], target: list[CircleInterval]
) -> Fraction:
    candidates: list[Fraction] = []
    for a in source:
        candidates.append(a.lo % 1)
        candidates.append(a.hi % 1)
    spots = sorted({(a.lo % 1, a.hi % 1) for a in target})
    for (lo1, hi1), (lo2, _) in zip(spots, spots[1:] + spots[:1]):
        mid = (hi1 % 1 + ((lo2 - hi1) % 1) / 2) % 1
        if any(s.contains(mid) for s in source):
            candidates.append(mid)
    best = Fraction(0)
    for x in candidates:
        d = min(_point_arc_distance(x, t) for t in target)
        if d > best:
            best = d
    return best


def _point_arc_distance(x: Fraction, arc: CircleInterval) -> Fraction:
    if arc.contains(x):
        return Fraction(0)
    to_lo = (arc.lo - x) % 1
    from_hi = (x - arc.hi) % 1
    return min(min(to_lo, 1 - to_lo), min(from_hi, 1 - from_hi))
