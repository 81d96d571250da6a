"""Slit-rectangle domain gallery: a square with a descending chimney.

The domain is the complement of the unit square [-1,1]^2 together with a
stack of carved slabs converging to a segment of the real axis.  Slab n
occupies heights (3^-n, 3^(1-n)] and is a rectangle of half-width b_n with
two closed slats removed, one hanging from the top attached to the left
wall, one in the middle attached to the right wall.  The half-widths b_n
decrease and the slat lengths are governed by an increasing sequence a_n,
both supplied as exact rational sequences.  Everything here is rectilinear
and computed in exact rational arithmetic; floating point only enters the
sampling helpers.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import InvariantError

Point = tuple[Fraction, Fraction]

# ceiling of n times the bits of the denominator of a_n or b_n; its cost is
# in the README's ceiling table
MAX_TERM_BITS = 2**19

# a rational literal; a zero denominator does not match
_RAT = r"[+-]?\d+(?:/0*[1-9]\d*)?"
_EXPR_RE = re.compile(rf"^\s*({_RAT})\s*([+-])\s*(\d+)\s*\^\s*-\s*k\s*$")
_CONST_RE = re.compile(rf"^\s*({_RAT})\s*$")


@dataclass(frozen=True)
class RationalSequence:
    """Exact rational sequence k -> term_fn(k), indexed from 1.

    An optional limit bracket declares an interval the limit is known to lie
    in.  The direction the sequence must run in belongs to the domain that
    uses it, which checks every term it reads (see OmegaDomain).
    """

    term_fn: Callable[[int], Fraction]
    limit_bracket: tuple[Fraction, Fraction] | None = None


def parse_sequence_expr(text: str) -> RationalSequence:
    """Build a sequence from a compact expression such as "1/4-4^-k".

    Supported forms: a bare rational constant, or constant +/- base^-k with
    an integer base; anything else raises InvariantError.  The constant is
    the limit, so it doubles as a degenerate limit bracket.
    """
    m = _CONST_RE.match(text)
    if m:
        value = Fraction(m.group(1))
        return RationalSequence(lambda k: value, (value, value))
    m = _EXPR_RE.match(text)
    if m is None:
        raise InvariantError(f"cannot parse sequence expression {text!r}")
    const = Fraction(m.group(1))
    sign = 1 if m.group(2) == "+" else -1
    base = int(m.group(3))
    if base < 1:
        raise InvariantError("exponential base must be at least 1")
    return RationalSequence(
        lambda k: const + sign * Fraction(1, base**k), (const, const)
    )


def toy_sequences() -> tuple[RationalSequence, RationalSequence]:
    """The stock example pair a_k = 1/4 - 4^-k (up), b_k = 1/3 + 4^-k (down)."""
    return parse_sequence_expr("1/4-4^-k"), parse_sequence_expr("1/3+4^-k")


@dataclass(frozen=True)
class Segment:
    """Axis-parallel segment with exact rational endpoints."""

    start: Point
    end: Point

    def __post_init__(self) -> None:
        if self.start[0] != self.end[0] and self.start[1] != self.end[1]:
            raise InvariantError("segment must be axis-parallel")

    @property
    def diameter(self) -> Fraction:
        return abs(self.end[0] - self.start[0]) + abs(self.end[1] - self.start[1])

    def contains_point(self, p: Point) -> bool:
        x, y = p
        xs = sorted((self.start[0], self.end[0]))
        ys = sorted((self.start[1], self.end[1]))
        if self.start[0] == self.end[0]:
            return x == self.start[0] and ys[0] <= y <= ys[1]
        return y == self.start[1] and xs[0] <= x <= xs[1]


def _extend(
    terms: list[Fraction], seq: RationalSequence, n: int, increasing: bool
) -> None:
    """Append terms of seq until there are n, checking each new one.

    Each term must not step against the direction, and must stay on the
    approach side of the limit bracket: at most its top when increasing, at
    least its bottom when decreasing.
    """
    word = "increasing" if increasing else "decreasing"
    side = "overshoots" if increasing else "undershoots"
    bracket = seq.limit_bracket
    while len(terms) < n:
        idx = len(terms) + 1
        value = Fraction(seq.term_fn(idx))
        if terms and (value < terms[-1] if increasing else value > terms[-1]):
            raise InvariantError(
                f"term {idx} = {value} breaks {word} monotonicity after {terms[-1]}"
            )
        if bracket and (value > bracket[1] if increasing else value < bracket[0]):
            raise InvariantError(f"term {idx} = {value} {side} the limit bracket")
        terms.append(value)


class OmegaDomain:
    """The carved-square domain driven by two rational sequences.

    a_seq must increase and b_seq decrease, and for every queried index the
    terms must satisfy 0 <= a_n < b_n < 1 so each slab fits inside the square
    and keeps a nonempty gap next to each slat.  The classical picture pins
    the limits below 1/2; early terms of natural approximating sequences can
    overshoot that, so only the geometric constraints are enforced per term.
    n times the bits of the denominator of a_n or b_n must stay within
    MAX_TERM_BITS, which bounds the cost of the exact vertices of depth n.
    Terms are read lazily and kept, so a violation surfaces on the first
    query that exposes it.
    """

    def __init__(self, a_seq: RationalSequence, b_seq: RationalSequence) -> None:
        self.a_seq = a_seq
        self.b_seq = b_seq
        self._a: list[Fraction] = []
        self._b: list[Fraction] = []

    def terms(self, n: int) -> tuple[Fraction, Fraction]:
        """The checked pair (a_n, b_n)."""
        if n < 1:
            raise InvariantError("sequence index starts at 1")
        _extend(self._a, self.a_seq, n, increasing=True)
        _extend(self._b, self.b_seq, n, increasing=False)
        a_n, b_n = self._a[n - 1], self._b[n - 1]
        if not (0 <= a_n < b_n < 1):
            raise InvariantError(
                f"need 0 <= a_{n} < b_{n} < 1, got a={a_n}, b={b_n}"
            )
        bits = max(a_n.denominator.bit_length(), b_n.denominator.bit_length())
        if n * bits > MAX_TERM_BITS:
            raise InvariantError(
                f"term {n} has a {bits}-bit denominator; {n} times it is above "
                f"the ceiling {MAX_TERM_BITS}"
            )
        return a_n, b_n


def _pow3(exponent: int) -> Fraction:
    if exponent >= 0:
        return Fraction(3**exponent)
    return Fraction(1, 3**-exponent)


def build_gamma_n(dom: OmegaDomain, n: int) -> tuple[Point, ...]:
    """Boundary polygon of the depth-n truncation, as one closed vertex loop.

    The loop starts at the square's top-left corner, descends the chimney
    carved by the first n slabs along its left features, crosses the flat
    floor at height 3^-n, climbs back along the right features, and finishes
    around the outside of the square.  The floor segment is part of the
    returned curve.  Consecutive duplicate vertices (possible when the
    b-sequence stalls) are merged; the final vertex connects back to the
    first.
    """
    if n < 1:
        raise InvariantError("depth starts at 1")
    one = Fraction(1)
    verts: list[Point] = [(-one, one)]
    for k in range(1, n + 1):
        a_k, b_k = dom.terms(k)
        unit = _pow3(-k - 1)
        verts += [
            (a_k, 9 * unit),
            (a_k, 8 * unit),
            (-b_k, 8 * unit),
            (-b_k, 3 * unit),
        ]
    for k in range(n, 0, -1):
        a_k, b_k = dom.terms(k)
        unit = _pow3(-k - 1)
        verts += [
            (b_k, 3 * unit),
            (b_k, 5 * unit),
            (-a_k, 5 * unit),
            (-a_k, 6 * unit),
            (b_k, 6 * unit),
            (b_k, 9 * unit),
        ]
    verts += [(one, one), (one, -one), (-one, -one)]

    cleaned: list[Point] = []
    for v in verts:
        if not cleaned or cleaned[-1] != v:
            cleaned.append(v)
    if cleaned[-1] == cleaned[0]:
        cleaned.pop()
    for p, q in zip(cleaned, cleaned[1:] + cleaned[:1]):
        if p[0] != q[0] and p[1] != q[1]:
            raise InvariantError("boundary polygon lost rectilinearity")
    return tuple(cleaned)


def crosscut_chain(n: int) -> Segment:
    """The nth fundamental-chain crosscut, a vertical segment on x = 0.

    Runs from height 2*3^-n up to 8*3^(-n-1), which is the gap between the
    right slat's top edge and the left slat's bottom edge of slab n; its
    diameter is exactly 2*3^(-n-1).
    """
    if n < 1:
        raise InvariantError("depth starts at 1")
    unit = _pow3(-n - 1)
    zero = Fraction(0)
    return Segment((zero, 6 * unit), (zero, 8 * unit))


def chain_midpoint(n: int) -> Point:
    """Marked interior point of the nth crosscut, at height 7*3^(-n-1)."""
    if n < 1:
        raise InvariantError("depth starts at 1")
    return (Fraction(0), 7 * _pow3(-n - 1))


def impression_segments(dom: OmegaDomain, k: int) -> tuple[Segment, Segment]:
    """Inner and outer sandwich segments on the real axis at depth k.

    The inner segment [-a_k, a_k] x {0} grows toward the principal part and
    the outer segment [-b_k, b_k] x {0} shrinks toward the full impression;
    a_k = 0 degenerates the inner segment to the single point at the origin.
    """
    if k < 1:
        raise InvariantError("depth starts at 1")
    a_k, b_k = dom.terms(k)
    zero = Fraction(0)
    inner = Segment((-a_k, zero), (a_k, zero))
    outer = Segment((-b_k, zero), (b_k, zero))
    return inner, outer


class PointLocation(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    UNDECIDED = "undecided-at-depth"


def _runs(dom: OmegaDomain, depth: int, y: Fraction) -> list[tuple]:
    """Point location along the horizontal line at height y.

    Returns at most five left-to-right runs (end, closed, location): a run
    holds every x below its end, and the end itself when closed; the last
    run ends at +inf.  With u = 3^(-k-1), slab k is the strip
    -b_k < x < b_k over heights 3u < y <= 9u, and its left slat
    [-b_k, a_k] x [8u, 9u] and right slat [-a_k, b_k] x [5u, 6u] are closed.
    """
    if depth < 1:
        raise InvariantError("depth starts at 1")
    inside, outside = PointLocation.INSIDE, PointLocation.OUTSIDE
    one = Fraction(1)
    if abs(y) > 1:
        return [(math.inf, False, inside)]
    if y <= 0:
        square = [(one, True, outside)]
    elif y <= _pow3(-depth):
        square = [(one, True, PointLocation.UNDECIDED)]
    else:
        k = 1
        while _pow3(-k) >= y:
            k += 1
        a_k, b_k = dom.terms(k)
        unit = _pow3(-k - 1)
        if 8 * unit <= y:  # and y <= 9 * unit, as y lies in slab k
            lo, hi = a_k, b_k
        elif 5 * unit <= y <= 6 * unit:
            lo, hi = -b_k, -a_k
        else:
            lo, hi = -b_k, b_k
        square = [(lo, True, outside), (hi, False, inside), (one, True, outside)]
    return [(-one, False, inside), *square, (math.inf, False, inside)]


def in_domain(dom: OmegaDomain, depth: int, point: Point) -> PointLocation:
    """Exact membership of a rational point in the depth-limited domain.

    Points outside the closed square are inside the domain outright.  Points
    in the square above height 3^-depth are settled by their slab and its
    slat carve-outs; points at or below that height but above the real axis
    could belong to deeper slabs, so they report as undecided at this depth.
    Heights at or below zero inside the square are never carved.
    """
    x, y = Fraction(point[0]), Fraction(point[1])
    for end, closed, location in _runs(dom, depth, y):
        if x < end or (closed and x == end):
            return location


def sample_polyline(vertices: Iterable[Point], spacing: float) -> list[complex]:
    """Sample a closed rectilinear polygon at roughly the given spacing.

    Returns complex points including every vertex; consecutive points are
    less than the spacing apart along the polygon.
    """
    if spacing <= 0:
        raise InvariantError("spacing must be positive")
    pts = [(float(x), float(y)) for x, y in vertices]
    out: list[complex] = []
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        length = abs(x2 - x1) + abs(y2 - y1)
        steps = max(1, int(length / spacing) + 1)
        for i in range(steps):
            t = i / steps
            out.append(complex(x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return out


def _to_edges(points: list[complex], vertices: tuple[Point, ...]) -> float:
    """Largest distance from the points to the closed polygon's edges; an
    axis-parallel edge is its own bounding box, so clipping finds the foot."""
    import numpy as np

    pts, best = np.array(points), np.inf
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1]):
        dx = pts.real - np.clip(pts.real, float(min(x1, x2)), float(max(x1, x2)))
        dy = pts.imag - np.clip(pts.imag, float(min(y1, y2)), float(max(y1, y2)))
        best = np.minimum(best, np.hypot(dx, dy))
    return float(best.max())


def gamma_hausdorff(dom: OmegaDomain, n: int, m: int) -> float:
    """Certified upper end of the Hausdorff distance between two boundary
    approximants.  Samples of each, a quarter of the finer depth's slab unit
    apart, are measured against the other's exact edges; distance to a curve
    is 1-Lipschitz, so the true distance lies within half that spacing above."""
    spacing = float(_pow3(-max(n, m))) / 4
    first, second = build_gamma_n(dom, n), build_gamma_n(dom, m)
    return spacing / 2 + max(
        _to_edges(sample_polyline(first, spacing), second),
        _to_edges(sample_polyline(second, spacing), first),
    )
