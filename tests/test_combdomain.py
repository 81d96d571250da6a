"""Carved-square domain: sequence parsing, boundary polylines, crosscut
chains, impressions, and exact point location, checked against a
rectangle-by-rectangle oracle."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from quaddyn.combdomain import (
    MAX_TERM_BITS,
    OmegaDomain,
    PointLocation,
    RationalSequence,
    _runs,
    _to_edges,
    build_gamma_n,
    chain_midpoint,
    crosscut_chain,
    gamma_hausdorff,
    impression_segments,
    in_domain,
    parse_sequence_expr,
    sample_polyline,
    toy_sequences,
)
from quaddyn.dynamics import BORDERLINE, FAR, NEAR, hausdorff_distance
from quaddyn.errors import InvariantError
from quaddyn.imaging import classification_image, domain_image, domain_ppm, ppm_bytes

F = Fraction
INSIDE, OUTSIDE, UNDECIDED = PointLocation.INSIDE, PointLocation.OUTSIDE, PointLocation.UNDECIDED
EPS = F(1, 10**9)


@dataclass(frozen=True)
class _Rect:
    """Axis-parallel rectangle with per-side closedness flags."""

    x_lo: Fraction
    x_hi: Fraction
    y_lo: Fraction
    y_hi: Fraction
    left_closed: bool = True
    right_closed: bool = True
    bottom_closed: bool = True

    def contains(self, x: Fraction, y: Fraction) -> bool:
        return (
            (self.x_lo <= x if self.left_closed else self.x_lo < x)
            and (x <= self.x_hi if self.right_closed else x < self.x_hi)
            and (self.y_lo <= y if self.bottom_closed else self.y_lo < y)
            and y <= self.y_hi
        )


def _oracle_in_domain(dom, depth, point):
    """Point location by the slab S_k and its slats L_k, R_k as rectangles.

    S_k is open on the sides and the bottom, closed on top, so adjacent
    slabs tile without overlap; the slats are closed.
    """
    if depth < 1:
        raise InvariantError("depth starts at 1")
    x, y = Fraction(point[0]), Fraction(point[1])
    if abs(x) > 1 or abs(y) > 1:
        return INSIDE
    if y <= 0:
        return OUTSIDE
    if y <= F(1, 3**depth):
        return UNDECIDED
    k = 1
    while F(1, 3**k) >= y:
        k += 1
    (a_k, b_k), unit = dom.terms(k), F(1, 3 ** (k + 1))
    slab = _Rect(-b_k, b_k, 3 * unit, 9 * unit, False, False, False)
    left_slat = _Rect(-b_k, a_k, 8 * unit, 9 * unit)
    right_slat = _Rect(-a_k, b_k, 5 * unit, 6 * unit)
    if not slab.contains(x, y) or left_slat.contains(x, y) or right_slat.contains(x, y):
        return OUTSIDE
    return INSIDE


def _oracle_image(dom, depth, res):
    """domain_image pixel by pixel through the oracle."""
    codes = {INSIDE: FAR, OUTSIDE: NEAR, UNDECIDED: BORDERLINE}
    centers = [F(12, 5) * F(2 * i + 1, 2 * res) - F(6, 5) for i in range(res)]
    cells = np.array(
        [[codes[_oracle_in_domain(dom, depth, (x, y))] for x in centers] for y in centers],
        dtype=np.int8,
    )
    return classification_image(cells)


def _toy_domain():
    a_seq, b_seq = toy_sequences()
    return OmegaDomain(a_seq, b_seq)


def _const_domain():
    return OmegaDomain(parse_sequence_expr("1/4"), parse_sequence_expr("2/5"))


def test_toy_sequence_terms():
    dom = _toy_domain()
    a = [F(0), F(3, 16), F(15, 64), F(63, 256)]
    b = [F(7, 12), F(19, 48), F(67, 192), F(259, 768)]
    assert [dom.terms(n) for n in (1, 2, 3, 4)] == list(zip(a, b))


def test_parse_sequence_expr_directions():
    # minus approaches the constant from below, plus from above; the
    # constant is the limit bracket either way
    inc = parse_sequence_expr("1/4-4^-k")
    dec = parse_sequence_expr("1/3+4^-k")
    assert [inc.term_fn(k) for k in (1, 2)] == [F(0), F(3, 16)]
    assert [dec.term_fn(k) for k in (1, 2)] == [F(7, 12), F(19, 48)]
    assert inc.limit_bracket == (F(1, 4), F(1, 4))
    assert dec.limit_bracket == (F(1, 3), F(1, 3))
    const = parse_sequence_expr("2/5")
    assert const.term_fn(7) == F(2, 5) and const.limit_bracket == (F(2, 5), F(2, 5))


def test_parse_sequence_expr_rejects_garbage():
    with pytest.raises(InvariantError):
        parse_sequence_expr("k^2")
    with pytest.raises(InvariantError):
        parse_sequence_expr("1/4 - 5*k")
    # growing forms are not part of the grammar
    with pytest.raises(InvariantError):
        parse_sequence_expr("1/3+4^k")
    # a zero denominator is malformed, not a division error
    for text in ("1/0", "1/00-4^-k"):
        with pytest.raises(InvariantError):
            parse_sequence_expr(text)


def test_monotone_sequence_flags_violation_on_query():
    values = {1: F(1, 10), 2: F(1, 2), 3: F(3, 10)}
    dom = OmegaDomain(RationalSequence(values.__getitem__), parse_sequence_expr("9/10"))
    assert dom.terms(1) == (F(1, 10), F(9, 10))
    assert dom.terms(2) == (F(1, 2), F(9, 10))
    with pytest.raises(InvariantError, match="term 3 = 3/10 breaks increasing monotonicity"):
        dom.terms(3)
    dom = OmegaDomain(parse_sequence_expr("0"), RationalSequence(lambda k: F(k, 10)))
    assert dom.terms(1) == (F(0), F(1, 10))
    with pytest.raises(InvariantError, match="term 2 = 1/5 breaks decreasing monotonicity"):
        dom.terms(2)


def test_monotone_sequence_respects_limit_bracket():
    a_seq = RationalSequence(lambda k: F(k, 4), (F(1, 2), F(1, 2)))
    dom = OmegaDomain(a_seq, parse_sequence_expr("9/10"))
    assert dom.terms(1) == (F(1, 4), F(9, 10))
    with pytest.raises(InvariantError, match="term 3 = 3/4 overshoots the limit bracket"):
        dom.terms(3)
    b_seq = RationalSequence(lambda k: F(8 - k, 16), (F(3, 8), F(3, 8)))
    dom = OmegaDomain(parse_sequence_expr("0"), b_seq)
    assert dom.terms(2) == (F(0), F(3, 8))
    with pytest.raises(InvariantError, match="term 3 = 5/16 undershoots the limit bracket"):
        dom.terms(3)


def test_domain_requires_opposite_directions():
    # a wrong-direction pair builds, and raises on its first query
    inc, dec = parse_sequence_expr("1/4-4^-k"), parse_sequence_expr("1/3+4^-k")
    with pytest.raises(InvariantError, match="^term 1 = 0 undershoots the limit bracket$"):
        OmegaDomain(inc, inc).terms(1)
    with pytest.raises(InvariantError, match="^term 1 = 7/12 overshoots the limit bracket$"):
        OmegaDomain(dec, dec).terms(1)


def test_domain_accepts_constant_sequences():
    dom = OmegaDomain(parse_sequence_expr("1/4"), parse_sequence_expr("2/5"))
    assert dom.terms(1) == (F(1, 4), F(2, 5))
    assert dom.terms(5) == (F(1, 4), F(2, 5))


def test_domain_cross_violation_surfaces_on_query():
    dom = OmegaDomain(parse_sequence_expr("1/2"), parse_sequence_expr("1/3"))
    # points outside the square and below slab 1 read no term
    assert in_domain(dom, 1, (F(0), F(2))) is INSIDE
    assert in_domain(dom, 1, (F(0), F(1, 3))) is UNDECIDED
    with pytest.raises(InvariantError, match="need 0 <= a_1 < b_1 < 1"):
        in_domain(dom, 1, (F(0), F(1, 2)))


def test_rectangles_reference_geometry():
    # slab 1 of the constant domain is the strip -2/5 < x < 2/5 over
    # 1/3 < y <= 1; its left slat is [-2/5, 1/4] x [8/9, 1], its right slat
    # [-1/4, 2/5] x [5/9, 2/3], both of height 1/9
    dom = _const_domain()
    one, end = F(1), (math.inf, False, INSIDE)

    def square(*runs):
        return [(-one, False, INSIDE), *runs, end]

    slab = square((F(-2, 5), True, OUTSIDE), (F(2, 5), False, INSIDE), (one, True, OUTSIDE))
    left = square((F(1, 4), True, OUTSIDE), (F(2, 5), False, INSIDE), (one, True, OUTSIDE))
    right = square((F(-2, 5), True, OUTSIDE), (F(-1, 4), False, INSIDE), (one, True, OUTSIDE))
    for y in (F(1), F(17, 18), F(8, 9)):
        assert _runs(dom, 1, y) == left
    for y in (F(2, 3), F(11, 18), F(5, 9)):
        assert _runs(dom, 1, y) == right
    for y in (F(8, 9) - EPS, F(2, 3) + EPS, F(5, 9) - EPS, F(1, 3) + EPS):
        assert _runs(dom, 1, y) == slab
    # the slab is open at the bottom: y = 1/3 is undecided at depth 1 and
    # lies on the closed top of slab 2 at depth 2
    assert _runs(dom, 1, F(1, 3)) == square((one, True, UNDECIDED))
    assert _runs(dom, 2, F(1, 3)) == left
    assert _runs(dom, 1, F(0)) == _runs(dom, 1, F(-1)) == square((one, True, OUTSIDE))
    assert _runs(dom, 1, F(1) + EPS) == _runs(dom, 1, F(-2)) == [end]


def test_slats_sit_inside_the_slab():
    dom = _toy_domain()
    for n in (1, 2, 3):
        (a, b), u = dom.terms(n), F(1, 3 ** (n + 1))
        assert -b < -a <= a < b
        # closed slat corners are carved; the slab keeps a gap beside each
        # slat and above and below each
        for x, y in ((-b, 8 * u), (a, 8 * u), (-b, 9 * u), (a, 9 * u)):
            assert in_domain(dom, n, (x, y)) is OUTSIDE
        for x, y in ((-a, 5 * u), (b - EPS, 5 * u), (-a, 6 * u), (b - EPS, 6 * u)):
            assert in_domain(dom, n, (x, y)) is OUTSIDE
        assert in_domain(dom, n, ((a + b) / 2, 9 * u)) is INSIDE
        assert in_domain(dom, n, (-(a + b) / 2, 5 * u)) is INSIDE
        for y in (3 * u + EPS, 5 * u - EPS, 6 * u + EPS, 8 * u - EPS):
            assert in_domain(dom, n, (F(0), y)) is INSIDE


GAMMA_1_CONST = (
    (F(-1), F(1)),
    (F(1, 4), F(1)),
    (F(1, 4), F(8, 9)),
    (F(-2, 5), F(8, 9)),
    (F(-2, 5), F(1, 3)),
    (F(2, 5), F(1, 3)),
    (F(2, 5), F(5, 9)),
    (F(-1, 4), F(5, 9)),
    (F(-1, 4), F(2, 3)),
    (F(2, 5), F(2, 3)),
    (F(2, 5), F(1)),
    (F(1), F(1)),
    (F(1), F(-1)),
    (F(-1), F(-1)),
)


def test_gamma_one_vertex_list():
    assert build_gamma_n(_const_domain(), 1) == GAMMA_1_CONST


def test_gamma_vertices_are_rectilinear_and_counted():
    dom = _toy_domain()
    for n in (1, 2, 3):
        vertices = build_gamma_n(dom, n)
        assert len(vertices) == 4 + 10 * n
        ring = vertices + (vertices[0],)
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            assert (x1 == x2) != (y1 == y2)


def test_gamma_floor_segment_is_unique():
    dom = _toy_domain()
    n = 3
    floor_y = F(1, 27)
    vertices = build_gamma_n(dom, n)
    ring = vertices + (vertices[0],)
    low_edges = [
        (p, q)
        for p, q in zip(ring, ring[1:])
        if p[1] <= floor_y and q[1] <= floor_y and abs(p[0]) < 1 and abs(q[0]) < 1
    ]
    assert len(low_edges) == 1
    (p, q) = low_edges[0]
    assert {p, q} == {(F(-67, 192), floor_y), (F(67, 192), floor_y)}


def test_crosscut_chain_geometry():
    seg = crosscut_chain(1)
    assert {seg.start, seg.end} == {(F(0), F(2, 3)), (F(0), F(8, 9))}
    assert seg.diameter == F(2, 9)
    for n in range(1, 9):
        chain = crosscut_chain(n)
        assert chain.diameter == F(2, 3 ** (n + 1))
        assert chain.contains_point(chain_midpoint(n))
        assert chain_midpoint(n) == (F(0), F(7, 3 ** (n + 1)))


def test_crosscut_chains_descend_strictly():
    for n in range(1, 8):
        upper = crosscut_chain(n)
        lower = crosscut_chain(n + 1)
        assert max(lower.start[1], lower.end[1]) < min(upper.start[1], upper.end[1])


def test_chain_incidence_exact():
    # The nth crosscut runs from the top edge of the right slat to the
    # bottom edge of the left slat, by exact comparison.
    dom = _toy_domain()
    for n in (1, 2, 3, 4):
        u = F(1, 3 ** (n + 1))
        chain = crosscut_chain(n)
        bottom, top = chain.start, chain.end
        assert bottom == (0, 6 * u) and top == (0, 8 * u)
        assert in_domain(dom, n, bottom) is OUTSIDE
        assert in_domain(dom, n, (bottom[0], bottom[1] + EPS)) is INSIDE
        assert in_domain(dom, n, top) is OUTSIDE
        assert in_domain(dom, n, (top[0], top[1] - EPS)) is INSIDE


def test_impressions_nest_monotonically():
    dom = _toy_domain()
    inner_1, outer_1 = impression_segments(dom, 1)
    assert inner_1.diameter == 0
    prev_inner, prev_outer = inner_1, outer_1
    for k in range(2, 9):
        inner, outer = impression_segments(dom, k)
        assert prev_inner.start[0] >= inner.start[0] >= -1
        assert inner.end[0] <= outer.end[0]
        assert outer.end[0] <= prev_outer.end[0]
        prev_inner, prev_outer = inner, outer


def test_in_domain_reference_points():
    dom = _toy_domain()
    assert in_domain(dom, 4, (F(2), F(0))) is PointLocation.INSIDE
    assert in_domain(dom, 4, (F(0), F(17, 18))) is PointLocation.OUTSIDE
    assert in_domain(dom, 4, (F(1, 2), F(-1, 2))) is PointLocation.OUTSIDE
    assert in_domain(dom, 3, (F(0), F(1, 100))) is PointLocation.UNDECIDED
    assert in_domain(dom, 6, (F(0), F(1, 100))) is PointLocation.INSIDE


def test_in_domain_chain_midpoints():
    dom = _toy_domain()
    for n in (2, 3, 4):
        mid = chain_midpoint(n)
        assert in_domain(dom, n, mid) is PointLocation.INSIDE
        assert in_domain(dom, n - 1, mid) is PointLocation.UNDECIDED


def _seeded_domains(count):
    """Valid domains a_k = p - m^-k, b_k = q + n^-k from a fixed seed."""
    rng = random.Random(2014)
    out = []
    while len(out) < count:
        p, q = F(rng.randint(3, 11), 24), F(rng.randint(3, 15), 24)
        m, n = rng.randint(int(1 / p) + 1, 9), rng.randint(2, 9)
        if p < q and q + F(1, n) < 1:
            a_seq, b_seq = parse_sequence_expr(f"{p}-{m}^-k"), parse_sequence_expr(f"{q}+{n}^-k")
            out.append(OmegaDomain(a_seq, b_seq))
    return out


@pytest.mark.parametrize(
    "dom",
    [_toy_domain(), _const_domain(), *_seeded_domains(3)],
    ids=["toy", "const", "seeded-0", "seeded-1", "seeded-2"],
)
def test_in_domain_matches_oracle_on_edges(dom):
    # every corner coordinate of slabs k and k + 1 against every edge height
    # of slab k, mirrored below the axis, at every depth that reaches slab k
    for k in range(1, 9):
        u = F(1, 3 ** (k + 1))
        xs = {F(0), F(1), F(-1)}
        for j in (k, k + 1):
            a_j, b_j = dom.terms(j)
            xs |= {a_j, -a_j, b_j, -b_j}
        ys = [s * h * u for h in (3, 5, 6, 8, 9) for s in (1, -1)]
        for depth in range(max(1, k - 1), 9):
            for x in xs:
                for y in ys:
                    assert in_domain(dom, depth, (x, y)) is _oracle_in_domain(dom, depth, (x, y))


@pytest.mark.parametrize(
    "dom, depth, res",
    [
        # centers of res 24 and 72 hit x = +-1/4; those of res 54 hit
        # y = 1/3, 5/9 and 1/9 and x = +-1
        (_const_domain(), 3, 24),
        (_const_domain(), 1, 54),
        (_const_domain(), 4, 72),
        (_toy_domain(), 2, 48),
        (_toy_domain(), 8, 54),
        *[(dom, d, 18) for dom, d in zip(_seeded_domains(3), (1, 3, 6))],
    ],
)
def test_domain_image_matches_oracle_raster(dom, depth, res):
    assert domain_image(dom, depth, res).tobytes() == _oracle_image(dom, depth, res).tobytes()
    assert domain_ppm(dom, depth, res) == ppm_bytes(_oracle_image(dom, depth, res))


def test_domain_image_raises_as_the_oracle_does():
    # the slats of the last domain cross from slab 3 on
    crossed = OmegaDomain(parse_sequence_expr("1/2"), parse_sequence_expr("1/3"))
    late = OmegaDomain(parse_sequence_expr("1/2-2^-k"), parse_sequence_expr("1/3+9^-k"))
    assert domain_image(late, 2, 16).tobytes() == _oracle_image(late, 2, 16).tobytes()
    for dom, depth in ((_toy_domain(), 0), (crossed, 1), (late, 3)):
        with pytest.raises(InvariantError) as want:
            _oracle_image(dom, depth, 16)
        with pytest.raises(InvariantError, match=f"^{want.value}$"):
            domain_image(dom, depth, 16)


def test_sample_polyline_square():
    square = ((F(-1), F(-1)), (F(1), F(-1)), (F(1), F(1)), (F(-1), F(1)))
    points = sample_polyline(square, 0.25)
    assert len(points) >= 32
    for z in points:
        assert max(abs(z.real), abs(z.imag)) == pytest.approx(1.0, abs=1e-12)


def test_gamma_hausdorff_cauchy_rate():
    dom = _toy_domain()
    d24 = gamma_hausdorff(dom, 2, 4)
    d35 = gamma_hausdorff(dom, 3, 5)
    d46 = gamma_hausdorff(dom, 4, 6)
    assert d24 == pytest.approx(0.098765, abs=2e-3)
    assert d35 == pytest.approx(0.032926, abs=1e-3)
    assert d46 == pytest.approx(0.010975, abs=5e-4)
    assert d24 <= 2 * 3.0**-2
    assert d35 <= 2 * 3.0**-3
    assert d46 <= 2 * 3.0**-4


def test_edge_distance_matches_dense_sampling():
    # a dense sample at spacing d lies on the curve and within d/2 of each
    # of its points, so it brackets the exact distance in [dense - d/2, dense]
    rng = random.Random(12)
    verts = build_gamma_n(_toy_domain(), 3)
    spacing = 1e-4
    dense = np.array(sample_polyline(verts, spacing))
    for _ in range(40):
        p = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        exact, sampled = _to_edges([p], verts), abs(dense - p).min()
        assert sampled - spacing / 2 <= exact <= sampled
    assert _to_edges(sample_polyline(verts, 0.01), verts) < 1e-15


def test_gamma_hausdorff_bracket_holds_the_sampled_distance():
    # the former sample-to-sample value lies in [upper - spacing/2, upper]
    dom = _toy_domain()
    spacing = 3.0**-4 / 4
    former = hausdorff_distance(
        sample_polyline(build_gamma_n(dom, 2), spacing),
        sample_polyline(build_gamma_n(dom, 4), spacing),
    )
    upper = gamma_hausdorff(dom, 2, 4)
    assert upper - spacing / 2 <= former <= upper
    assert upper == pytest.approx(0.100309, abs=1e-6)


def test_term_bits_ceiling():
    # a constant 1/2^65535 has a 65536-bit denominator: 8 terms reach the
    # ceiling exactly, the 9th passes it
    value = F(1, 2**65535)
    dom = OmegaDomain(RationalSequence(lambda k: value), parse_sequence_expr("1/2"))
    assert 8 * 65536 == MAX_TERM_BITS
    assert dom.terms(8) == (value, F(1, 2))
    with pytest.raises(InvariantError, match="term 9 has a 65536-bit denominator"):
        dom.terms(9)
