"""Carved-square domain: sequence parsing, boundary polylines, crosscut
chains, impressions, and exact point location."""

from fractions import Fraction

import pytest

from quaddyn.combdomain import (
    MonotoneRationalSequence,
    OmegaDomain,
    PointLocation,
    SequenceDirection,
    build_gamma_n,
    chain_midpoint,
    crosscut_chain,
    gamma_hausdorff,
    impression_segments,
    in_domain,
    parse_sequence_expr,
    rectangles,
    sample_polyline,
    toy_sequences,
)
from quaddyn.errors import InvariantError

F = Fraction


def _toy_domain():
    a_seq, b_seq = toy_sequences()
    return OmegaDomain(a_seq, b_seq)


def _const_domain():
    a_seq = parse_sequence_expr("1/4", direction=SequenceDirection.INCREASING)
    b_seq = parse_sequence_expr("2/5", direction=SequenceDirection.DECREASING)
    return OmegaDomain(a_seq, b_seq)


def test_toy_sequence_terms():
    dom = _toy_domain()
    assert [dom.a(n) for n in (1, 2, 3, 4)] == [F(0), F(3, 16), F(15, 64), F(63, 256)]
    assert [dom.b(n) for n in (1, 2, 3, 4)] == [F(7, 12), F(19, 48), F(67, 192), F(259, 768)]


def test_parse_sequence_expr_directions():
    inc = parse_sequence_expr("1/4-4^-k")
    dec = parse_sequence_expr("1/3+4^-k")
    assert inc.direction is SequenceDirection.INCREASING
    assert dec.direction is SequenceDirection.DECREASING
    assert inc.term(2) == F(3, 16)
    assert dec.term(2) == F(19, 48)


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
    values = {1: F(1, 10), 2: F(1), 3: F(3, 10)}
    seq = MonotoneRationalSequence(
        direction=SequenceDirection.INCREASING, term_fn=values.__getitem__
    )
    assert seq.term(1) == F(1, 10)
    assert seq.term(2) == F(1)
    with pytest.raises(InvariantError):
        seq.term(3)


def test_monotone_sequence_respects_limit_bracket():
    seq = MonotoneRationalSequence(
        direction=SequenceDirection.INCREASING,
        term_fn=lambda k: F(k, 4),
        limit_bracket=(F(1, 2), F(1, 2)),
    )
    assert seq.term(1) == F(1, 4)
    with pytest.raises(InvariantError):
        seq.term(3)


def test_domain_requires_opposite_directions():
    inc = parse_sequence_expr("1/4-4^-k")
    with pytest.raises(InvariantError):
        OmegaDomain(inc, inc)


def test_domain_cross_violation_surfaces_on_query():
    a_seq = parse_sequence_expr("1/2", direction=SequenceDirection.INCREASING)
    b_seq = parse_sequence_expr("1/3", direction=SequenceDirection.DECREASING)
    dom = OmegaDomain(a_seq, b_seq)
    with pytest.raises(InvariantError):
        rectangles(dom, 1)


def test_rectangles_reference_geometry():
    slab, left, right = rectangles(_const_domain(), 1)
    assert (slab.x_lo, slab.x_hi) == (F(-2, 5), F(2, 5))
    assert (slab.y_lo, slab.y_hi) == (F(1, 3), F(1))
    assert not slab.left_closed and not slab.bottom_closed and slab.top_closed
    assert (left.x_lo, left.x_hi, left.y_lo, left.y_hi) == (F(-2, 5), F(1, 4), F(8, 9), F(1))
    assert (right.x_lo, right.x_hi, right.y_lo, right.y_hi) == (F(-1, 4), F(2, 5), F(5, 9), F(2, 3))
    assert left.height == right.height == F(1, 9)


def test_slats_sit_inside_the_slab():
    dom = _toy_domain()
    for n in (1, 2, 3):
        slab, left, right = rectangles(dom, n)
        for slat in (left, right):
            assert slab.x_lo <= slat.x_lo < slat.x_hi <= slab.x_hi
            assert slab.y_lo < slat.y_lo < slat.y_hi <= slab.y_hi


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
        _, left_slat, right_slat = rectangles(dom, n)
        chain = crosscut_chain(n)
        bottom, top = chain.start, chain.end
        assert bottom[1] == right_slat.y_hi
        assert right_slat.x_lo <= bottom[0] <= right_slat.x_hi
        assert top[1] == left_slat.y_lo
        assert left_slat.x_lo <= top[0] <= left_slat.x_hi


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
