"""Allowed half circle, itinerary membership, finite covers, the dense orbit,
and the cyclic-order semiconjugacy test."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from quaddyn.angles import Angle
from quaddyn.cantor import (
    CantorCover,
    CircleInterval,
    HalfCircleArc,
    Membership,
    SemiconjugacyReport,
    _alpha_bracket,
    _cover_arcs,
    _cyclic_order,
    _first_rank_mismatch,
    _neighbours_meet,
    arcs_hausdorff,
    build_arc,
    cover,
    dense_orbit,
    membership,
    semiconjugacy_check,
)
from quaddyn.cfrac import CFExpansion, cf_expand
from quaddyn.errors import InvariantError, PrecisionError

GOLDEN = CFExpansion((), (1,))
SILVER = CFExpansion((), (2,))


def _oracle_angles():
    """Golden, silver, 1̄2̄, 3̄ and six seeded bounded-type angles."""
    rng = random.Random(2014)
    angles = [GOLDEN, SILVER, CFExpansion((), (1, 2)), CFExpansion((), (3,))]
    for _ in range(6):
        pre = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
        per = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        angles.append(CFExpansion(pre, per))
    return angles


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (InvariantError, PrecisionError) as exc:
        return (type(exc).__name__, str(exc))


# -- Fraction oracles: the per-step CircleInterval loops that the integer
# -- arithmetic of cover, dense_orbit and semiconjugacy_check replaces


def _oracle_halved(arc):
    lo, hi = arc.lo / 2, arc.hi / 2
    half = Fraction(1, 2)
    return (CircleInterval(lo, hi), CircleInterval(lo + half, hi + half))


def _oracle_intersect(arc, other):
    if arc.width + other.width >= 1:
        raise InvariantError("arc intersection needs combined width below 1")
    for turn in (-1, 0, 1):
        lo = max(arc.lo, other.lo + turn)
        hi = min(arc.hi, other.hi + turn)
        if lo <= hi:
            return CircleInterval(lo % 1, lo % 1 + (hi - lo))
    return None


def _oracle_build_arc(cf, prec=64):
    """build_arc on the Fraction alpha bracket, as before _arc_numerators."""
    if cf.is_rational:
        raise InvariantError("the Cantor construction needs an irrational angle")
    if prec < 4:
        raise InvariantError("need prec >= 4")
    alpha = _alpha_bracket(cf, prec + 2)
    scale = 1 << (prec + 1)
    lo = Fraction((alpha.lo * scale).__floor__(), scale)
    hi = Fraction((alpha.hi * scale).__ceil__(), scale)
    if hi - lo > Fraction(1, 2**prec) * 2:
        raise PrecisionError("alpha bracket wider than requested")
    g_lo = (lo / 2) % 1
    return HalfCircleArc(low=CircleInterval(g_lo, g_lo + (hi - lo) / 2), alpha=alpha)


def _oracle_cover(cf, depth, prec=None):
    """cover as before _cover_arcs: the base arc from _oracle_build_arc."""
    if depth < 0:
        raise InvariantError("cover depth must be nonnegative")
    if prec is None:
        prec = 2 * depth + 24
    base = _oracle_build_arc(cf, prec).outer_arc()
    one = 1 << (prec + 2 + depth)
    b_lo, b_hi = int(base.lo * one), int(base.hi * one)
    arcs = [(b_lo, b_hi)]
    for _ in range(depth):
        refined = []
        for lo, hi in arcs:
            for h_lo, h_hi in ((lo >> 1, hi >> 1), ((lo + one) >> 1, (hi + one) >> 1)):
                m_lo, m_hi = max(h_lo, b_lo), min(h_hi, b_hi)
                if m_hi > m_lo:
                    refined.append((m_lo, m_hi))
        arcs = sorted(refined)
    return CantorCover(
        depth=depth,
        arcs=tuple(CircleInterval(Fraction(a, one), Fraction(b, one)) for a, b in arcs),
        hausdorff_bound=Fraction(1, 2**depth),
    )


def _oracle_dense_orbit(cf, count, prec=240):
    if count < 1:
        raise InvariantError("need at least one orbit point")
    bracket = _alpha_bracket(cf, prec + 2)
    out = []
    for _ in range(count):
        if bracket.width > Fraction(1, 4):
            raise PrecisionError(
                f"orbit bracket beyond width 1/4; start near 2^-{count + 2} "
                "relative to the target width instead"
            )
        out.append(bracket)
        bracket = bracket.doubled()
    return out


def _oracle_neighbours_meet(arcs, order):
    if len(order) < 2:
        return False
    for i, j in zip(order, order[1:] + order[:1]):
        forward = (arcs[j].midpoint - arcs[i].midpoint) % 1
        if min(forward, 1 - forward) <= (arcs[i].width + arcs[j].width) / 2:
            return True
    return False


def _oracle_cyclic_order(arcs):
    base = arcs[0].midpoint
    keyed = sorted(((a.midpoint - base) % 1, i) for i, a in enumerate(arcs))
    return tuple(i for _, i in keyed)


def _oracle_first_rank_mismatch(left, right):
    rank_left = {idx: pos for pos, idx in enumerate(left)}
    rank_right = {idx: pos for pos, idx in enumerate(right)}
    for idx in sorted(rank_left):
        if rank_left[idx] != rank_right[idx]:
            return idx
    return None


def _oracle_semiconjugacy_check(cf, count):
    if count < 1:
        raise InvariantError("need at least one orbit point")
    theta_lo, theta_hi = cf.bracket(Fraction(1, 2**240 * 4 * max(count, 2)))
    rotation = []
    for k in range(count):
        lo = (k * theta_lo) % 1
        rotation.append(CircleInterval(lo, lo + k * (theta_hi - theta_lo)))
    order_rotation = _oracle_cyclic_order(rotation)
    if _oracle_neighbours_meet(rotation, order_rotation):
        raise PrecisionError("rotation orbit brackets overlap at 2^-240")
    exponent = 240 + count + 2
    for _ in range(6):
        arcs = _oracle_dense_orbit(cf, count, exponent)
        order_doubling = _oracle_cyclic_order(arcs)
        if not _oracle_neighbours_meet(arcs, order_doubling):
            first = _oracle_first_rank_mismatch(order_doubling, order_rotation)
            return SemiconjugacyReport(
                count=count,
                passed=first is None,
                first_violation=first,
                undecided_pairs=0,
                alpha_exponent=exponent,
                max_width=max(a.width for a in arcs + rotation),
            )
        exponent *= 2
    raise PrecisionError(
        f"orbit brackets still overlap at alpha exponent {exponent // 2}"
    )


def _as_numerators(arcs):
    """CircleIntervals as (lo, width) numerators over their common denominator."""
    den = math.lcm(*(x.denominator for a in arcs for x in (a.lo, a.hi)))
    return [(int(a.lo * den), int(a.width * den)) for a in arcs], den


def _overlapping_pairs(arcs):
    """Oracle: count of pairs whose closed brackets meet; exhaustive and exact."""
    bad = 0
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            a, b = arcs[i], arcs[j]
            forward = (b.midpoint - a.midpoint) % 1
            gap = min(forward, 1 - forward)
            if gap <= (a.width + b.width) / 2:
                bad += 1
    return bad


def _sorted_verdict(arcs):
    numerators, den = _as_numerators(arcs)
    order = _cyclic_order(numerators, den)
    assert order == _oracle_cyclic_order(arcs)
    verdict = _neighbours_meet(numerators, order, den)
    assert verdict == _oracle_neighbours_meet(arcs, order)
    return verdict


def _arc_distance(x, arcs):
    """Distance on the circle from a point to a union of closed arcs."""
    best = Fraction(1)
    for arc in arcs:
        rel = (x - arc.lo) % 1
        if rel <= arc.width:
            return Fraction(0)
        best = min(best, rel - arc.width, 1 - rel)
    return best


def test_arc_is_an_antipodal_half_circle():
    # the outer arc runs from the low bracket to its half-turn shift
    arc = build_arc(GOLDEN, prec=32)
    outer = arc.outer_arc()
    assert outer.lo == arc.low.lo
    assert outer.width == Fraction(1, 2) + arc.low.width


def test_arc_contains_alpha_bracket():
    arc = build_arc(GOLDEN, prec=32)
    assert arc.classify(arc.alpha.lo, arc.alpha.width) == 1


def test_arc_bracket_width_at_prec_20():
    arc = build_arc(GOLDEN, prec=20)
    assert arc.low.width <= Fraction(1, 2**19)


def test_arc_endpoints_double_to_the_same_point():
    arc = build_arc(GOLDEN, prec=40)
    high_lo = arc.outer_arc().hi - arc.low.width
    assert (2 * arc.low.lo) % 1 == (2 * high_lo) % 1
    doubled = (2 * arc.low.lo) % 1
    slack = 4 * arc.low.width
    assert arc.alpha.lo - slack <= doubled <= arc.alpha.hi + slack


def test_build_arc_input_validation():
    with pytest.raises(InvariantError):
        build_arc(cf_expand(Fraction(1, 3)), prec=32)
    with pytest.raises(InvariantError):
        build_arc(GOLDEN, prec=2)


def test_membership_alpha_bracket_inside():
    arc = build_arc(GOLDEN, prec=48)
    for depth in (0, 4, 16):
        assert membership(arc.alpha, arc, depth=depth) is Membership.INSIDE


def test_membership_complementary_midpoint_outside_at_depth_zero():
    arc = build_arc(GOLDEN, prec=48)
    comp_mid = (arc.low.lo + Fraction(3, 4) + arc.low.width / 2) % 1
    approx = Fraction(round(comp_mid * 2**20), 2**20)
    assert membership(Angle(approx), arc, depth=0) is Membership.OUTSIDE


def test_membership_first_iterate_exit_detected_at_depth_one():
    arc = build_arc(GOLDEN, prec=48)
    comp_mid = Fraction(round(((arc.low.lo + Fraction(3, 4)) % 1) * 2**20), 2**20)
    pre_a = comp_mid / 2
    pre_b = comp_mid / 2 + Fraction(1, 2)
    inside_pre = pre_a if arc.classify(pre_a) == 1 else pre_b
    assert arc.classify(inside_pre) == 1
    assert membership(Angle(inside_pre), arc, depth=0) is not Membership.OUTSIDE
    assert membership(Angle(inside_pre), arc, depth=1) is Membership.OUTSIDE


def test_membership_fixed_point_zero_outside():
    for cf in (GOLDEN, SILVER):
        arc = build_arc(cf, prec=48)
        assert membership(Angle(0), arc, depth=0) is Membership.OUTSIDE


def test_cover_depth_zero_is_single_arc():
    cov = cover(GOLDEN, 0)
    assert cov.depth == 0
    assert len(cov.arcs) == 1
    assert cov.arcs[0].width >= Fraction(1, 2)


def test_cover_depth_one_has_at_most_two_arcs():
    cov = cover(GOLDEN, 1)
    assert 1 <= len(cov.arcs) <= 2


def test_cover_arc_count_bound_and_bound_field():
    for depth in (2, 5, 8):
        cov = cover(GOLDEN, depth)
        assert len(cov.arcs) <= 2 ** (depth + 1)
        assert cov.hausdorff_bound == Fraction(1, 2**depth)


def test_cover_arcs_disjoint_and_sorted():
    cov = cover(GOLDEN, 8)
    for a, b in zip(cov.arcs, cov.arcs[1:]):
        assert a.hi < b.lo
    assert cov.arcs[-1].hi - cov.arcs[0].lo < 1


def _merging_cover_oracle(cf, depth, prec):
    """Arcs of the refinement loop that also merges overlapping arcs and the
    arcs meeting across 0; cover leaves both merges out, as they cannot fire."""
    base = _oracle_build_arc(cf, prec).outer_arc()
    arcs = [base]
    for _ in range(depth):
        refined = []
        for piece in arcs:
            for half in _oracle_halved(piece):
                got = _oracle_intersect(half, base)
                if got is not None:
                    refined.append(got)
        refined.sort(key=lambda a: a.lo)
        merged = []
        for piece in refined:
            if merged and piece.lo <= merged[-1].hi:
                merged[-1] = CircleInterval(merged[-1].lo, max(merged[-1].hi, piece.hi))
            else:
                merged.append(piece)
        if len(merged) > 1 and merged[-1].hi - 1 >= merged[0].lo:
            last, first = merged[-1], merged[0]
            merged = [CircleInterval(last.lo, max(last.hi, first.hi + 1))] + merged[1:-1]
        arcs = [a for a in merged if a.width > 0]
    return tuple(arcs)


def test_cover_matches_merging_oracle():
    for cf in _oracle_angles():
        for depth in range(21):
            for prec in (None, 8, 12, 80):
                arcs = cover(cf, depth, prec).arcs
                oracle_prec = 2 * depth + 24 if prec is None else prec
                assert arcs == _merging_cover_oracle(cf, depth, oracle_prec), (cf, depth, prec)
                # sorted and pairwise disjoint, also across 0
                assert all(a.hi < b.lo for a, b in zip(arcs, arcs[1:]))
                assert len(arcs) == 1 or arcs[-1].hi - 1 < arcs[0].lo


# the angles of the integer-core sweep: two put gamma within 2^-11 of 1/2
NEAR_HALF = [CFExpansion((1, 8), (2,)), CFExpansion((1,), (12, 1))]
SWEEP_PRECS = [None, *range(4, 41)]


def test_build_arc_matches_fraction_oracle():
    errors = set()
    for cf in _oracle_angles() + NEAR_HALF + [cf_expand(Fraction(2, 7))]:
        for prec in [-1, 0, 3, *SWEEP_PRECS[1:], 64, 200]:
            got = _outcome(build_arc, cf, prec)
            assert got == _outcome(_oracle_build_arc, cf, prec), (cf, prec)
            if isinstance(got, tuple):
                errors.add(got)
    # the rational angle, prec below 4, and uncertified brackets
    assert len(errors) == 3


def test_cover_matches_fraction_oracle():
    for cf in _oracle_angles() + NEAR_HALF:
        for depth in range(-1, 15):
            for prec in SWEEP_PRECS:
                got = _outcome(cover, cf, depth, prec)
                assert got == _outcome(_oracle_cover, cf, depth, prec), (cf, depth, prec)
                if not isinstance(got, tuple):
                    arcs, one = _cover_arcs(cf, depth, prec)
                    assert got.arcs == tuple(
                        CircleInterval(Fraction(a, one), Fraction(b, one)) for a, b in arcs
                    )


def test_certified_base_arc_does_not_wrap():
    # cover meets each half with the base arc [gamma, gamma + 1/2 + w] only,
    # never with a turn of it, because gamma + w < 1/2 for every certified
    # arc; the two extra angles put gamma within 2^-11 of 1/2
    certified = 0
    for cf in _oracle_angles() + NEAR_HALF:
        for prec in range(4, 41):
            try:
                arc = build_arc(cf, prec)
            except PrecisionError:
                continue
            certified += 1
            assert arc.low.lo + arc.low.width < Fraction(1, 2), (cf, prec)
    assert certified > 400
    for cf in NEAR_HALF:
        for depth in range(13):
            assert cover(cf, depth).arcs == _merging_cover_oracle(cf, depth, 2 * depth + 24)


def test_cover_total_length_decreases():
    lengths = [sum(a.width for a in cover(GOLDEN, d, prec=80).arcs) for d in (0, 2, 4, 6)]
    assert all(b < a for a, b in zip(lengths, lengths[1:]))


def test_cover_nesting_at_fixed_precision():
    coarse = cover(GOLDEN, 3, prec=80)
    fine = cover(GOLDEN, 4, prec=80)
    for arc in fine.arcs:
        assert any(c.lo <= arc.lo and arc.hi <= c.hi for c in coarse.arcs)


def test_cover_forward_invariance_with_margin():
    coarse = cover(GOLDEN, 4, prec=80)
    fine = cover(GOLDEN, 5, prec=80)
    slack = Fraction(1, 2**70)
    for arc in fine.arcs:
        for x in (arc.lo, (arc.lo + arc.hi) / 2, arc.hi):
            doubled = (2 * x) % 1
            assert _arc_distance(doubled, coarse.arcs) <= slack


def test_dense_orbit_widths_double_each_step():
    orbit = dense_orbit(GOLDEN, 12, prec=200)
    widths = [b.width for b in orbit]
    assert all(w2 == 2 * w1 for w1, w2 in zip(widths, widths[1:]))


def test_dense_orbit_stays_in_cover():
    cov = cover(GOLDEN, 5)
    orbit = dense_orbit(GOLDEN, 30, prec=220)
    for bracket in orbit:
        assert any(a.contains(bracket.lo % 1) for a in cov.arcs)
        assert any(a.contains(bracket.hi % 1) for a in cov.arcs)


def test_dense_orbit_precision_exhaustion():
    with pytest.raises(Exception) as info:
        dense_orbit(GOLDEN, 400, prec=64)
    assert "precision" in str(info.value).lower() or "width" in str(info.value).lower()


@pytest.mark.parametrize(
    "count,prec",
    [(0, 240), (1, 4), (1, 240), (12, 200), (30, 220), (61, 64), (62, 64), (63, 64),
     (400, 64), (100, 100)],
)
def test_dense_orbit_matches_fraction_oracle(count, prec):
    # equal bracket lists, or equal error types and messages
    for cf in _oracle_angles():
        got = _outcome(dense_orbit, cf, count, prec)
        assert got == _outcome(_oracle_dense_orbit, cf, count, prec), (cf, count, prec)


def test_arcs_hausdorff_point_cases():
    from quaddyn.cantor import CircleInterval

    a = [CircleInterval(Fraction(0), Fraction(1, 4))]
    assert arcs_hausdorff(a, a) == 0
    # Farthest point of either arc from the other is its own midpoint.
    b = [CircleInterval(Fraction(1, 2), Fraction(3, 4))]
    assert arcs_hausdorff(a, b) == Fraction(3, 8)


def test_cover_hausdorff_nonincreasing_in_depth():
    covers = {d: cover(GOLDEN, d, prec=80) for d in (0, 1, 2, 3, 4, 5)}
    dists = [arcs_hausdorff(covers[n].arcs, covers[n + 2].arcs) for n in (0, 1, 2, 3)]
    assert all(b <= a for a, b in zip(dists, dists[1:]))


@pytest.mark.parametrize("count", [1, 2])
def test_semiconjugacy_tiny_counts_pass(count):
    report = semiconjugacy_check(GOLDEN, count)
    assert report.passed
    assert report.first_violation is None


def test_semiconjugacy_golden_medium_run():
    report = semiconjugacy_check(GOLDEN, 60)
    assert report.passed
    assert report.undecided_pairs == 0
    assert report.count == 60


@pytest.mark.parametrize("count", [1, 2, 10, 50])
def test_semiconjugacy_matches_fraction_oracle(count):
    for cf in _oracle_angles():
        got = _outcome(semiconjugacy_check, cf, count)
        assert got == _outcome(_oracle_semiconjugacy_check, cf, count), (cf, count)


@pytest.mark.parametrize("cf,exponent", [(GOLDEN, 442), (SILVER, 884)])
def test_semiconjugacy_escalation_on_the_c04_pair(cf, exponent):
    # C04 runs count 200; silver needs one doubling of the alpha exponent
    report = semiconjugacy_check(cf, 200)
    assert report == _oracle_semiconjugacy_check(cf, 200)
    assert report.passed
    assert report.alpha_exponent == exponent


def test_first_rank_mismatch_matches_rank_oracle():
    pairs = [
        (left, right)
        for n in range(6)
        for left in itertools.permutations(range(n))
        for right in itertools.permutations(range(n))
    ]
    rng = random.Random(2014)
    for _ in range(2000):
        left = list(range(rng.randint(6, 40)))
        rng.shuffle(left)
        right = left[:] if rng.random() < 0.2 else rng.sample(left, len(left))
        pairs.append((tuple(left), tuple(right)))
    for left, right in pairs:
        assert _first_rank_mismatch(left, right) == _oracle_first_rank_mismatch(left, right)


def _random_arc(rng, bits):
    scale = 2**bits
    lo = Fraction(rng.randrange(scale), scale)
    return CircleInterval(lo, lo + Fraction(rng.randrange(scale // rng.choice((2, 8, 64))), scale))


def _touching_partner(rng, arc, bits):
    # gap between midpoints equals the half-width sum exactly, on either side
    width = Fraction(rng.randrange(1, 2**bits // 8), 2**bits)
    gap = (arc.width + width) / 2
    mid = (arc.midpoint + rng.choice((gap, -gap))) % 1
    lo = (mid - width / 2) % 1
    return CircleInterval(lo, lo + width)


def test_sorted_overlap_test_matches_pairwise_oracle():
    rng = random.Random(2014)
    cases = [
        [CircleInterval(Fraction(1, 3), Fraction(1, 2))],
        [CircleInterval(Fraction(0), Fraction(0))],
        # straddling 0 and touching the arc at 0 from the other side
        [CircleInterval(Fraction(7, 8), Fraction(9, 8)), CircleInterval(Fraction(1, 8), Fraction(1, 4))],
        [CircleInterval(Fraction(7, 8), Fraction(9, 8)), CircleInterval(Fraction(1, 4), Fraction(1, 2))],
        # equal midpoints, different widths
        [CircleInterval(Fraction(1, 4), Fraction(1, 2)), CircleInterval(Fraction(5, 16), Fraction(7, 16))],
    ]
    for _ in range(400):
        bits = rng.choice((6, 8, 12, 20))
        arcs = [_random_arc(rng, bits) for _ in range(rng.choice((1, 2, 3, 5, 12, 40)))]
        if rng.random() < 0.5:
            arcs.append(_touching_partner(rng, rng.choice(arcs), bits))
        if rng.random() < 0.2:
            twin = rng.choice(arcs)
            arcs.append(CircleInterval(twin.lo, twin.hi))
        if rng.random() < 0.3:
            lo = 1 - Fraction(rng.randrange(1, 2**bits // 16), 2**bits)
            arcs.append(CircleInterval(lo, lo + Fraction(2 * rng.randrange(1, 2**bits // 16), 2**bits)))
        rng.shuffle(arcs)
        cases.append(arcs)
    verdicts = set()
    for arcs in cases:
        verdict = _sorted_verdict(arcs)
        assert verdict == bool(_overlapping_pairs(arcs)), arcs
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "cf,exponent,meets",
    [(GOLDEN, 442, False), (SILVER, 442, True), (SILVER, 884, False)],
)
def test_sorted_overlap_test_on_semiconjugacy_orbits(cf, exponent, meets):
    arcs = dense_orbit(cf, 200, exponent)
    assert _sorted_verdict(arcs) is meets
    assert bool(_overlapping_pairs(arcs)) is meets
