"""Continued fractions: convergents, expansion round trips, Gauss orbits,
Brjuno partial sums, and the step-perturbed family."""

import random
from fractions import Fraction

import mpmath
import pytest

from quaddyn.cfrac import (
    CFExpansion,
    brjuno_partial_sums,
    brjuno_sum,
    cf_expand,
    convergent_pairs,
    convergents,
    gauss_orbit,
    parse_cf_text,
    perturbed_cf,
)
from quaddyn.errors import InvariantError

GOLDEN = CFExpansion((), (1,))
SILVER = CFExpansion((), (2,))


def test_canonical_form_rewrites_trailing_one():
    assert CFExpansion((2, 1)).quotients == (3,)
    assert CFExpansion((1, 1, 1)).quotients == (1, 2)
    assert CFExpansion((2,)).quotients == (2,)


def test_quotients_must_be_positive():
    with pytest.raises(InvariantError):
        CFExpansion((1, 0, 2))
    with pytest.raises(InvariantError):
        CFExpansion((1,), (0,))


def test_golden_convergents_are_fibonacci_ratios():
    assert convergents(GOLDEN, 4) == [
        Fraction(1, 1),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 5),
    ]


def test_silver_convergents():
    assert convergents(SILVER, 3) == [Fraction(1, 2), Fraction(2, 5), Fraction(5, 12)]


def test_single_quotient_convergent():
    assert convergents(CFExpansion((2,)), 1) == [Fraction(1, 2)]


def test_finite_expansion_runs_out_of_quotients():
    with pytest.raises(InvariantError):
        convergents(CFExpansion((3, 7)), 5)


def test_cf_expand_known_values():
    assert cf_expand(Fraction(1, 2)).quotients == (2,)
    assert cf_expand(Fraction(3, 5)).quotients == (1, 1, 2)
    assert cf_expand(Fraction(5, 12)).quotients == (2, 2, 2)


def test_cf_expand_requires_open_unit_interval():
    with pytest.raises(InvariantError):
        cf_expand(Fraction(3, 2))
    with pytest.raises(InvariantError):
        cf_expand(Fraction(0))


def test_expand_round_trips_convergent_values():
    rng = random.Random(20240819)
    for _ in range(50):
        den = rng.randrange(7, 4000)
        num = rng.randrange(1, den)
        x = Fraction(num, den)
        cf = cf_expand(x)
        assert convergents(cf, len(cf.quotients))[-1] == x


def test_denominator_recurrence():
    pairs = convergent_pairs(GOLDEN, 12)
    qs = [q for _, q in pairs]
    rs = [GOLDEN.quotient(i) for i in range(12)]
    for k in range(2, 12):
        assert qs[k] == rs[k] * qs[k - 1] + qs[k - 2]


def test_convergent_error_bound():
    pairs = convergent_pairs(GOLDEN, 10)
    with mpmath.workprec(96):
        theta = GOLDEN.value_mpf(96)
        for k in range(9):
            p, q = pairs[k]
            q_next = pairs[k + 1][1]
            assert abs(theta - mpmath.mpf(p) / q) < mpmath.mpf(1) / (q * q_next)


def test_gauss_orbit_constant_for_fixed_points():
    for cf, k in ((GOLDEN, 1), (SILVER, 2)):
        orbit = gauss_orbit(cf, 6, prec_bits=96)
        with mpmath.workprec(96):
            fixed = (mpmath.sqrt(k * k + 4) - k) / 2
            for theta in orbit:
                assert abs(theta - fixed) < mpmath.mpf(2) ** -80


def test_gauss_orbit_period_two():
    orbit = gauss_orbit(CFExpansion((), (1, 2)), 5, prec_bits=96)
    with mpmath.workprec(96):
        assert abs(orbit[0] - orbit[2]) < mpmath.mpf(2) ** -80
        assert abs(orbit[1] - orbit[3]) < mpmath.mpf(2) ** -80
        step = mpmath.frac(1 / orbit[0])
        assert abs(step - orbit[1]) < mpmath.mpf(2) ** -78


def test_brjuno_first_term():
    cf = CFExpansion((), (3,))
    first = brjuno_sum(cf, 1, prec_bits=96)
    theta = gauss_orbit(cf, 1, prec_bits=96)[0]
    with mpmath.workprec(96):
        assert abs(first - mpmath.log(1 / theta)) < mpmath.mpf(2) ** -80


@pytest.mark.parametrize("cf", [GOLDEN, SILVER], ids=["golden", "silver"])
def test_brjuno_converges_to_closed_form(cf):
    # All Gauss iterates coincide, so the series is geometric with ratio
    # theta and sums to log(1/theta) / (1 - theta).
    sums = brjuno_partial_sums(cf, 50, prec_bits=128)
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    with mpmath.workprec(128):
        theta = cf.value_mpf(128)
        closed = mpmath.log(1 / theta) / (1 - theta)
        assert abs(sums[-1] - closed) < 1e-6


def test_perturbed_cf_inserts_floor_of_power():
    assert perturbed_cf((1, 1), 2).quotients == (1, 1, 4)
    assert perturbed_cf((1, 1, 1), 2).quotients == (1, 1, 1, 8)
    assert perturbed_cf((2,), 3).quotients == (2, 9)
    assert perturbed_cf((1, 1), 2).tail == (1,)


def test_perturbed_cf_rejects_small_amplitude():
    with pytest.raises(InvariantError):
        perturbed_cf((1, 1), 1)
    with pytest.raises(InvariantError):
        perturbed_cf((), 2)


def test_parse_cf_text_round_trip():
    assert parse_cf_text("1,2,3:rep=4,5") == CFExpansion((1, 2, 3), (4, 5))
    assert parse_cf_text("cf:1,1,1:rep=1") == CFExpansion((1, 1, 1), (1,))
    assert parse_cf_text("2,2,2") == CFExpansion((2, 2, 2))


def test_bracket_contains_value():
    width = Fraction(1, 2**40)
    lo, hi = GOLDEN.bracket(width)
    assert hi - lo <= width
    with mpmath.workprec(96):
        theta = GOLDEN.value_mpf(96)
        assert mpmath.mpf(lo.numerator) / lo.denominator <= theta
        assert theta <= mpmath.mpf(hi.numerator) / hi.denominator


def _bracket_oracle(cf: CFExpansion, max_width: Fraction) -> tuple[Fraction, Fraction]:
    """CFExpansion.bracket without its bit-length pre-test: the first pair of
    consecutive convergents p'/q', p/q with 1/(q q') <= max_width."""
    p, q, prev_p, prev_q = 0, 1, 1, 0
    for i in range(1, 100_001):
        r = cf.quotient(i - 1)
        p, q, prev_p, prev_q = r * p + prev_p, r * q + prev_q, p, q
        if i >= 2 and Fraction(1, q * prev_q) <= max_width:
            lo, hi = Fraction(prev_p, prev_q), Fraction(p, q)
            return (lo, hi) if lo <= hi else (hi, lo)
    raise AssertionError("oracle did not converge")


def test_bracket_matches_the_plain_loop():
    rng = random.Random(20261019)
    angles = [GOLDEN, SILVER, parse_cf_text("3,1,4:rep=9"), parse_cf_text("1:rep=1,1,7")]
    for _ in range(12):
        pre = tuple(rng.randint(1, 50) for _ in range(rng.randint(0, 4)))
        per = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 3)))
        angles.append(CFExpansion(pre, per))
    widths = [Fraction(1, 2**k) for k in (1, 2, 64, 4096)]
    widths += [Fraction(3, 10**k) for k in (1, 2, 20, 300)]
    widths += [Fraction(7, 3), Fraction(2**80 - 1, 2**81 + 3)]
    for cf in angles:
        for width in widths:
            assert cf.bracket(width) == _bracket_oracle(cf, width), (cf, width)


def test_perturbed_cf_refuses_a_power_above_the_ceiling():
    # q_1 = 2**21 - 1 for the prefix (2**21 - 1,): A = 2 (2 bits) gives
    # 2**22 - 2, within the ceiling, and A = 4 (3 bits) goes past it
    assert perturbed_cf((2**21 - 1,), 2).quotients[-1] == 2 ** (2**21 - 1)
    with pytest.raises(InvariantError, match="-bit ceiling"):
        perturbed_cf((2**21 - 1,), 4)
    with pytest.raises(InvariantError, match="-bit ceiling"):
        perturbed_cf((1,) * 40, 2)
