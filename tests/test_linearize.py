"""Linearization series for the quadratic with an irrationally indifferent
fixed point: coefficient identities, radius estimates, probes, distortion.

The fixed-point kernel is checked against oracles: the plain convolution
recursion and Horner evaluation in mpc at the series' own precision, the
unscaled fixed-point recursion for the radius-normalised one, mp.nint for the
mantissa-shift conversion, a direct mpc sum and the recursive mixed-radix
decimation in time for the circle DFT, and the full-window scan for the root
test."""

import ast
import json
import math
import os
import random
import subprocess
import sys
from operator import mul, sub
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import mpc_mul, mpc_sub, round_nearest

from quaddyn import cli, linearize
from quaddyn.cfrac import CFExpansion, brjuno_sum, perturbed_cf
from quaddyn.errors import InvariantError, PrecisionError
from quaddyn.linearize import (
    LinearizationSeries,
    _circle_values,
    _fixed,
    _to_fixed,
    conformal_radius_estimate,
    functional_residual,
    inner_radius_probe,
    linearization_coeffs,
    radius_ratio_experiment,
)

GOLDEN = CFExpansion((), (1,))
SILVER = CFExpansion((), (2,))
C08_MEMBER = perturbed_cf((1, 2, 1, 1, 2, 1), 2)
ORACLE_ANGLES = [GOLDEN, SILVER, C08_MEMBER]

GOLDEN_R_HAT_256 = 0.33661267179925614


# -- mpc oracle ----------------------------------------------------------------


def oracle_coeffs(cf, order, prec):
    """The full convolution recursion in mpc arithmetic at prec bits."""
    with mp.workprec(prec):
        theta = cf.value_mpf(prec)
        lam = mp.expjpi(2 * theta)
        floor = mpf(2) ** (-(prec - 8))
        b = [mpc(0), mpc(1)]
        lam_pow = lam
        for n in range(2, order + 1):
            lam_pow *= lam
            denom = lam_pow - lam
            if abs(denom) < floor:
                raise PrecisionError(
                    f"small denominator at n={n} is below working precision"
                )
            total = mpc(0)
            for i in range(1, n):
                total += b[i] * b[n - i]
            b.append(total / denom)
        return LinearizationSeries(lam=lam, coeffs=tuple(b[1:]), prec=prec)


def oracle_fixed(x, frac):
    """round(x * 2^frac) through mpmath, at the ambient precision."""
    return int(mp.nint(mp.ldexp(x, frac)))


def fixed_point_oracle(cf, order, prec):
    """The unscaled fixed-point recursion: ints round(b_n * 2^(prec+32)).

    Denominators come from the mpc chain and its mpf floor test, and every
    mpf <-> int conversion runs inside mp.workprec(prec).
    """
    frac = prec + 32
    with mp.workprec(prec):
        theta = cf.value_mpf(prec)
        lam = mp.expjpi(2 * theta)
        floor = mpf(2) ** (-(prec - 8))
        re, im, su = [0, 1 << frac], [0, 0], [0, 1 << frac]
        lam_pow = lam
        for n in range(2, order + 1):
            lam_pow *= lam
            denom = lam_pow - lam
            if abs(denom) < floor:
                raise PrecisionError(
                    f"small denominator at n={n} is below working precision"
                )
            dr, di = (oracle_fixed(part, 2 * frac) for part in (denom.real, denom.imag))
            h = (n + 1) // 2
            rr = sum(map(mul, re[1:h], re[n - 1 : n - h : -1]))
            ii = sum(map(mul, im[1:h], im[n - 1 : n - h : -1]))
            ss = sum(map(mul, su[1:h], su[n - 1 : n - h : -1]))
            tr, ti = 2 * (rr - ii), 2 * (ss - rr - ii)
            if n % 2 == 0:
                mr, mi = re[h], im[h]
                tr += mr * mr - mi * mi
                ti += 2 * mr * mi
            norm = dr * dr + di * di
            half = norm >> 1
            br = (((tr * dr + ti * di) << frac) + half) // norm
            bi = (((ti * dr - tr * di) << frac) + half) // norm
            re.append(br)
            im.append(bi)
            su.append(br + bi)
        coeffs = tuple(mpc(mpf((r, -frac)), mpf((i, -frac))) for r, i in zip(re[1:], im[1:]))
        return LinearizationSeries(lam=lam, coeffs=coeffs, prec=prec)


def oracle_evaluate(series, w):
    with mp.workprec(series.prec):
        acc = mpc(0)
        for b in reversed(series.coeffs):
            acc = acc * w + b
        return acc * w


def oracle_unit_points(samples, frac):
    """One mp.expjpi per sample, no symmetry."""
    return tuple(_to_fixed(mp.expjpi(mpf(2 * k) / samples), frac) for k in range(samples))


def oracle_dft(re, im, table, frac):
    """X_k = sum_j a_j w^(jk) for k < n = len(re), with w = exp(2 pi i / n).

    Mixed-radix decimation in time: the p subsequences a_(r + p t), for p
    the smallest prime factor of n, are transformed recursively and then
    recombined with twiddles w^(rk).  table holds the len(table)-th roots of
    unity, and n divides len(table), so w^e is table[(e mod n) * stride].
    Each twiddle product costs three integer products and truncates once.
    """
    n = len(re)
    if n == 1:
        return re, im
    p = linearize._radices(n)[0]
    m, stride = n // p, len(table) // n
    subs = [oracle_dft(re[r::p], im[r::p], table, frac) for r in range(p)]
    if p == 2:
        # X_(k + m) = Y_0[k] - w^k Y_1[k]: one product serves two outputs
        (er, ei), (odr, odi) = subs
        lo_r, lo_i, hi_r, hi_i = [], [], [], []
        for k in range(m):
            wr, wi = table[k * stride]
            a, b = odr[k], odi[k]
            t = wr * (a + b)
            tr, ti = (t - b * (wr + wi)) >> frac, (t + a * (wi - wr)) >> frac
            lo_r.append(er[k] + tr)
            lo_i.append(ei[k] + ti)
            hi_r.append(er[k] - tr)
            hi_i.append(ei[k] - ti)
        return lo_r + hi_r, lo_i + hi_i
    out_r, out_i = [], []
    for k in range(n):
        j = k % m
        sr, si = subs[0][0][j], subs[0][1][j]
        for r in range(1, p):
            wr, wi = table[(r * k % n) * stride]
            a, b = subs[r][0][j], subs[r][1][j]
            t = wr * (a + b)
            sr += (t - b * (wr + wi)) >> frac
            si += (t + a * (wi - wr)) >> frac
        out_r.append(sr)
        out_i.append(si)
    return out_r, out_i


def _oracle_circle(radius, samples):
    return [radius * mp.expjpi(mpf(2 * k) / samples) for k in range(samples)]


def oracle_probe(series, r_hat, samples=512):
    with mp.workprec(series.prec):
        radius = mpf("0.98") * mpf(r_hat)
        circle = _oracle_circle(radius, samples)
        best = min(abs(oracle_evaluate(series, w)) for w in circle)
        top = abs(series.coeffs[-1]) * radius**series.order
        tail = top * mpf("0.98") / (1 - mpf("0.98"))
        return best, bool(tail > mpf("0.01") * best)


def oracle_residual(series, r_hat, samples=64):
    with mp.workprec(series.prec):
        lam = series.lam
        worst = mpf(0)
        for w in _oracle_circle(mpf(r_hat) / 2, samples):
            left = oracle_evaluate(series, lam * w)
            right = oracle_evaluate(series, w)
            worst = max(worst, abs(left - lam * right - right * right))
        return worst


def oracle_root_test(coeffs, lo, hi):
    """The full scan: the exact |b_n|^(1/n) for every n in the window."""
    worst = mpf(0)
    for n in range(lo, hi + 1):
        mag = abs(coeffs[n - 1]) ** (mpf(1) / n)
        if mag > worst:
            worst = mag
    return 1 / worst


@pytest.fixture(scope="module")
def oracle_256():
    """Oracle series at order 256 and 256 bits, built once per angle."""
    cache = {}

    def get(cf):
        if cf not in cache:
            cache[cf] = oracle_coeffs(cf, 256, 256)
        return cache[cf]

    return get


@pytest.fixture(scope="module")
def golden_series():
    return linearization_coeffs(GOLDEN, 256, prec=256)


def test_first_coefficient_is_one(golden_series):
    with mp.workprec(256):
        assert golden_series.coeffs[0] == 1


def test_second_coefficient_closed_form(golden_series):
    lam = golden_series.lam
    with mp.workprec(256):
        expected = 1 / (lam * lam - lam)
        err = abs(golden_series.coeffs[1] - expected)
        assert err < mpmath.mpf(2) ** -200


def test_multiplier_on_unit_circle(golden_series):
    with mp.workprec(256):
        assert abs(abs(golden_series.lam) - 1) < mpmath.mpf(2) ** -240


def test_recursion_residual_identity(golden_series):
    lam = golden_series.lam
    coeffs = golden_series.coeffs
    with mp.workprec(256):
        for n in (2, 3, 17, 100):
            conv = sum(coeffs[i - 1] * coeffs[n - i - 1] for i in range(1, n))
            defect = abs(coeffs[n - 1] * (lam**n - lam) - conv)
            scale = 1 + abs(conv)
            assert defect < scale * mpmath.mpf(2) ** -180


def test_coefficients_agree_across_precisions():
    low = linearization_coeffs(GOLDEN, 48, prec=192)
    high = linearization_coeffs(GOLDEN, 48, prec=320)
    with mp.workprec(192):
        for a, b in zip(low.coeffs, high.coeffs):
            assert abs(a - b) < (1 + abs(b)) * mpmath.mpf(2) ** -120


def test_small_denominator_reported():
    with pytest.raises(PrecisionError) as expected:
        oracle_coeffs(GOLDEN, 200, prec=8)
    with pytest.raises(PrecisionError) as got:
        linearization_coeffs(GOLDEN, 200, prec=8)
    assert "n=" in str(got.value)
    assert str(got.value) == str(expected.value)


def test_small_denominator_matches_fixed_point_oracle():
    # the integer floor test refuses the same index as the mpf one, and
    # below it the normalised kernel reproduces the unscaled one
    for prec in (8, 12, 16):
        with pytest.raises(PrecisionError) as expected:
            fixed_point_oracle(GOLDEN, 400, prec)
        with pytest.raises(PrecisionError) as got:
            linearization_coeffs(GOLDEN, 400, prec=prec)
        assert str(got.value) == str(expected.value)
        n = int(str(expected.value).split("n=")[1].split()[0])
        fast = linearization_coeffs(GOLDEN, n - 1, prec)
        _assert_bit_identical(fast, fixed_point_oracle(GOLDEN, n - 1, prec))


@pytest.mark.parametrize("prec", [192, 320])
@pytest.mark.parametrize("cf", ORACLE_ANGLES, ids=["golden", "silver", "c08"])
def test_coefficients_match_mpc_oracle(cf, prec):
    fast = linearization_coeffs(cf, 256, prec=prec)
    slow = oracle_coeffs(cf, 256, prec)
    with mp.workprec(prec):
        assert fast.lam == slow.lam
        for a, b in zip(fast.coeffs, slow.coeffs, strict=True):
            assert abs(a - b) <= abs(b) * mpf(2) ** -(prec - 16)


@pytest.mark.parametrize("cf", ORACLE_ANGLES, ids=["golden", "silver", "c08"])
def test_probe_and_residual_match_mpc_oracle(cf, oracle_256):
    fast = linearization_coeffs(cf, 256, prec=256)
    slow = oracle_256(cf)
    est = conformal_radius_estimate(fast)
    slow_est = conformal_radius_estimate(slow)
    assert float(est.r_hat) == float(slow_est.r_hat)
    probe = inner_radius_probe(fast, est.r_hat)
    value, flagged = oracle_probe(slow, slow_est.r_hat)
    assert float(probe.value) == float(value)
    assert probe.tail_flagged == flagged
    residual = functional_residual(fast, est.r_hat)
    expected = oracle_residual(slow, slow_est.r_hat)
    assert abs(residual - expected) < mpf("1e-70")


@pytest.mark.parametrize(
    "order, samples", [(80, 8), (80, 200), (80, 1024), (512, 8), (512, 200)]
)
def test_circle_dft_matches_mpc_horner(order, samples):
    # The same coefficients through the DFT and through the mpc Horner
    # oracle, so any difference is the evaluation's alone.
    series = linearization_coeffs(GOLDEN, order, prec=256)
    r_hat = conformal_radius_estimate(series).r_hat
    probe = inner_radius_probe(series, r_hat, samples=samples)
    value, flagged = oracle_probe(series, r_hat, samples=samples)
    assert float(probe.value) == float(value)
    assert probe.tail_flagged == flagged
    with mp.workprec(256):
        assert abs(probe.value - value) <= value * mpf(2) ** -(256 - 16)
    residual = functional_residual(series, r_hat, samples=samples)
    assert abs(residual - oracle_residual(series, r_hat, samples=samples)) < mpf("1e-70")


@pytest.mark.parametrize("samples", [8, 12, 97, 200, 512])
def test_circle_values_match_direct_sum(samples):
    # sum_n c_n u_k^n for N below, at and above S (where the fold mod S
    # matters), against a direct mpc sum over a twice-as-precise circle.
    prec, frac = 128, 160
    rng = random.Random(samples)
    ks = sorted(set(range(0, samples, max(1, samples // 48))) | {samples - 1})
    # the twiddles carry 2^-prec each, over at most log2(S) levels
    levels = math.ceil(math.log2(samples)) + 1
    for order in (samples // 2, samples, 2 * samples + 3):
        re = [rng.randint(-(1 << frac), 1 << frac) for _ in range(order + 1)]
        im = [rng.randint(-(1 << frac), 1 << frac) for _ in range(order + 1)]
        xr, xi = _circle_values(re, im, samples, frac, prec)
        with mp.workprec(2 * prec):
            roots = [mp.expjpi(mpf(2 * k) / samples) for k in range(samples)]
            coeffs = [mpc(mpf((r, -frac)), mpf((i, -frac))) for r, i in zip(re, im)]
            tol = levels * mpf(2) ** -prec * sum(abs(c) for c in coeffs)
            for k in ks:
                want = mp.fsum(c * roots[n * k % samples] for n, c in enumerate(coeffs))
                got = mpc(mpf((xr[k], -frac)), mpf((xi[k], -frac)))
                assert abs(got - want) <= tol, (samples, order, k)


def test_fixed_point_kernel_ignores_ambient_precision(oracle_256):
    # Conversions between mpf and the fixed-point ints must happen at the
    # series' precision; mp.nint and mpf(int) otherwise round to mp.prec.
    slow = oracle_256(GOLDEN)
    r_hat = conformal_radius_estimate(slow).r_hat
    with mp.workprec(256):
        tol = mpf(2) ** -200
        want_probe = oracle_probe(slow, r_hat, samples=16)[0]
        # the residual samples |w| = r/2; this puts them at 0.9 r_hat
        wide = mpf("1.8") * r_hat
        want_res = oracle_residual(slow, wide, samples=8)
    for ambient in (53, 64):
        with mp.workprec(ambient):
            series = linearization_coeffs(GOLDEN, 256, prec=256)
            probe = inner_radius_probe(series, r_hat, samples=16)
            res = functional_residual(series, wide, samples=8)
        with mp.workprec(256):
            for a, b in zip(series.coeffs, slow.coeffs, strict=True):
                assert abs(a - b) <= abs(b) * tol
            assert abs(probe.value - want_probe) <= want_probe * tol
            assert abs(res - want_res) <= want_res * tol


def test_order_must_be_positive():
    with pytest.raises(InvariantError):
        linearization_coeffs(GOLDEN, 0)


def test_radius_estimate_stable_across_orders(golden_series):
    est = conformal_radius_estimate(golden_series)
    small = conformal_radius_estimate(linearization_coeffs(GOLDEN, 128, prec=256))
    assert est.reliable
    assert abs(float(est.r_hat) - float(small.r_hat)) < 0.05 * float(est.r_hat)
    assert abs(float(est.r_hat) - GOLDEN_R_HAT_256) < 1e-12


def test_radius_estimate_needs_enough_terms():
    with pytest.raises(InvariantError):
        conformal_radius_estimate(linearization_coeffs(GOLDEN, 16, prec=128))


@pytest.mark.parametrize("samples", [0, -3])
def test_functional_residual_needs_a_sample(golden_series, samples):
    with pytest.raises(InvariantError):
        functional_residual(golden_series, mpf("0.3"), samples=samples)


@pytest.mark.parametrize("prec", [64, 256, 512])
def test_unit_points_match_per_sample_table(prec):
    # Powers of two: the octant symmetries are exact, so bit for bit.
    # Otherwise mpf(2k)/S is rounded and entries may move by a few 2^-prec.
    frac = prec + 32
    with mp.workprec(prec):
        for samples in (2**e for e in range(3, 13)):
            table = linearize._plan(samples, frac, prec)[0]
            assert table == oracle_unit_points(samples, frac)
        for samples in (8, 9, 12, 24, 97, 200, 776):
            got = linearize._plan(samples, frac, prec)[0]
            want = oracle_unit_points(samples, frac)
            assert len(got) == samples
            for (x, y), (u, v) in zip(got, want):
                assert max(abs(x - u), abs(y - v)) <= 4 << (frac - prec)


def test_unit_point_memo_changes_no_bit():
    # cold and warm caches, and two precisions interleaved in one process,
    # give the same probe and residual
    series = {prec: linearization_coeffs(GOLDEN, 96, prec=prec) for prec in (128, 256)}

    def run(s):
        r_hat = conformal_radius_estimate(s).r_hat
        return inner_radius_probe(s, r_hat), functional_residual(s, r_hat)

    cold = {}
    for prec, s in series.items():
        linearize._plan.cache_clear()
        cold[prec] = run(s)
    for prec in (256, 128, 256, 128):
        assert run(series[prec]) == cold[prec]
    # the table depends on prec, not on frac alone, and not on mp.prec
    tables = {}
    for prec in (64, 256, 64):
        tables[prec] = linearize._plan(512, 288, prec)[0]
        with mp.workprec(prec):
            assert tables[prec] == oracle_unit_points(512, 288)
    assert tables[64] != tables[256]


def test_plan_built_at_the_ambient_precision_changes_no_output(tmp_path, capsys):
    # the memo is keyed by prec: a plan first built with mp.prec at 53 bits
    # must still hold the 256-bit roots a fresh interpreter's radius uses
    argv = ["radius", "--cf", "1:rep=1", "--order", "80", "--json", "--out"]
    fresh = subprocess.run(
        [sys.executable, "-m", "quaddyn", *argv, str(tmp_path / "fresh")],
        env=dict(os.environ, PYTHONPATH=str(Path(linearize.__file__).parents[1])),
        capture_output=True, text=True, timeout=120, check=True,
    )
    linearize._plan.cache_clear()
    with mp.workprec(53):
        linearize._plan(512, 288, 256)
    assert cli.main([*argv, str(tmp_path / "warm")]) == 0
    assert capsys.readouterr().out == fresh.stdout
    assert json.loads(fresh.stdout)["inner_radius"] == 0.018541968210261144


def test_linearize_holds_one_memo():
    # _plan is keyed by all it is built from; a second memo keyed by less
    # could hand a probe a root table built at another precision
    tree = ast.parse(Path(linearize.__file__).read_text())
    memoised = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for dec in node.decorator_list
        if "cache" in ast.unparse(dec)
    ]
    assert memoised == ["_plan"]


@pytest.mark.parametrize("r_hat", [0, -0.3])
def test_circle_evaluations_need_a_positive_radius(golden_series, r_hat):
    with pytest.raises(InvariantError):
        functional_residual(golden_series, mpf(r_hat))
    with pytest.raises(InvariantError):
        inner_radius_probe(golden_series, mpf(r_hat))


def test_circle_evaluations_refuse_an_infinite_radius(golden_series):
    # the mantissa-shift conversion would read inf as 0
    with pytest.raises(InvariantError):
        inner_radius_probe(golden_series, mp.inf)
    with pytest.raises(InvariantError):
        functional_residual(golden_series, mp.inf)


def test_root_test_matches_full_scan():
    # r-hat and half_order, bit for bit, against the exact power at every n
    for order in (128, 256, 512):
        for cf in ORACLE_ANGLES + _bounded_type_angles(3, order):
            series = linearization_coeffs(cf, order, prec=256)
            est = conformal_radius_estimate(series)
            with mp.workprec(256):
                assert est.r_hat == oracle_root_test(series.coeffs, order // 2, order)
                assert est.half_order == oracle_root_test(
                    series.coeffs, order // 4, order // 2
                )


def test_root_test_rejects_vanishing_window():
    zeros = LinearizationSeries(
        lam=mpc(1), coeffs=(mpc(1),) + (mpc(0),) * 63, prec=128
    )
    with pytest.raises(PrecisionError, match="root-test window vanish"):
        conformal_radius_estimate(zeros)


def test_functional_residual_small_inside(golden_series):
    est = conformal_radius_estimate(golden_series)
    res = functional_residual(golden_series, est.r_hat, samples=64)
    assert float(res) < 1e-10


def test_inner_probe_koebe_sandwich(golden_series):
    est = conformal_radius_estimate(golden_series)
    probe = inner_radius_probe(golden_series, est.r_hat, samples=256)
    r = float(est.r_hat)
    value = float(probe.value)
    assert value >= 0.99 * r / 4
    assert value <= 1.01 * r


def test_inner_probe_sampling_density_stable(golden_series):
    est = conformal_radius_estimate(golden_series)
    a = float(inner_radius_probe(golden_series, est.r_hat, samples=512).value)
    b = float(inner_radius_probe(golden_series, est.r_hat, samples=1024).value)
    assert abs(a - b) <= 0.01 * max(a, b)


def test_ratio_experiment_golden_prefix_small():
    table = radius_ratio_experiment((1, 1, 1), 2, (3, 4), order=128, prec=192)
    assert table.reliable
    assert len(table.rows) == 2
    devs = [float(r.deviation) for r in table.rows]
    assert devs[1] < devs[0]
    assert table.trend_ok
    # Perturbed radii stay below the base radius once rescaled observations
    # are undone; record the raw comparison instead of a theorem.
    base = float(table.base_r_hat)
    for row in table.rows:
        assert float(row.scaled) / 2 < base


def _bounded_type_angles(count, seed):
    rng = random.Random(seed)
    angles = []
    for _ in range(count):
        pre = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
        per = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        angles.append(CFExpansion(pre, per))
    return angles


def test_yoccoz_buff_cheritat_upsilon_band():
    """Upsilon(theta) = Phi(theta) + log r(theta) on bounded-type angles.

    Yoccoz (Asterisque 231, 1995) proved Upsilon bounded and Buff and
    Cheritat (Ann. Math. 164, 2006) proved it continuous, so over
    bounded-type angles it stays in a narrow band.  Upsilon-hat =
    brjuno_sum(cf, 60) + log r-hat is an estimate, not a certified bound:
    r-hat is the root test on 256 coefficients.  The band [0.1, 0.9]
    brackets the 0.171..0.762 measured on these fifty angles, and is the
    first check of r-hat that does not come from the series itself.
    """
    fixed = [CFExpansion((), tail) for tail in ((1,), (2,), (1, 2), (3,), (1, 5))]
    for cf in fixed + _bounded_type_angles(45, 2014):
        est = conformal_radius_estimate(linearization_coeffs(cf, 256, prec=256))
        assert est.reliable, cf
        upsilon = brjuno_sum(cf, 60) + mp.log(est.r_hat)
        assert 0.1 <= upsilon <= 0.9, (cf, float(upsilon))


def test_upsilon_continuity_across_shared_prefixes():
    """|Upsilon-hat(A) - Upsilon-hat(B)| shrinks as A and B share more terms.

    Buff and Cheritat (Ann. Math. 164, 2006) proved Upsilon continuous, so
    angles with a long common continued-fraction prefix have close values.
    Each pair shares a seeded bounded-type prefix of length k, then takes
    the tails 1-bar and 2-bar.  Upsilon-hat is an estimate (r-hat is the
    root test on 256 coefficients), and the decrease is not monotone in k,
    so each longer prefix is compared with k = 1 only.  Measured:
    0.031..0.141 at k = 1, 0.0002..0.0016 at k = 7.
    """
    rng = random.Random(2006)

    def upsilon(cf):
        est = conformal_radius_estimate(linearization_coeffs(cf, 256, prec=256))
        return brjuno_sum(cf, 60) + mp.log(est.r_hat)

    for _ in range(6):
        prefix = tuple(rng.randint(1, 3) for _ in range(7))
        gaps = {}
        for k in (1, 3, 5, 7):
            one, two = (upsilon(CFExpansion(prefix[:k], (tail,))) for tail in (1, 2))
            gaps[k] = float(abs(one - two))
        assert max(gaps[3], gaps[5]) < gaps[1], (prefix, gaps)
        assert gaps[7] < gaps[1] / 4, (prefix, gaps)
        assert gaps[7] <= 0.01, (prefix, gaps)


def _assert_bit_identical(fast, slow):
    assert fast.lam._mpc_ == slow.lam._mpc_
    assert [c._mpc_ for c in fast.coeffs] == [c._mpc_ for c in slow.coeffs]


def _ratio_members(count, seed):
    """perturbed_cf rows with quotient-1..2 prefixes, cut after 3..6 terms."""
    rng = random.Random(seed)
    prefixes = [tuple(rng.randint(1, 2) for _ in range(6)) for _ in range(count)]
    return [perturbed_cf(pre[: 3 + k % 4], 2) for k, pre in enumerate(prefixes)]


IDENTITY_SET = ORACLE_ANGLES + _bounded_type_angles(45, 2014) + _ratio_members(12, 8)
# |b_n| jumps by 2^91 at n = 56, in the front half of the order-512 pilot:
# without the cap on s, the shifted pilot values lose bits
EARLY_JUMP = perturbed_cf((1,) * 9, 3)


@pytest.mark.parametrize(
    "order, angles",
    [
        (128, IDENTITY_SET),
        (256, IDENTITY_SET),
        (512, IDENTITY_SET[::12] + [EARLY_JUMP]),
        (1024, ORACLE_ANGLES),
    ],
    ids=["128", "256", "512", "1024"],
)
def test_coefficients_match_fixed_point_oracle(order, angles):
    # The radius-normalised recursion rounds c_n = b_n 2^(-s n) where the
    # oracle rounds b_n; at prec bits the coefficients agree bit for bit.
    for cf in angles:
        fast = linearization_coeffs(cf, order, 256)
        _assert_bit_identical(fast, fixed_point_oracle(cf, order, 256))


@pytest.mark.parametrize("cf", [CFExpansion((30,), (1,)), GOLDEN], ids=["s2", "golden"])
def test_failed_check_steps_down_by_one(monkeypatch, cf):
    # The first normalised run reports a coefficient under the bit floor: s
    # steps down by one bit, not straight to 0, and the rerun from the pilot
    # gives the oracle's coefficients.  A run starts at c_1 = 2^-s.
    shifts = []
    extend = linearize._extend

    def spy(re, im, denoms, order, frac, floor):
        shifts.append(frac + 1 - re[1].bit_length())
        return len(shifts) != 2 and extend(re, im, denoms, order, frac, floor)

    monkeypatch.setattr(linearize, "_extend", spy)
    fast = linearization_coeffs(cf, 256, 256)
    _assert_bit_identical(fast, fixed_point_oracle(cf, 256, 256))
    s = shifts[1]
    assert shifts == [0, s, s - 1]
    assert s >= (2 if cf != GOLDEN else 1)


def test_bit_floor_check_stops_a_shrinking_run():
    # golden's |b_n| grows about 1.6 bits per index: c_n = b_n 2^-n keeps
    # its bits, and c_n = b_n 2^(-2n) shrinks until a c_n under the floor
    # stops the run there
    with mp.workprec(256):
        lam = mp.expjpi(2 * GOLDEN.value_mpf(256))
    frac = 256 + 32
    denoms = linearize._small_denominators(lam, 128, 256)
    re, im = [0, 1 << frac], [0, 0]
    assert linearize._extend(re, im, denoms, 32, frac, 0)
    for s in (1, 2):
        cr = [linearize._round_shift(x, s * n) for n, x in enumerate(re)]
        ci = [linearize._round_shift(x, s * n) for n, x in enumerate(im)]
        done = linearize._extend(cr, ci, denoms, 128, frac, frac - 16)
        assert done == (s == 1)
        assert len(cr) == (129 if done else 33)


def test_fixed_point_ints_stay_near_the_working_width(monkeypatch):
    # Golden's |b_n| grows about 1.6 bits per index, so at order 512 the
    # unscaled ints reach frac + 812 bits; normalised, every int the
    # recursion holds stays below frac + 320.
    widest = []
    extend = linearize._extend

    def spy(re, im, *args):
        done = extend(re, im, *args)
        widest.append(max(abs(x).bit_length() for x in re + im))
        return done

    monkeypatch.setattr(linearize, "_extend", spy)
    linearization_coeffs(GOLDEN, 512, 256)
    assert max(widest) <= 256 + 32 + 320


@pytest.mark.parametrize("prec", [8, 53, 256, 320])
def test_mantissa_shift_matches_nint(prec):
    # exact half ties, negative and zero parts, and scales from 0 upwards
    rng = random.Random(prec)
    for frac in (0, 1, 2, 3, prec, prec + 32, 2 * prec + 64):
        with mp.workprec(prec):
            values = [mpf(0), mpf("0.5"), mpf("-0.5"), mpf("1.5"), mpf("-2.5")]
            for _ in range(300):
                man = rng.getrandbits(prec) | 1
                exp = rng.randint(-frac - prec - 4, 8)
                values.append(mpf((rng.choice((-1, 1)) * man, exp)))
                # (2k + 1) / 2 at scale 2^frac, with 2k + 1 within prec bits
                tie = rng.getrandbits(min(prec - 1, 24)) * 2 + 1
                values.append(mpf((rng.choice((-1, 1)) * tie, -frac - 1)))
            for x in values:
                assert _fixed(x._mpf_, frac) == oracle_fixed(x, frac), (prec, frac, x)
            for x, y in zip(values, reversed(values)):
                z = mpc(x, 0) if rng.random() < 0.2 else mpc(x, y)
                want = oracle_fixed(z.real, frac), oracle_fixed(z.imag, frac)
                assert _to_fixed(z, frac) == want



# -- small denominators and the screened probe ---------------------------------


def oracle_small_denominators(lam, order, prec):
    """The mpc chain: lam^n by mpc_mul and lam^n - lam by mpc_sub at prec
    bits, each difference then shifted to scale 2^(2 (prec + 32))."""
    scale = 2 * (prec + 32)
    z = lam_pow = lam._mpc_
    out = []
    for n in range(2, order + 1):
        lam_pow = mpc_mul(lam_pow, z, prec, round_nearest)
        dr, di = (_fixed(x, scale) for x in mpc_sub(lam_pow, z, prec, round_nearest))
        out.append((dr, di, dr * dr + di * di))
        if out[-1][2] < 1 << 2 * (scale - prec + 8):
            raise PrecisionError(
                f"small denominator at n={n} is below working precision"
            )
    return out


def _multiplier(cf, prec):
    with mp.workprec(prec):
        return mp.expjpi(2 * cf.value_mpf(prec))


@pytest.mark.parametrize("prec", [64, 256, 320])
def test_small_denominators_match_mpc_chain(prec):
    # the integer chain rounds each part once, as mpc_mul and mpc_sub do:
    # every denominator up to order 512 is equal, bit for bit
    for cf in ORACLE_ANGLES + _bounded_type_angles(30, 25):
        lam = _multiplier(cf, prec)
        got = linearize._small_denominators(lam, 512, prec)
        assert got == oracle_small_denominators(lam, 512, prec), (cf, prec)


def test_small_denominators_refuse_the_mpc_chains_index():
    for cf in ORACLE_ANGLES + _bounded_type_angles(6, 8):
        lam = _multiplier(cf, 8)
        with pytest.raises(PrecisionError) as expected:
            oracle_small_denominators(lam, 400, 8)
        with pytest.raises(PrecisionError) as got:
            linearize._small_denominators(lam, 400, 8)
        assert str(got.value) == str(expected.value)


def exact_probe(series, r_hat, samples):
    """The minimum over all S values of one exact-integer DFT, and the tail
    flag computed from it."""
    frac = series.prec + 32
    with mp.workprec(series.prec):
        radius = mpf("0.98") * mpf(r_hat)
        re, im = linearize._scaled_fixed(series, radius, frac)
        table = linearize._plan(samples, frac, series.prec)[0]
        xr, xi = oracle_dft(*linearize._fold(re, im, samples), table, frac)
        value = mpf((math.isqrt(min(x * x + y * y for x, y in zip(xr, xi))), -frac))
        top = abs(series.coeffs[-1]) * radius**series.order
        tail = top * mpf("0.98") / (1 - mpf("0.98"))
        return value, bool(tail > mpf("0.01") * value)


def _assert_probe_matches_exact(series, r_hat, samples):
    # the screen recomputes its candidates as the DFT does: the same bits
    probe = inner_radius_probe(series, r_hat, samples=samples)
    value, flagged = exact_probe(series, r_hat, samples)
    assert probe.value._mpf_ == value._mpf_
    assert probe.tail_flagged == flagged


PROBE_SERIES = {}


@pytest.mark.parametrize("samples", [8, 24, 64, 97, 200, 512])
@pytest.mark.parametrize("order", [32, 80, 128, 256, 512, 1024])
def test_screened_probe_matches_exact_dft(order, samples):
    # N < S and N >= S (where the fold mod S matters), prime and mixed radices
    if order not in PROBE_SERIES:
        cf = _bounded_type_angles(6, order)[order % 6]
        series = linearization_coeffs(cf, order, 256)
        PROBE_SERIES[order] = series, conformal_radius_estimate(series).r_hat
    _assert_probe_matches_exact(*PROBE_SERIES[order], samples)


@pytest.mark.parametrize("prec", [12, 16, 24])
def test_screened_probe_matches_exact_dft_at_low_precision(prec):
    # at 12 bits the table's 2^(4-prec) error widens the cut to hundreds of
    # candidates; the value is still the DFT's
    series = linearization_coeffs(GOLDEN, 32, prec)
    r_hat = conformal_radius_estimate(series).r_hat
    for samples in (12, 97, 512):
        _assert_probe_matches_exact(series, r_hat, samples)


def _synthetic_series(scale_bits, keep, seed, order=96):
    rng = random.Random(seed)
    with mp.workprec(256):
        coeffs = tuple(
            mpc(mpf(rng.uniform(-1, 1)), mpf(rng.uniform(-1, 1))) * mpf(2) ** scale_bits
            if keep(n) else mpc(0)
            for n in range(1, order + 1)
        )
    return LinearizationSeries(lam=_multiplier(GOLDEN, 256), coeffs=coeffs, prec=256)


@pytest.mark.parametrize("samples", [24, 200, 512])
def test_screened_probe_confirms_every_tied_sample(monkeypatch, samples):
    # b_n = 0 unless n = 1 mod 4, so phi(i w) = i phi(w): |phi| takes each
    # value four times on the circle, and every sample of the least one
    # must be computed in fixed point
    series = _synthetic_series(0, lambda n: n % 4 == 1, samples)
    confirmed = []
    dft_at = linearize._dft_at

    def spy(re, im, table, frac, k):
        confirmed.append(k)
        return dft_at(re, im, table, frac, k)

    monkeypatch.setattr(linearize, "_dft_at", spy)
    _assert_probe_matches_exact(series, mpf(1), samples)
    assert len(confirmed) >= 4
    quarter = samples // 4
    assert {k % quarter for k in confirmed} == {confirmed[0] % quarter}


def test_screened_probe_scales_ints_beyond_the_float_range():
    # |b_n| near 2^1500: the scaled ints hold about 1800 bits, and float()
    # of one overflows, so the screen reads them after one shift
    series = _synthetic_series(1500, lambda n: True, 7)
    frac = 256 + 32
    with mp.workprec(256):
        re, _ = linearize._scaled_fixed(series, mpf("0.98"), frac)
    assert max(abs(x) for x in re).bit_length() > 1024
    with pytest.raises(OverflowError):
        float(re[1])
    for samples in (64, 97):
        _assert_probe_matches_exact(series, mpf(1), samples)


@pytest.mark.parametrize("samples", [8, 12, 97, 200, 512])
def test_float_transform_within_its_bound(samples):
    # the screen's error against an exact transform stays under the bound
    # _float_bound proves, on random inputs up to the scale the probe uses
    rng = random.Random(samples)
    frac, prec = 288, 256
    stages = linearize._plan(samples, frac, prec)[1]
    rel = linearize._float_bound(samples, prec)
    for order in (samples // 2, samples, 3 * samples):
        re = [rng.randint(-(1 << frac), 1 << frac) for _ in range(order)]
        im = [rng.randint(-(1 << frac), 1 << frac) for _ in range(order)]
        ar, ai = linearize._fold(re, im, samples)
        xr, xi = _circle_values(re, im, samples, frac, prec)
        top = max(map(abs, ar + ai)).bit_length()
        screen = [complex(a / 2**top, b / 2**top) for a, b in zip(ar, ai)]
        got = linearize._float_dft(screen, stages)
        mass = sum(map(abs, ar + ai)) / 2**top
        want = [complex(x / 2**top, y / 2**top) for x, y in zip(xr, xi)]
        worst = max(map(abs, map(sub, got, want)))
        assert worst <= rel * mass, (samples, order, worst / mass, rel)


DFT_SIZES = [1, 2, 3, 4, 8, 12, 24, 64, 97, 200, 512, 1024]


def _dft_inputs(samples, frac, prec, seed):
    """Random ints of frac bits, and the folded radius-scaled golden series
    with N below and at least S."""
    rng = random.Random(seed)
    yield (
        [rng.randint(-(1 << frac), 1 << frac) for _ in range(samples)],
        [rng.randint(-(1 << frac), 1 << frac) for _ in range(samples)],
    )
    for order in sorted({max(2, samples // 2), samples + 3}):
        series = linearization_coeffs(GOLDEN, order, prec)
        with mp.workprec(prec):
            re, im = linearize._scaled_fixed(series, mpf("0.3"), frac)
        yield linearize._fold(re, im, samples)


@pytest.mark.parametrize("samples", DFT_SIZES)
def test_plan_dft_matches_recursive_oracle(samples):
    # the stages make the recursion's products and truncations: == on ints
    frac, prec = 160, 128
    table, stages = linearize._plan(samples, frac, prec)
    for re, im in _dft_inputs(samples, frac, prec, samples):
        assert linearize._dft(re, im, stages, frac) == oracle_dft(re, im, table, frac)


@pytest.mark.parametrize("samples", [8, 12, 24, 97, 200])
def test_dft_at_matches_dft_at_every_output(samples):
    frac, prec = 160, 128
    table, stages = linearize._plan(samples, frac, prec)
    for re, im in _dft_inputs(samples, frac, prec, samples + 1):
        xr, xi = linearize._dft(re, im, stages, frac)
        for k in range(samples):
            assert linearize._dft_at(re, im, table, frac, k) == (xr[k], xi[k])
