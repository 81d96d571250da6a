"""Acceptance checklist: twelve self-timed checks over the whole package.

Each criterion function runs one end-to-end check with its tolerances baked
in and returns (passed, detail).  ALL_CRITERIA lists each with its ident,
title and time budget; run_criterion times one against its budget, and
run_all runs the table in order.  The test suite and the command-line
`accept` verb both drive these, so the pass/fail lines printed there come
from one place.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from mpmath import mp, mpf

from .angles import Angle
from .cardioid import external_angle, find_orbit, landing_pair, scan_orbits
from .cfrac import CFExpansion, brjuno_partial_sums
from .cantor import semiconjugacy_check
from .combdomain import (
    OmegaDomain,
    chain_midpoint,
    crosscut_chain,
    gamma_hausdorff,
    impression_segments,
    toy_sequences,
)
from .dynamics import NEAR, PixelGrid, lavrentiev_monte_carlo, render_julia, trace_ray
from .linearize import (
    conformal_radius_estimate,
    functional_residual,
    inner_radius_probe,
    linearization_coeffs,
    radius_ratio_experiment,
)

GOLDEN = CFExpansion((), (1,))
SILVER = CFExpansion((), (2,))
ALTERNATING = CFExpansion((), (1, 2))


@dataclass(frozen=True)
class CriterionResult:
    ident: str
    title: str
    passed: bool
    detail: str
    seconds: float
    budget_seconds: float

    @property
    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.ident} {self.title} "
            f"[{self.seconds:.2f}s/{self.budget_seconds:.0f}s] {self.detail}"
        )


def criterion_exact_landing_pairs() -> tuple[bool, str]:
    cases = {
        (1, 2): (Fraction(1, 3), Fraction(2, 3)),
        (2, 3): (Fraction(5, 7), Fraction(6, 7)),
        (3, 5): (Fraction(21, 31), Fraction(22, 31)),
    }
    bad = []
    for (p, q), want in cases.items():
        lo, hi = landing_pair(p, q)
        if (lo.fraction, hi.fraction) != want:
            bad.append(f"{p}/{q} -> {lo.fraction},{hi.fraction}")
    detail = "three rotation numbers exact" if not bad else "; ".join(bad)
    return not bad, detail


def criterion_orbit_uniqueness() -> tuple[bool, str]:
    failures = []
    total = 0
    for q in range(2, 13):
        by_rotation = scan_orbits(q)
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            total += 1
            found = by_rotation.get(Fraction(p, q), [])
            if len(found) != 1:
                failures.append(f"{p}/{q}: {len(found)} orbits")
            elif tuple(sorted(find_orbit(p, q).angles)) != tuple(
                sorted(Angle(Fraction(k, 2**q - 1)) for k in found[0])
            ):
                failures.append(f"{p}/{q}: direct orbit differs from scan")
    detail = f"{total} coprime pairs, each a unique scanned orbit"
    if failures:
        detail = "; ".join(failures[:4])
    return not failures, detail


def criterion_external_angle_stability() -> tuple[bool, str]:
    coarse = external_angle(GOLDEN, 16)
    fine = external_angle(GOLDEN, 24)
    gap = abs(coarse.approx.fraction - fine.approx.fraction)
    gap = min(gap, 1 - gap)
    prefix = tuple(a.fraction for a in fine.iterates[:3])
    want = (Fraction(1, 3), Fraction(5, 7), Fraction(21, 31))
    ok = gap < Fraction(1, 2**15) and prefix == want
    detail = f"|a16 - a24| = {float(gap):.3e}, first iterates {prefix == want}"
    return ok, detail


def criterion_semiconjugacy() -> tuple[bool, str]:
    details = []
    ok = True
    for name, cf in (("golden", GOLDEN), ("silver", SILVER)):
        report = semiconjugacy_check(cf, 200)
        good = report.passed and report.undecided_pairs == 0
        good = good and report.alpha_exponent >= 240
        ok = ok and good
        details.append(f"{name}: exp {report.alpha_exponent}, ok {report.passed}")
    return ok, "; ".join(details)


def criterion_brjuno_closed_form() -> tuple[bool, str]:
    sums = brjuno_partial_sums(GOLDEN, 50, prec_bits=128)
    nondecreasing = all(b >= a for a, b in zip(sums, sums[1:]))
    with mp.workprec(128):
        theta = (mp.sqrt(5) - 1) / 2
        closed = mp.log(1 / theta) / (1 - theta)
        err = abs(sums[-1] - closed)
    ok = nondecreasing and err < mpf("1e-6")
    detail = f"|S_50 - closed form| = {float(err):.2e}, nondecreasing {nondecreasing}"
    return ok, detail


def criterion_linearization_identities() -> tuple[bool, str]:
    series = linearization_coeffs(GOLDEN, 200, prec=256)
    with mp.workprec(256):
        lam = series.lam
        b2_err = abs(series.coeffs[1] - 1 / (lam * lam - lam))
    est = conformal_radius_estimate(series)
    residual = functional_residual(series, est.r_hat, samples=200)
    ok = b2_err < mpf("1e-60") and residual < mpf("1e-10")
    detail = f"b2 err {float(b2_err):.1e}, residual {float(residual):.1e}"
    return ok, detail


def criterion_koebe_sandwich() -> tuple[bool, str]:
    details = []
    ok = True
    for name, cf in (("golden", GOLDEN), ("silver", SILVER), ("alt", ALTERNATING)):
        series = linearization_coeffs(cf, 512, prec=256)
        est = conformal_radius_estimate(series)
        probe = inner_radius_probe(series, est.r_hat)
        lo = mpf("0.99") * est.r_hat / 4
        hi = mpf("1.01") * est.r_hat
        good = lo <= probe.value <= hi and not probe.tail_flagged
        ok = ok and good
        details.append(f"{name}: rho/r = {float(probe.value / est.r_hat):.3f}")
    return ok, "; ".join(details)


def criterion_radius_ratio_trend() -> tuple[bool, str]:
    exp = radius_ratio_experiment((1, 1, 1, 1, 1, 1), 2, range(3, 7), order=256)
    devs = {row.n: float(row.deviation) for row in exp.rows}
    ok = exp.trend_ok and exp.reliable
    detail = ", ".join(f"n={n}: {devs[n]:.3f}" for n in sorted(devs))
    return ok, detail


def _to_near_centers(grid: PixelGrid, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest NEAR center within 3 rows and
    columns of its own cell (inf if none).  Other centers are over 3.5 cells
    away, beyond C09's 2-cell bound, so values within the bound are exact."""
    h, near, centers = 2.0**-grid.resolution_exponent, grid.cells == NEAR, grid.centers()
    last = len(near) - 1
    col = ((points.real - grid.origin.real) // h).astype(int)
    row = ((points.imag - grid.origin.imag) // h).astype(int)
    best = np.full(points.shape, np.inf)
    for k in range(49):  # the 7 x 7 window, clipped to the grid
        r, c = np.clip(row + k // 7 - 3, 0, last), np.clip(col + k % 7 - 3, 0, last)
        best = np.minimum(best, np.where(near[r, c], abs(points - centers[r, c]), np.inf))
    return best


def criterion_rendering_oracles() -> tuple[bool, str]:
    # certified upper ends: NEAR centers to the set exactly, the set to the
    # centers at samples plus half their spacing (the distance is 1-Lipschitz)
    bound = 2 * 2.0**-8

    grid = render_julia(0j, 8)
    ts = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    circle = np.cos(ts) + 1j * np.sin(ts)
    to_circle = abs(abs(grid.near_points()) - 1).max()
    hd_circle = float(max(to_circle, _to_near_centers(grid, circle).max() + math.pi / 4096))

    grid = render_julia(-2 + 0j, 8)
    near, segment = grid.near_points(), np.linspace(-2.0, 2.0, 8192) + 0j
    to_segment = abs(near - np.clip(near.real, -2.0, 2.0)).max()
    hd_segment = float(max(to_segment, _to_near_centers(grid, segment).max() + 2 / 8191))

    ok = hd_circle <= bound and hd_segment <= bound
    detail = f"circle {hd_circle:.4f}, segment {hd_segment:.4f}, bound {bound:.4f}"
    return ok, detail


def criterion_ray_landing_oracles() -> tuple[bool, str]:
    plus = trace_ray(-2 + 0j, Fraction(0, 1), t_min=1e-6).points[-1]
    minus = trace_ray(-2 + 0j, Fraction(1, 2), t_min=1e-6).points[-1]
    cheb_ok = abs(plus - 2) < 1e-3 and abs(minus + 2) < 1e-3

    radial_dev = 0.0
    for num, den in ((1, 7), (1, 3), (3, 8)):
        ray = trace_ray(0j, Fraction(num, den), t_min=1e-6)
        direction = cmath.exp(2j * math.pi * num / den)
        for z in ray.points:
            radial_dev = max(radial_dev, abs(z - abs(z) * direction))
    ok = cheb_ok and radial_dev < 1e-9
    detail = f"end gaps {abs(plus - 2):.1e}/{abs(minus + 2):.1e}, radial {radial_dev:.1e}"
    return ok, detail


def criterion_lavrentiev_monte_carlo() -> tuple[bool, str]:
    results = lavrentiev_monte_carlo(100)
    violations = [r for r in results if not r.holds]
    worst = max(r.image_diam / r.bound for r in results)
    ok = len(results) == 100 and not violations
    detail = f"{len(results)} crosscuts, worst image/bound {worst:.3f}"
    return ok, detail


def criterion_omega_gallery() -> tuple[bool, str]:
    a_seq, b_seq = toy_sequences()
    dom = OmegaDomain(a_seq, b_seq)

    cauchy_ok = True
    for n in (2, 3, 4):
        if gamma_hausdorff(dom, n, n + 2) > 2 * 3.0**-n:
            cauchy_ok = False

    chain_ok = True
    for n in range(1, 9):
        seg = crosscut_chain(n)
        if seg.diameter != Fraction(2, 3 ** (n + 1)):
            chain_ok = False
        if not seg.contains_point(chain_midpoint(n)):
            chain_ok = False

    prev_inner, prev_outer = impression_segments(dom, 1)
    sandwich_ok = True
    for k in range(2, 9):
        inner, outer = impression_segments(dom, k)
        if inner.diameter < prev_inner.diameter or outer.diameter > prev_outer.diameter:
            sandwich_ok = False
        prev_inner, prev_outer = inner, outer

    ok = cauchy_ok and chain_ok and sandwich_ok
    detail = f"cauchy {cauchy_ok}, chain {chain_ok}, sandwich {sandwich_ok}"
    return ok, detail


# (ident, title, budget in seconds, check); a check returns (passed, detail)
ALL_CRITERIA = (
    ("C01", "landing pairs", 1.0, criterion_exact_landing_pairs),
    ("C02", "orbit uniqueness q<=12", 10.0, criterion_orbit_uniqueness),
    ("C03", "external angle stability", 30.0, criterion_external_angle_stability),
    ("C04", "semiconjugacy order N=200", 60.0, criterion_semiconjugacy),
    ("C05", "Brjuno closed form", 1.0, criterion_brjuno_closed_form),
    ("C06", "linearization identities", 10.0, criterion_linearization_identities),
    ("C07", "Koebe sandwich", 30.0, criterion_koebe_sandwich),
    ("C08", "radius ratio trend A=2", 300.0, criterion_radius_ratio_trend),
    ("C09", "rendering oracles res 8", 60.0, criterion_rendering_oracles),
    ("C10", "ray landing oracles", 30.0, criterion_ray_landing_oracles),
    ("C11", "Lavrentiev Monte Carlo", 60.0, criterion_lavrentiev_monte_carlo),
    ("C12", "omega gallery toy family", 30.0, criterion_omega_gallery),
)


def run_criterion(
    ident: str, title: str, budget_s: float, check: Callable[[], tuple[bool, str]]
) -> CriterionResult:
    """Run one check; it passes only if it also finishes within its budget."""
    started = time.perf_counter()
    passed, detail = check()
    elapsed = time.perf_counter() - started
    return CriterionResult(
        ident, title, passed and elapsed < budget_s, detail, elapsed, budget_s
    )


def run_all() -> list[CriterionResult]:
    return [run_criterion(*entry) for entry in ALL_CRITERIA]
