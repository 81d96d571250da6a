"""Power-series linearization of z -> lam*z + z^2 at an irrational rotation.

For lam = exp(2*pi*i*theta) the formal change of variable phi with phi(0) = 0
and phi'(0) = 1 conjugating multiplication by lam to the quadratic map has
coefficients given by a convolution recursion divided by the small
denominators lam^n - lam.  The radius of convergence of that series is the
conformal radius of the linearization domain; everything returned here is an
estimate read off finitely many coefficients, never a certified value, and
the diagnostics say how much to trust it.

Fixed-point contract: the coefficient recursion, the circle probe and the
functional residual run on Gaussian integers, a complex number x + iy held
as the Python ints round(x * 2^f), round(y * 2^f) with f = prec + 32
fractional bits.  The recursion is homogeneous of degree n, so it runs on
c_n = b_n * 2^(-s n), dividing by the chain of lam^n - lam, rounded to prec
bits as mpmath's mpc arithmetic rounds it: the absolute error on b_n is
N * 2^-(prec+32) * 2^(s n) for an order-N series, and every rounding is
relative at most 2^-(prec+16), as s steps down until each |c_n| keeps
f - 16 bits.  The circle is sampled at S equispaced points u_k, where the
radius-scaled coefficients fold mod S exactly (u^S = 1), and the S-th
roots of unity come from a table whose entries are within 2^(4-prec) of
exact.  The residual transforms the folded sums by one exact-integer
mixed-radix DFT, so each value is off by about log2(S) * 2^-prec *
sum |c_n| plus (N + S) * 2^-(prec+32), and it resolves defects far below
1e-60 at 256 bits.  The probe needs only the least |phi(u_k)|: a float
transform screens all S samples, with a proven error bound of about
log2(S) * (6u + 2^(4-prec)) * sum |c_n| for u = 2^-53 (Higham, Accuracy
and Stability of Numerical Algorithms, section 24.1), and only the samples
that bound cannot rule out are computed in fixed point, each exactly as
the DFT computes it.  Those exact values decide the reported minimum,
which is the DFT's, bit for bit.  mpf -> int is one exact mantissa shift,
independent of mp.prec; the public values stay mpmath numbers at prec
bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import expm1, inf, isqrt, ldexp, log1p, log2
from operator import add, itemgetter, mul, rshift, sub
from typing import Iterable, Iterator, Sequence

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest

from .cfrac import CFExpansion, perturbed_cf
from .errors import InvariantError, PrecisionError

__all__ = [
    "LinearizationSeries",
    "RadiusEstimate",
    "InnerProbe",
    "RatioRow",
    "RatioExperiment",
    "linearization_coeffs",
    "conformal_radius_estimate",
    "inner_radius_probe",
    "functional_residual",
    "radius_ratio_experiment",
]


@dataclass(frozen=True)
class LinearizationSeries:
    """Truncated linearization series: multiplier and coefficients b_1..b_N."""

    lam: mpc
    coeffs: tuple[mpc, ...]
    prec: int

    @property
    def order(self) -> int:
        return len(self.coeffs)


_GUARD_BITS = 32
_SLACK_BITS = 16  # every normalised |c_n| keeps at least frac - _SLACK_BITS bits


def _round_shift(x: int, k: int) -> int:
    """round(x * 2^-k), to nearest with ties to even; exact for k <= 0."""
    return x << -k if k <= 0 else (x + (1 << (k - 1)) - 1 + ((x >> k) & 1)) >> k


def _fixed(x: tuple, frac: int) -> int:
    """round(x * 2^frac) for a raw mpf tuple x, by one shift of its mantissa."""
    return _round_shift(-x[1] if x[0] else x[1], -(x[2] + frac))


def _to_fixed(z: mpc, frac: int) -> tuple[int, int]:
    return _fixed(z._mpc_[0], frac), _fixed(z._mpc_[1], frac)


def _norm2(re: int, im: int) -> int:
    return re * re + im * im


def _fixed_sqrt(norm2: int, frac: int) -> mpf:
    """sqrt of a squared modulus at scale 2^(2 frac), back at scale 2^-frac."""
    return mpf((isqrt(norm2), -frac))


def _scaled_fixed(
    series: LinearizationSeries, radius: mpf, frac: int
) -> tuple[list[int], list[int]]:
    """c_n = b_n * radius^n as fixed-point ints, ordered c_0 = 0, c_1, ..., c_N.

    Evaluating sum c_n u^n on |u| = 1 is evaluating phi on |w| = radius, with
    integers of about frac bits instead of frac + n * log2(1/radius).
    radius^n is carried as pw * 2^-shift with pw cut back to frac +
    _GUARD_BITS bits whenever shift allows, so it keeps its relative
    precision however small it gets.
    """
    rho = _fixed(radius._mpf_, frac)
    pw, shift = 1, 0
    re, im = [0], [0]
    for b in series.coeffs:
        pw *= rho
        shift += frac
        excess = min(pw.bit_length() - frac - _GUARD_BITS, shift)
        if excess > 0:
            pw >>= excess
            shift -= excess
        br, bi = _to_fixed(b, frac)
        re.append((br * pw) >> shift)
        im.append((bi * pw) >> shift)
    return re, im


def _unit_points(samples: int, frac: int) -> tuple[tuple[int, int], ...]:
    """exp(2 pi i k / S) for k < S as fixed-point pairs.

    Each is within 2^(4 - mp.prec) of the exact root: rounding the angle
    2k/S to mp.prec bits moves it by at most pi 2^-prec, and each part of
    expjpi and of the fixed-point pair adds a rounding.  When 8 divides S
    only the first octant, k <= S/8, is evaluated.  The rest follows
    exactly: cos and sin swap across pi/4, a quarter turn maps (x, y) to
    (-y, x) and a half turn to (-x, -y).  The table is memoised per
    (S, frac, mp.prec), the three things it depends on.
    """
    return _unit_table(samples, frac, mp.prec)


@lru_cache(maxsize=16)
def _unit_table(samples: int, frac: int, prec: int) -> tuple[tuple[int, int], ...]:
    def root(k: int) -> tuple[int, int]:
        return _to_fixed(mp.expjpi(mpf(2 * k) / samples), frac)

    if samples % 8:
        return tuple(root(k) for k in range(samples))
    points = [root(k) for k in range(samples // 8 + 1)]
    points += [(y, x) for x, y in reversed(points[1:-1])]
    points += [(-y, x) for x, y in points]
    return tuple(points + [(-x, -y) for x, y in points])


def _factor(n: int) -> int:
    """The smallest prime factor of n > 1."""
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


def _dft(
    re: list[int], im: list[int], table: Sequence[tuple[int, int]], frac: int
) -> tuple[list[int], list[int]]:
    """X_k = sum_j a_j w^(jk) for k < n = len(re), with w = exp(2 pi i / n).

    Mixed-radix decimation in time: the p subsequences a_(r + p t), for p
    the smallest prime factor of n, are transformed recursively and then
    recombined with twiddles w^(rk).  table holds the len(table)-th roots of
    unity, and n divides len(table), so w^e is table[(e mod n) * stride].
    Each twiddle product costs three integer products and truncates once;
    a prime n costs n^2 of them.
    """
    n = len(re)
    if n == 1:
        return re, im
    p = _factor(n)
    m, stride = n // p, len(table) // n
    subs = [_dft(re[r::p], im[r::p], table, frac) for r in range(p)]
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


def _fold(
    re: list[int], im: list[int], samples: int
) -> tuple[list[int], list[int]]:
    """a_j = sum_(n = j mod S) c_n: u^S = 1 on the S-th roots of unity, so
    sum_n c_n u^n = sum_j a_j u^j there, exactly."""

    def fold(xs: list[int]) -> list[int]:
        xs = xs + [0] * (-len(xs) % samples)
        chunks = [xs[i : i + samples] for i in range(0, len(xs), samples)]
        return list(map(sum, zip(*chunks)))

    return fold(re), fold(im)


def _circle_values(
    re: list[int], im: list[int], table: Sequence[tuple[int, int]], frac: int
) -> tuple[list[int], list[int]]:
    """sum_n c_n u_k^n at the S = len(table) points u_k = table[k], by one
    S-point transform of the folded coefficients."""
    return _dft(*_fold(re, im, len(table)), table, frac)


_U = 2.0**-53  # unit roundoff of a float


@lru_cache(maxsize=16)
def _float_plan(samples: int, frac: int, prec: int) -> tuple[list, float]:
    """The stages of the float S-point transform, and its error bound.

    Stockham form: after stages of radices whose product is L, the list y
    holds y[c + r k] = sum_t a_(c + r t) w^(t k S / L) for c < r = S / L and
    k < L, w = exp(2 pi i / S).  A stage of radix p (r = p r') gathers y
    into p blocks, block u holding y[r k + r' u + c'] at c' + r' k; block u
    is multiplied by the twiddles w^(u k r'), and output block v is
    sum_u w^(u v S / p) (block u), so that it holds y[c' + r' (k + L v)] of
    the next L' = p L.  Radix 2 needs no second product: its output blocks
    are the sum and the difference.  The floats come from the fixed-point
    table, so each twiddle is within mu = 2u + 2^(4-prec) of the exact root.

    The bound (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed.: Lemma 3.5 for a complex product, 3u for sqrt(2) gamma_2; section
    24.1 for the transform): every intermediate value is a partial sum over
    a residue class of the inputs, bounded by that class's mass sum |a_j|.
    A stage multiplies each term at most twice (each a factor 1 + mu + 3u
    of error, counting the twiddle's) and sums p terms (gamma_(p-1)), so
    with the input rounding (u), |X^_k - X_k| <= (exp(s) - 1) sum_j |a_j|,
    s = u + sum over stages of those terms.  The bound returned is
    exp(2 s) - 1, which is at least exp(s) - 1 + s and so leaves over 6u
    sum |a_j| for the rounding of |X^_k|, of the cut built from it, and of
    the mass itself.  Absolute errors from underflow and from the input
    shift stay below S 2^-998 at the scale the screen uses (max |a_j| of
    at least 1/2), far inside that margin.
    """
    scale = 1 << frac
    table = _unit_table(samples, frac, prec)
    roots = [complex(x / scale, y / scale) for x, y in table]
    mu = 2 * _U + 2.0 ** (4 - prec)
    stages, span, s = [], 1, _U
    while span < samples:
        rest = samples // span
        p = _factor(rest)
        step = rest // p
        order = [
            rest * k + step * u + c
            for u in range(p)
            for k in range(span)
            for c in range(step)
        ]
        twiddles = [
            [roots[u * k * step % samples] for k in range(span) for _ in range(step)]
            for u in range(1, p)
        ]
        spins = [
            [roots[u * v * (samples // p) % samples] for u in range(1, p)]
            for v in range(p)
        ]
        stages.append((p, itemgetter(*order), twiddles, spins))
        products = 1 if p == 2 else 2
        s += products * (mu + 3 * _U) + (p - 1) * _U / (1 - (p - 1) * _U)
        span *= p
    return stages, expm1(2 * s)


def _float_transform(values: list[complex], stages: list) -> list[complex]:
    """X_k = sum_j a_j w^(j k) for all k < S, in floats, by the stages of
    _float_plan."""
    for p, gather, twiddles, spins in stages:
        g = gather(values)
        m = len(g) // p
        z = [g[:m]]
        for u, tw in enumerate(twiddles, 1):
            z.append(list(map(mul, tw, g[u * m : (u + 1) * m])))
        if p == 2:
            values = [*map(add, *z), *map(sub, *z)]
            continue
        values = []
        for row in spins:
            acc = z[0]
            for w, zu in zip(row, z[1:]):
                acc = map(add, acc, map(w.__mul__, zu))
            values += acc
    return values


def _twiddled(
    w: tuple[int, int], re: list[int], im: list[int], frac: int
) -> tuple[Iterator[int], Iterator[int]]:
    """w * (re + i im) elementwise, by _dft's three products and one
    truncation per part."""
    wr, wi = w
    t = list(map(wr.__mul__, map(add, re, im)))
    return (
        map(rshift, map(sub, t, map((wr + wi).__mul__, im)), repeat(frac)),
        map(rshift, map(add, t, map((wi - wr).__mul__, re)), repeat(frac)),
    )


def _dft_at(
    re: list[int], im: list[int], table: Sequence[tuple[int, int]], frac: int, k: int
) -> tuple[int, int]:
    """X_k of _dft(re, im, table, frac), bit for bit.

    _dft's sums and truncations for the one output, level by level from the
    leaves: at each level the transforms of the residue classes mod P need
    only their output k mod (n / P), and all classes share its twiddles.
    That is n - 1 products, fewer when the classes past the last nonzero
    input are zero and a level only passes its first child on.
    """
    n = len(re)
    radices, m = [], n
    while m > 1:
        radices.append(_factor(m))
        m //= radices[-1]
    nonzero = max((j + 1 for j in range(n) if re[j] or im[j]), default=0)
    classes = n
    for p in reversed(radices):
        classes //= p
        if classes >= nonzero:
            re, im = re[:classes], im[:classes]
            continue
        size = n // classes
        kd, half, stride = k % size, size // p, len(table) // size
        if p == 2:
            w = table[kd % half * stride]
            tr, ti = _twiddled(w, re[classes:], im[classes:], frac)
            op = add if kd < half else sub
            re, im = list(map(op, re[:classes], tr)), list(map(op, im[:classes], ti))
            continue
        sr, si = re[:classes], im[:classes]
        for t in range(1, p):
            part = slice(t * classes, (t + 1) * classes)
            tr, ti = _twiddled(table[t * kd % size * stride], re[part], im[part], frac)
            sr, si = list(map(add, sr, tr)), list(map(add, si, ti))
        re, im = sr, si
    return re[0], im[0]


def _circle_min(
    re: list[int], im: list[int], samples: int, frac: int, prec: int
) -> int:
    """min(map(_norm2, *_circle_values(re, im, table, frac))), bit for bit,
    for the table of S = samples roots at prec bits.

    A float transform screens all S samples; only those within twice the
    bound on |screen - _dft| of the screen's minimum go through _dft_at, and
    they include the sample whose _dft norm is least.  The bound adds the
    screen's (_float_plan) to _dft's own error against the exact sum: by
    induction over its levels, each adds the twiddle error tau = 2^(4-prec)
    on its mass and a truncation under sqrt 2 per product, so _dft is off by
    at most ((1 + tau)^levels - 1) sum |a_j| + 2 S (1 + tau)^levels.  The
    ints are scaled by one power of two, 2^-top for top the largest bit
    length (read after a shift that keeps 1000 bits), so no float overflows.
    """
    ar, ai = _fold(re, im, samples)
    stages, rel = _float_plan(samples, frac, prec)
    top = max(map(abs, ar + ai)).bit_length()
    shift = max(0, top - 1000)
    f = 2.0 ** (shift - top)
    screen = [
        complex(float(a >> shift) * f, float(b >> shift) * f) if a or b else 0j
        for a, b in zip(ar, ai)
    ]
    mags = list(map(abs, _float_transform(screen, stages)))
    grow = expm1(len(stages) * log1p(2.0 ** (4 - prec)))
    mass = sum(map(abs, ar)) + sum(map(abs, ai))  # at least sum |a_j|
    slack = (rel + grow) * float(mass >> shift) * f
    cut = min(mags) + 2 * (slack + ldexp(2 * samples * (1 + grow), -top))
    table = _unit_table(samples, frac, prec)
    return min(
        _norm2(*_dft_at(ar, ai, table, frac, k))
        for k, mag in enumerate(mags)
        if mag <= cut
    )


def _round_sum(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple[int, int]:
    """m1 2^e1 + m2 2^e2, summed exactly and rounded once to prec significant
    bits (nearest, ties to even), as (m, e) standing for m 2^e."""
    m, e = ((m1 << (e1 - e2)) + m2, e2) if e1 > e2 else (m1 + (m2 << (e2 - e1)), e1)
    shift = m.bit_length() - prec
    return (_round_shift(m, shift), e + shift) if shift > 0 else (m, e)


def _small_denominators(lam: mpc, order: int, prec: int) -> list[tuple[int, int, int]]:
    """(d, |d|^2) for d = lam^n - lam, n = 2..order, d at scale 2^(2 (prec + 32)).

    lam^n = lam^(n-1) lam and d are rounded as libmp's mpc_mul and mpc_sub
    round them, but on ints: each part is the exact sum of exact products,
    rounded once to prec bits, to nearest with ties to even.
    mpmath's own sum skips the exact sum when its terms are over prec + 4
    bits apart in size, and rounds the larger with a sticky bit; for a
    product of two prec-bit parts that need not be correctly rounded, so the
    chains could differ in the last bit where lam^n nears an axis to within
    2^-(prec+4) while lam does not.  No tested angle comes near that.
    """
    scale = 2 * (prec + _GUARD_BITS)
    (zr, er), (zi, ei) = ((-x[1] if x[0] else x[1], x[2]) for x in lam._mpc_)
    pr, pe, qr, qe = zr, er, zi, ei  # lam^n = pr 2^pe + i qr 2^qe
    out = []
    for n in range(2, order + 1):
        (pr, pe), (qr, qe) = (
            _round_sum(pr * zr, pe + er, -qr * zi, qe + ei, prec),
            _round_sum(pr * zi, pe + ei, qr * zr, qe + er, prec),
        )
        (dr, dre), (di, die) = (
            _round_sum(pr, pe, -zr, er, prec),
            _round_sum(qr, qe, -zi, ei, prec),
        )
        dr, di = _round_shift(dr, -(dre + scale)), _round_shift(di, -(die + scale))
        out.append((dr, di, dr * dr + di * di))
        if out[-1][2] < 1 << 2 * (scale - prec + 8):
            raise PrecisionError(
                f"small denominator at n={n} is below working precision"
            )
    return out


def _extend(
    re: list[int], im: list[int], denoms: list, order: int, frac: int, floor: int
) -> bool:
    """Extend c_0..c_k to c_order, or stop with False at a c_n under floor bits.

    Each step sums 2 * sum_{i<n/2} c_i c_{n-i} (+ c_{n/2}^2 for even n) exactly
    and divides once, rounding to nearest, as t * conj(d) / |d|^2.
    """
    # su[n] = re[n] + im[n]: the imaginary part of the convolution is
    # sum(su su) - sum(re re) - sum(im im), three sums of products, not four
    su = list(map(add, re, im))
    for n in range(len(re), order + 1):
        dr, di, norm = denoms[n - 2]
        h = (n + 1) // 2
        rr = sum(map(mul, re[1:h], re[n - 1 : n - h : -1]))
        ii = sum(map(mul, im[1:h], im[n - 1 : n - h : -1]))
        ss = sum(map(mul, su[1:h], su[n - 1 : n - h : -1]))
        tr, ti = 2 * (rr - ii), 2 * (ss - rr - ii)
        if n % 2 == 0:
            mr, mi = re[h], im[h]
            tr += mr * mr - mi * mi
            ti += 2 * mr * mi
        # t and d are both at scale 2^(2 frac), so t / d lands at 2^frac
        # after the numerator is shifted up by frac
        half = norm >> 1
        br = (((tr * dr + ti * di) << frac) + half) // norm
        bi = (((ti * dr - tr * di) << frac) + half) // norm
        if max(abs(br), abs(bi)).bit_length() < floor:
            return False
        re.append(br)
        im.append(bi)
        su.append(br + bi)
    return True


def linearization_coeffs(
    cf: CFExpansion, order: int, prec: int = 256
) -> LinearizationSeries:
    """Coefficients of the linearization series up to the given order.

    b_1 = 1 and b_n * (lam^n - lam) is the full convolution of lower
    coefficients.  A small denominator indistinguishable from zero at the
    working precision aborts with the offending index, since every later
    coefficient would be garbage.
    """
    if cf.is_rational:
        raise InvariantError("linearization needs an irrational rotation number")
    if order < 2:
        raise InvariantError("need order >= 2")
    with mp.workprec(prec):
        lam = mp.expjpi(2 * cf.value_mpf(prec))
    frac = prec + _GUARD_BITS
    denoms = _small_denominators(lam, order, prec)
    pilot = max(min(order, 32), order // 4)
    re, im = [0, 1 << frac], [0, 0]
    _extend(re, im, denoms, pilot, frac, 0)
    # s: the slowest growth over the unscaled pilot's back half in bits per
    # index, capped so that every shifted pilot value keeps its floor
    bits = [max(abs(r), abs(i)).bit_length() - frac for r, i in zip(re, im)]
    s = min(bits[n] // n for n in range(pilot // 2 + 1, pilot + 1))
    s = max(0, min([s] + [(bits[n] + _SLACK_BITS) // n for n in range(2, pilot + 1)]))
    while True:
        cr = [_round_shift(x, s * n) for n, x in enumerate(re)]
        ci = [_round_shift(x, s * n) for n, x in enumerate(im)]
        if _extend(cr, ci, denoms, order, frac, frac - _SLACK_BITS if s else 0):
            break
        s -= 1
    rows = [(re[n], im[n], frac) for n in range(1, pilot + 1)]
    rows += [(cr[n], ci[n], frac - s * n) for n in range(pilot + 1, order + 1)]
    coeffs = tuple(
        mp.make_mpc(tuple(from_man_exp(x, -e, prec, round_nearest) for x in (r, i)))
        for r, i, e in rows
    )
    return LinearizationSeries(lam=lam, coeffs=coeffs, prec=prec)


@dataclass(frozen=True)
class RadiusEstimate:
    """Root-test estimate of the series' radius of convergence.

    half_order is the same estimator run on the first half of the series;
    reliable means the two agree within 25%, which filters out coefficient
    blow-ups that have not yet settled into geometric growth.
    """

    r_hat: mpf
    half_order: mpf
    reliable: bool


def _log2_abs(z: mpc) -> float:
    """log2 |z| as a float, read off the parts' mantissas and exponents.

    Coefficients reach 2^1100 and more, beyond the float range, so |z| is
    never formed as a float; -inf for z = 0.
    """
    logs = [log2(man) + exp for _, man, exp, _ in (z.real._mpf_, z.imag._mpf_) if man]
    if not logs:
        return -inf
    top = max(logs)
    return top + 0.5 * log2(sum(2.0 ** (2 * (x - top)) for x in logs))


def _root_test(coeffs: Sequence[mpc], lo: int, hi: int) -> mpf:
    """1 / max |b_n|^(1/n) over lo <= n <= hi.

    A float log2|b_n| / n screens the window.  Its error is below 1e-12, so
    only the n within 1e-9 of its maximum can attain the exact maximum; they
    alone take the exact power, in increasing n with a strict >, so the
    result is the one a full scan returns, bit for bit.
    """
    scores = [_log2_abs(coeffs[n - 1]) / n for n in range(lo, hi + 1)]
    cut = max(scores) - 1e-9
    worst = mpf(0)
    for n, score in enumerate(scores, start=lo):
        if score >= cut:
            mag = abs(coeffs[n - 1]) ** (mpf(1) / n)
            if mag > worst:
                worst = mag
    if worst == 0:
        raise PrecisionError("all coefficients in the root-test window vanish")
    return 1 / worst


def conformal_radius_estimate(series: LinearizationSeries) -> RadiusEstimate:
    """Estimate the conformal radius as 1 over the tail max of |b_n|^(1/n).

    The max runs over the top half of the computed coefficients, which damps
    the oscillation caused by near-resonant indices.
    """
    n = series.order
    if n < 32:
        raise InvariantError("radius estimation needs order >= 32")
    with mp.workprec(series.prec):
        full = _root_test(series.coeffs, n // 2, n)
        half = _root_test(series.coeffs, n // 4, n // 2)
        agree = abs(full - half) <= mpf("0.25") * full
    return RadiusEstimate(r_hat=full, half_order=half, reliable=bool(agree))


@dataclass(frozen=True)
class InnerProbe:
    """Minimum of |phi| on a circle just inside the estimated radius.

    tail_flagged is set when the crude geometric tail estimate of the
    truncation error exceeds 1% of the reported value, in which case the
    probe says more about the truncation than about the disk.
    """

    value: mpf
    tail_flagged: bool
    samples: int


def inner_radius_probe(
    series: LinearizationSeries, r_hat: mpf, samples: int = 512
) -> InnerProbe:
    """Probe min |phi(w)| over equispaced w on the circle |w| = 0.98 * r_hat.

    The result is a sampled proxy for the distance from the fixed point to
    the boundary of the linearization domain.  A float FFT of the truncated
    series screens all S samples; its error has a proven bound of about
    log2(S) * (6u + 2^(4-prec)) * sum |c_n|, u = 2^-53, c_n = b_n (0.98
    r_hat)^n (Higham, section 24.1; see _float_plan).  Each sample the bound
    cannot rule out is then computed in fixed point, exactly as the
    full-precision exact-integer DFT of all S samples computes it, and the
    least of those decides the value.  So the value is that DFT's minimum,
    bit for bit, accurate to about log2(S) * 2^-prec * sum |c_n|.
    """
    if samples < 8:
        raise InvariantError("need at least 8 samples")
    if not 0 < r_hat < inf:
        raise InvariantError("need a positive finite radius")
    frac = series.prec + _GUARD_BITS
    with mp.workprec(series.prec):
        radius = mpf("0.98") * mpf(r_hat)
        re, im = _scaled_fixed(series, radius, frac)
        value = _fixed_sqrt(_circle_min(re, im, samples, frac, series.prec), frac)
        top = abs(series.coeffs[-1]) * radius ** series.order
        tail = top * mpf("0.98") / (1 - mpf("0.98"))
        flagged = bool(tail > mpf("0.01") * value)
    return InnerProbe(value=value, tail_flagged=flagged, samples=samples)


def functional_residual(
    series: LinearizationSeries, r_hat: mpf, samples: int = 64
) -> mpf:
    """Max |phi(lam w) - lam phi(w) - phi(w)^2| over a sampled circle.

    Sampling happens on |w| = r_hat / 2, well inside the estimated
    convergence disk so the truncated series is trustworthy there.  phi(w)
    and phi(lam w) at all S samples come from two exact-integer DFTs, of c_n
    and of c_n lam^n with lam^n stepped in fixed point.  That resolves
    defects down to about log2(S) * 2^-prec * sum |c_n| + (N + S) *
    2^-(prec+32), far below 1e-60 at the default 256 bits.
    """
    if samples < 1:
        raise InvariantError("need at least 1 sample")
    if not 0 < r_hat < inf:
        raise InvariantError("need a positive finite radius")
    frac = series.prec + _GUARD_BITS
    with mp.workprec(series.prec):
        radius = mpf(r_hat) / 2
        re, im = _scaled_fixed(series, radius, frac)
        lr, li = _to_fixed(series.lam, frac)
        rot_r, rot_i = [], []
        pr, pi = 1 << frac, 0
        for cr, ci in zip(re, im):
            rot_r.append((cr * pr - ci * pi) >> frac)
            rot_i.append((cr * pi + ci * pr) >> frac)
            pr, pi = (pr * lr - pi * li) >> frac, (pr * li + pi * lr) >> frac
        table = _unit_points(samples, frac)
        fr, fi = _circle_values(re, im, table, frac)
        qr, qi = _circle_values(rot_r, rot_i, table, frac)
        worst = max(
            _norm2(
                q_r - ((lr * f_r - li * f_i + f_r * f_r - f_i * f_i) >> frac),
                q_i - ((lr * f_i + li * f_r + 2 * f_r * f_i) >> frac),
            )
            for f_r, f_i, q_r, q_i in zip(fr, fi, qr, qi)
        )
        return _fixed_sqrt(worst, frac)


@dataclass(frozen=True)
class RatioRow:
    n: int
    scaled: mpf
    deviation: mpf
    reliable: bool


@dataclass(frozen=True)
class RatioExperiment:
    """Scaled radius estimates for a family of step perturbations.

    Inserting a huge quotient after n terms of the base angle drops the
    conformal radius by roughly the amplitude factor; rows record the
    rescaled estimates and their deviation from the base radius, and
    trend_ok says whether the deviation at the deepest n beats the one at
    the shallowest.
    """

    base_r_hat: mpf
    rows: tuple[RatioRow, ...]
    trend_ok: bool
    reliable: bool


def radius_ratio_experiment(
    prefix: Iterable[int],
    amplitude: "Fraction | int",
    n_range: Iterable[int],
    order: int = 256,
    prec: int = 256,
) -> RatioExperiment:
    """Compare r-hat of step-perturbed angles, rescaled, against the base.

    The base angle is the prefix continued with an all-ones tail; for each n
    the perturbed angle keeps the first n quotients, inserts the floor of
    amplitude^(q_n), and continues with ones.  Unreliable member estimates
    poison the verdict rather than being dropped.
    """
    amp = Fraction(amplitude)
    if amp <= 1:
        raise InvariantError("amplitude must exceed 1")
    ns = sorted(set(int(n) for n in n_range))
    if not ns:
        raise InvariantError("empty n range")
    base = CFExpansion(quotients=tuple(prefix), tail=(1,))
    base_series = linearization_coeffs(base, order, prec)
    base_est = conformal_radius_estimate(base_series)
    rows: list[RatioRow] = []
    all_reliable = base_est.reliable
    with mp.workprec(prec):
        amp_mpf = mpf(amp.numerator) / mpf(amp.denominator)
        for n in ns:
            cf_n = perturbed_cf(base.prefix(n), amp)
            series = linearization_coeffs(cf_n, order, prec)
            est = conformal_radius_estimate(series)
            scaled = est.r_hat * amp_mpf
            rows.append(
                RatioRow(
                    n=n,
                    scaled=scaled,
                    deviation=abs(scaled - base_est.r_hat),
                    reliable=est.reliable,
                )
            )
            all_reliable = all_reliable and est.reliable
    trend = bool(rows[-1].deviation < rows[0].deviation)
    return RatioExperiment(
        base_r_hat=base_est.r_hat,
        rows=tuple(rows),
        trend_ok=trend,
        reliable=all_reliable,
    )
