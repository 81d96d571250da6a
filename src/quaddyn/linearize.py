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
radius-scaled coefficients fold mod S exactly (u^S = 1).  One memoised
plan serves every S-point transform: its table of S-th roots of unity,
each within 2^(4-prec) of exact, and its mixed-radix stages, each a gather
and one twiddle product per term.  _dft runs the stages on ints; the
residual transforms the folded sums so, each value off by about log2(S) *
2^-prec * sum |c_n| plus (N + S) * 2^-(prec+32), which resolves defects
far below 1e-60 at 256 bits.  The probe needs only the least |phi(u_k)|:
_float_dft runs the same stages on complex floats, with a proven error
bound of about log2(S) * (6u + 2^(4-prec)) * sum |c_n| for u = 2^-53
(Higham, Accuracy and Stability of Numerical Algorithms, section 24.1),
and only the samples that bound cannot rule out are computed in fixed
point, each exactly as _dft computes it.  Those exact values decide the
reported minimum, which is the DFT's, bit for bit.  mpf -> int is one
exact mantissa shift, independent of mp.prec; the public values stay
mpmath numbers at prec bits.
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

MIN_RADIUS_ORDER = 32  # the least order conformal_radius_estimate accepts


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


def _radices(n: int) -> list[int]:
    """The prime factors of n, smallest first, with multiplicity."""
    radices, d = [], 2
    while d * d <= n:
        if n % d:
            d += 1
        else:
            radices.append(d)
            n //= d
    return radices + [n] * (n > 1)


@lru_cache(maxsize=16)
def _plan(
    samples: int, frac: int, prec: int
) -> tuple[tuple[tuple[int, int], ...], list]:
    """The root table and the stages of the S-point transform X_k = sum_j
    a_j w^(jk), w = exp(2 pi i / S): the one memo behind every transform.

    table[k] is exp(2 pi i k / S) as a fixed-point pair, built at prec bits
    whatever mp.prec is, and within 2^(4 - prec) of the exact root: rounding
    the angle 2k/S moves it by at most pi 2^-prec, and each part of expjpi
    and of the pair adds a rounding.  When 8 divides S only the first
    octant is evaluated.  The rest follows exactly: cos and sin swap across
    pi/4, a quarter turn maps (x, y) to (-y, x) and a half turn to (-x, -y).

    Stockham form (Van Loan, Computational Frameworks for the Fast Fourier
    Transform, ch. 1): with C residue classes left and transforms of size L
    done, y[c + C k] = sum_t a_(c + C t) w_L^(t k) for c < C and k < L.  A
    stage of radix p, C = p C', gathers block r < p holding y[c + C' (r + p
    k)] at e = c + C' k, and output block v < p is sum_r w_(pL)^(r (k + L
    v)) (block r)[e]: one combined twiddle per term, the products of the
    recursive decimation in time that splits off the smallest prime first,
    so the stages take the radices in reverse.  Radix 2 has the one
    twiddle w_(2L)^k for the sum and the difference.  A stage holds p, its
    gather, and for r = 1..p-1 the twiddle of every output element, as the
    int triples (wr, wr + wi, wi - wr) that _twiddled takes and as floats.
    """
    with mp.workprec(prec):
        def root(k: int) -> tuple[int, int]:
            return _to_fixed(mp.expjpi(mpf(2 * k) / samples), frac)

        if samples % 8:
            table = [root(k) for k in range(samples)]
        else:
            table = [root(k) for k in range(samples // 8 + 1)]
            table += [(y, x) for x, y in reversed(table[1:-1])]
            table += [(-y, x) for x, y in table]
            table += [(-x, -y) for x, y in table]
    scale = 1 << frac
    triples = [(x, x + y, y - x) for x, y in table]
    roots = [complex(x / scale, y / scale) for x, y in table]
    stages, classes, size = [], samples, 1
    for p in reversed(_radices(samples)):
        classes //= p
        order = [
            c + classes * (r + p * k)
            for r in range(p) for k in range(size) for c in range(classes)
        ]
        # output o = v S/p + c + C' k, so k + L v = o // C'
        outputs = range(samples // 2 if p == 2 else samples)
        twiddles = [
            [r * (o // classes) % (p * size) * classes for o in outputs]
            for r in range(1, p)
        ]
        ints = [tuple(zip(*map(triples.__getitem__, tw))) for tw in twiddles]
        floats = [list(map(roots.__getitem__, tw)) for tw in twiddles]
        stages.append((p, itemgetter(*order), ints, floats))
        size *= p
    return tuple(table), stages


def _twiddled(
    w: tuple[Iterable[int], ...], re: Sequence[int], im: Sequence[int], frac: int
) -> tuple[Iterator[int], Iterator[int]]:
    """w * (re + i im) elementwise, for w given as the triples (wr, wr + wi,
    wi - wr) of each element: three products and one truncation per part."""
    wr, ws, wd = w
    t = list(map(mul, wr, map(add, re, im)))
    return (
        map(rshift, map(sub, t, map(mul, ws, im)), repeat(frac)),
        map(rshift, map(add, t, map(mul, wd, re)), repeat(frac)),
    )


def _dft(
    re: list[int], im: list[int], stages: list, frac: int
) -> tuple[list[int], list[int]]:
    """X_k = sum_j a_j w^(jk) for k < S = len(re), on ints, by the stages of
    _plan(S, frac, prec).

    Each product is the one the recursive mixed-radix decimation in time
    makes, truncated once as it truncates, and int sums are exact, so the
    outputs are that recursion's bit for bit.  A prime S costs S (S - 1)
    products.
    """
    for p, gather, ints, _ in stages:
        gr, gi = gather(re), gather(im)
        m = len(gr) // p
        if p == 2:
            tr, ti = map(list, _twiddled(ints[0], gr[m:], gi[m:], frac))
            re = [*map(add, gr[:m], tr), *map(sub, gr[:m], tr)]
            im = [*map(add, gi[:m], ti), *map(sub, gi[:m], ti)]
            continue
        re, im = gr[:m] * p, gi[:m] * p
        for r, w in enumerate(ints, 1):
            part = slice(r * m, (r + 1) * m)
            tr, ti = _twiddled(w, gr[part] * p, gi[part] * p, frac)
            re, im = list(map(add, re, tr)), list(map(add, im, ti))
    return re, im


def _float_dft(values: list[complex], stages: list) -> list[complex]:
    """X_k = sum_j a_j w^(jk) for k < S = len(values), in floats, by the
    same stages: one product per term, and radix 2's serves two outputs."""
    for p, gather, _, floats in stages:
        g = gather(values)
        m = len(g) // p
        if p == 2:
            lo, t = g[:m], list(map(mul, floats[0], g[m:]))
            values = [*map(add, lo, t), *map(sub, lo, t)]
            continue
        values = g[:m] * p
        for r, w in enumerate(floats, 1):
            values = list(map(add, values, map(mul, w, g[r * m : (r + 1) * m] * p)))
    return values


_U = 2.0**-53  # unit roundoff of a float


def _float_bound(samples: int, prec: int) -> float:
    """rel with |_float_dft - X_k| <= rel * sum_j |a_j| for every k.

    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.: Lemma
    3.5 for a complex product, 3u for sqrt(2) gamma_2; section 24.1 for the
    transform.  Every intermediate value is a partial sum over a residue
    class of the inputs, bounded by that class's mass sum |a_j|.  The
    float twiddles are within mu = 2u + 2^(4-prec) of the exact roots.  A
    stage multiplies each term once (a factor 1 + mu + 3u of error) and
    sums p terms (gamma_(p-1)), so with the input rounding (u), |X^_k -
    X_k| <= (exp(s) - 1) sum_j |a_j|, s = u + sum over stages of those
    terms.  The bound returned is exp(2 s) - 1, which is at least exp(s) -
    1 + s and so leaves over 6u sum |a_j| for the rounding of |X^_k|, of
    the cut built from it, and of the mass itself.  Absolute errors from
    underflow and from the input shift stay below S 2^-998 at the scale
    the screen uses (max |a_j| of at least 1/2), far inside that margin.
    """
    mu = 2 * _U + 2.0 ** (4 - prec)
    s = _U
    for p in _radices(samples):
        s += mu + 3 * _U + (p - 1) * _U / (1 - (p - 1) * _U)
    return expm1(2 * s)


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
    re: list[int], im: list[int], samples: int, frac: int, prec: int
) -> tuple[list[int], list[int]]:
    """sum_n c_n u_k^n at the S = samples points u_k = exp(2 pi i k / S), by
    one S-point transform of the folded coefficients."""
    return _dft(*_fold(re, im, samples), _plan(samples, frac, prec)[1], frac)


def _dft_at(
    re: list[int], im: list[int], table: Sequence[tuple[int, int]], frac: int, k: int
) -> tuple[int, int]:
    """X_k of _dft, bit for bit, for table the root table of its plan.

    The stages' sums and truncations for the one output: at each stage the
    transforms of the residue classes need only their output k mod L, and
    all classes share its twiddle.  That is S - 1 products, fewer when the
    classes past the last nonzero input are zero and a stage only passes
    its first block on.
    """
    n = len(re)
    nonzero = max((j + 1 for j in range(n) if re[j] or im[j]), default=0)
    classes = n
    for p in reversed(_radices(n)):
        classes //= p
        if classes >= nonzero:
            re, im = re[:classes], im[:classes]
            continue
        size = n // classes
        kd, half = k % size, size // 2
        if p == 2:
            terms = [(1, kd % half, add if kd < half else sub)]
        else:
            terms = [(r, r * kd % size, add) for r in range(1, p)]
        sr, si = re[:classes], im[:classes]
        for r, e, op in terms:
            wr, wi = table[e * classes]
            part = slice(r * classes, (r + 1) * classes)
            w = repeat(wr), repeat(wr + wi), repeat(wi - wr)
            tr, ti = _twiddled(w, re[part], im[part], frac)
            sr, si = list(map(op, sr, tr)), list(map(op, si, ti))
        re, im = sr, si
    return re[0], im[0]


def _circle_min(
    re: list[int], im: list[int], samples: int, frac: int, prec: int
) -> int:
    """min(map(_norm2, *_circle_values(re, im, samples, frac, prec))), bit
    for bit.

    _float_dft screens all S samples on the plan's stages; only those within
    twice the bound on |screen - _dft| of the screen's minimum go through
    _dft_at, and they include the sample whose _dft norm is least.  The
    bound adds the screen's (_float_bound) to _dft's own error against the
    exact sum: by induction over its stages, each adds the twiddle error
    tau = 2^(4-prec) on its mass and a truncation under sqrt 2 per product,
    so _dft is off by at most ((1 + tau)^levels - 1) sum |a_j| + 2 S (1 +
    tau)^levels.  The ints are scaled by one power of two, 2^-top for top
    the largest bit length (read after a shift that keeps 1000 bits), so no
    float overflows.
    """
    ar, ai = _fold(re, im, samples)
    table, stages = _plan(samples, frac, prec)
    top = max(map(abs, ar + ai)).bit_length()
    shift = max(0, top - 1000)
    f = 2.0 ** (shift - top)
    screen = [
        complex(float(a >> shift) * f, float(b >> shift) * f) if a or b else 0j
        for a, b in zip(ar, ai)
    ]
    mags = list(map(abs, _float_dft(screen, stages)))
    grow = expm1(len(stages) * log1p(2.0 ** (4 - prec)))
    mass = sum(map(abs, ar)) + sum(map(abs, ai))  # at least sum |a_j|
    slack = (_float_bound(samples, prec) + grow) * float(mass >> shift) * f
    cut = min(mags) + 2 * (slack + ldexp(2 * samples * (1 + grow), -top))
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


def _check_radius_order(order: int) -> None:
    """Refuse an order below MIN_RADIUS_ORDER, before any series is built."""
    if order < MIN_RADIUS_ORDER:
        raise InvariantError(f"radius estimation needs order >= {MIN_RADIUS_ORDER}")


def conformal_radius_estimate(series: LinearizationSeries) -> RadiusEstimate:
    """Estimate the conformal radius as 1 over the tail max of |b_n|^(1/n).

    The max runs over the top half of the computed coefficients, which damps
    the oscillation caused by near-resonant indices.
    """
    n = series.order
    _check_radius_order(n)
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
    the boundary of the linearization domain.  The plan's stages run on
    complex floats to screen all S samples, one product per term, within a
    proven bound of about log2(S) * (6u + 2^(4-prec)) * sum |c_n|, u =
    2^-53, c_n = b_n (0.98 r_hat)^n (Higham, section 24.1; see
    _float_bound).  Each sample the bound cannot rule out is then computed
    in fixed point, exactly as the same stages on ints compute all S
    samples, and the least of those decides the value.  So the value is
    that exact-integer DFT's minimum, bit for bit, accurate to about
    log2(S) * 2^-prec * sum |c_n|.
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
        fr, fi = _circle_values(re, im, samples, frac, series.prec)
        qr, qi = _circle_values(rot_r, rot_i, samples, frac, series.prec)
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
    _check_radius_order(order)
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
