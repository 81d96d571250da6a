"""Quadratic dynamics in the plane: escape-time pixel renders, ray traces.

The renderer classifies dyadic pixels as near/far/borderline with respect to
the Julia set of z -> z^2 + c using escape counts plus the exterior
distance-estimate heuristic; the annulus semantics (a cell within one pixel
of the set must be near, beyond two pixels must be far) are honored up to a
configurable safety factor because the distance estimate carries an unproven
constant.  Ray tracing walks external rays down a geometric potential ladder
with damped Newton corrections.  The crosscut check exercises an explicit
slit-plane model whose Riemann map is known in closed form, on float arrays
that give every sample bit for bit as CPython's complex arithmetic would.

numpy is imported inside the functions that build arrays, not at module
load, so `ray` and the exact commands start without it.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .angles import Angle
from .errors import InvariantError, PrecisionError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PixelGrid",
    "RayTrace",
    "LavrentievResult",
    "FAR",
    "NEAR",
    "BORDERLINE",
    "MAX_JULIA_RES",
    "render_julia",
    "hausdorff_distance",
    "trace_ray",
    "lavrentiev_check",
    "lavrentiev_monte_carlo",
]

FAR = 0
NEAR = 1
BORDERLINE = 2

# largest render_julia exponent; its cost is in the README's ceiling table
MAX_JULIA_RES = 9

# pixels per band of the render_julia escape loop
_BAND_PIXELS = 2**16


@dataclass(frozen=True, eq=False)
class PixelGrid:
    """Square grid of side-2^-n cells classified against a Julia set.

    cells[row, col] is one of FAR, NEAR, BORDERLINE; row indexes imaginary
    parts bottom-up.  Cells that cannot be resolved either way stay
    borderline, including bounded cells deep inside the filled set, where
    escape data says nothing trustworthy.
    """

    resolution_exponent: int
    origin: complex
    extent: float
    cells: np.ndarray

    def centers(self) -> np.ndarray:
        import numpy as np

        side = self.cells.shape[0]
        h = 2.0 ** (-self.resolution_exponent)
        xs = self.origin.real + (np.arange(side) + 0.5) * h
        ys = self.origin.imag + (np.arange(side) + 0.5) * h
        return xs[None, :] + 1j * ys[:, None]

    def near_points(self) -> np.ndarray:
        import numpy as np

        return self.centers()[self.cells == NEAR]

    def counts(self) -> dict[str, int]:
        import numpy as np

        return {
            "near": int(np.count_nonzero(self.cells == NEAR)),
            "far": int(np.count_nonzero(self.cells == FAR)),
            "borderline": int(np.count_nonzero(self.cells == BORDERLINE)),
        }


def render_julia(
    c: complex, n: int, max_iter: int = 128, safety: float = 4.0
) -> PixelGrid:
    """Classify a dyadic pixel grid against the Julia set of z^2 + c.

    The grid covers the square [-2.5, 2.5]^2.  Escaped cells get the
    distance estimate |z| log|z| / |z'|: within one pixel is near, beyond
    2*safety pixels is far, else borderline.  Bounded cells with an escaped
    4-neighbor toggle to near (the boundary passes between the centers if
    the bounded side is honest); all other bounded cells stay borderline.

    The escape loop runs over the lower side/2 rows only, in bands of whole
    rows of about _BAND_PIXELS pixels.  Within a band it iterates compacted
    z and z' arrays of the pixels still alive, with their flat indices; a
    pixel that escapes is classified once, from its estimate, and dropped.
    The upper half is the lower half turned through a half turn, and that
    is exact: side = 5 * 2^n is even, so the centers -2.5 + (i + 1/2) h
    are negatives of each other bit for bit (the products (i + 1/2) h are
    exact and rounding is symmetric), and IEEE negation commutes with
    z^2 + c, which takes z and -z to one float, and with z' -> 2 z z',
    which keeps the two z' negatives of each other, so |z| and |z'| agree
    at every step.  The neighbor rule runs afterwards on the whole grid's
    escaped mask, so band edges and the mirror do not affect it, and the
    working set beyond the int8 cells and two bool grids stays at one band.
    """
    import numpy as np

    if not 1 <= n <= MAX_JULIA_RES:
        raise InvariantError(f"resolution exponent must be in 1..{MAX_JULIA_RES}")
    if not (cmath.isfinite(c) and max_iter >= 1 and 1 <= safety < math.inf):
        raise InvariantError(
            "need a finite c, max_iter >= 1 and a finite safety factor >= 1"
        )
    h = 2.0**-n
    half_width = 2.5
    side = int(round(2 * half_width / h))
    xs = -half_width + (np.arange(side) + 0.5) * h
    cells = np.full((side, side), BORDERLINE, dtype=np.int8)
    escaped = np.zeros((side, side), dtype=bool)
    flat_cells, flat_escaped = cells.reshape(-1), escaped.reshape(-1)
    big = 1e10
    half = side // 2
    rows = max(1, _BAND_PIXELS // side)
    for r0 in range(0, half, rows):
        z = (xs[None, :] + 1j * xs[r0 : min(r0 + rows, half), None]).ravel()
        dz = np.ones_like(z)
        idx = np.arange(r0 * side, r0 * side + z.size)
        for _ in range(max_iter):
            dz *= 2 * z
            z = z * z + c
            alive = np.abs(z) <= big
            if alive.all():
                continue
            out = ~alive
            mag = np.abs(z[out])
            grad = np.abs(dz[out])
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                d_est = mag * np.log(mag) / np.maximum(grad, 1e-300)
            esc_class = np.full(d_est.shape, BORDERLINE, dtype=np.int8)
            esc_class[d_est >= 2 * safety * h] = FAR
            esc_class[d_est <= h] = NEAR
            flat_cells[idx[out]] = esc_class
            flat_escaped[idx[out]] = True
            z, dz, idx = z[alive], dz[alive], idx[alive]
            if not idx.size:
                break
    cells[half:] = cells[half - 1 :: -1, ::-1]
    escaped[half:] = escaped[half - 1 :: -1, ::-1]
    neighbor_escaped = np.zeros_like(escaped)
    neighbor_escaped[1:, :] |= escaped[:-1, :]
    neighbor_escaped[:-1, :] |= escaped[1:, :]
    neighbor_escaped[:, 1:] |= escaped[:, :-1]
    neighbor_escaped[:, :-1] |= escaped[:, 1:]
    cells[~escaped & neighbor_escaped] = NEAR
    return PixelGrid(
        resolution_exponent=n,
        origin=complex(-half_width, -half_width),
        extent=2 * half_width,
        cells=cells,
    )


def _as_points(points: "Sequence[complex] | np.ndarray") -> np.ndarray:
    import numpy as np

    arr = np.asarray(points)
    if arr.size == 0:
        raise InvariantError("empty point set")
    if np.iscomplexobj(arr) or arr.ndim == 1:
        return arr.ravel() + 0j
    return arr[:, 0] + 1j * arr[:, 1]


def hausdorff_distance(
    a: "Sequence[complex] | np.ndarray", b: "Sequence[complex] | np.ndarray"
) -> float:
    """Hausdorff distance between finite point sets (complex or Nx2), from
    every pairwise distance, taken in blocks of rows of about 2^20."""
    import numpy as np

    pa, pb = _as_points(a), _as_points(b)
    rows, a_to_b, b_to_a = max(1, 2**20 // pb.size), 0.0, np.inf
    for i in range(0, pa.size, rows):
        block = abs(pa[i : i + rows, None] - pb)
        a_to_b = max(a_to_b, block.min(axis=1).max())
        b_to_a = np.minimum(b_to_a, block.min(axis=0))
    return float(max(a_to_b, b_to_a.max()))


@dataclass(frozen=True)
class RayTrace:
    """External-ray polyline ordered by strictly decreasing potential.

    landing_estimate equals the terminal point, except for angles that are
    exactly periodic under doubling (odd denominator) with period at most
    64, where the terminus is polished by Newton on the periodicity equation
    of the landing orbit.  That matters at parabolic parameters, where the
    raw polyline approaches its landing point only at a cube-root-of-log
    rate.  Longer periods keep the raw terminus: the polish costs 240 times
    the period in map iterations, and 1/q can have period up to q - 1.
    """

    points: tuple[complex, ...]
    potentials: tuple[float, ...]
    landing_estimate: complex = 0j


def _ray_target(c: complex, t: float, beta: float) -> complex:
    w = cmath.exp(t + 2j * math.pi * beta)
    return w - c / (2 * w)


def _orbit(c: complex, z: complex, m: int) -> tuple[complex, complex]:
    """f^m(z) and its derivative in z."""
    value, deriv = z, complex(1.0)
    for _ in range(m):
        deriv = 2.0 * value * deriv
        value = value * value + c
    return value, deriv


def _newton_forward(c: complex, seed: complex, m: int, target: complex, orbit: tuple):
    """Solve f^m(z) = target by damped Newton from the seed, given its orbit
    (f^m, (f^m)'); return z and its orbit, None after a damped last step.

    The full step (scale 1) is tried first and accepted almost always; its
    trial orbit, derivative included, is _orbit's for the next z, the same
    expression z - scale * step.  Shorter trials need no derivative, and a
    NaN orbit fails acceptance.  A trial point equal to z ends the solve as
    failed: its orbit is value itself, which the strict test refuses, and
    as rounding is monotone every shorter trial equals z too.
    """
    z, (value, deriv) = seed, orbit
    try:
        tol = 1e-13 * (1 + abs(target))
        for _ in range(60):
            err = value - target
            if abs(err) < tol:
                return z, (value, deriv)
            if deriv == 0:
                break
            step = err / deriv
            scale = 1.0
            base = abs(err)
            trial = z - scale * step
            if trial == z:
                break
            value2, deriv2 = _orbit(c, trial, m)
            if not abs(value2 - target) < base:  # a NaN orbit is refused too
                scale /= 2
                while scale > 2.0**-8 and (trial := z - scale * step) != z:
                    value2 = trial
                    for _ in range(m):
                        value2 = value2 * value2 + c
                    if abs(value2 - target) < base:
                        break
                    scale /= 2
                else:
                    break
            z = trial
            if abs(scale * step) < 1e-14 * (1 + abs(z)):
                return z, ((value2, deriv2) if scale == 1.0 else None)
            value, deriv = (value2, deriv2) if scale == 1.0 else _orbit(c, z, m)
    except OverflowError:  # an orbit past what abs() can return
        pass
    raise PrecisionError("ray correction did not converge")


def _doubled_angle(angle: "Fraction | float", m: int) -> float:
    if isinstance(angle, Fraction):
        # the same float as float((angle * 2**m) % 1): int / int rounds
        # correctly, and an unreduced quotient names the same rational
        p, q = angle.numerator, angle.denominator
        return ((p << m) % q) / q
    # reducing mod 1 first is exact and keeps a large angle from overflowing
    return math.fmod(math.fmod(angle, 1.0) * 2.0**m, 1.0)


def trace_ray(
    c: complex, angle: "Angle | Fraction | float", t_min: float = 1e-6
) -> RayTrace:
    """Trace the external ray of the given angle down to potential t_min.

    Starts on the Boettcher-asymptotic circle at potential log 1e4 and
    descends a geometric ladder of eight steps per halving, correcting each
    point by Newton on the appropriate forward iterate so magnitudes stay
    bounded.  A failed correction bisects the ladder step (in log potential)
    before giving up.
    Meaningful for connected Julia sets; disconnectedness is not detected.
    Each solve starts from the point accepted before it, whose orbit that
    solve computed at the same m or at m - 1; one slot carries it on.
    """
    alpha = angle.fraction if isinstance(angle, Angle) else angle
    t0 = math.log(1e4)
    finite_angle = isinstance(alpha, Fraction) or math.isfinite(alpha)
    if not (0 < t_min < t0 and cmath.isfinite(c) and finite_angle):
        raise InvariantError(
            "need a finite c and angle and 0 < t_min below the start potential log 1e4"
        )

    doubled: dict[int, float] = {}
    carried = [None, -1, 0j, 0j]  # z, m, f^m(z), (f^m)'(z) of the last solve

    def point_at(t: float, seed: complex | None) -> complex:
        m = max(0, math.ceil(math.log2(t0 / t) - 1e-12))
        if m not in doubled:
            doubled[m] = _doubled_angle(alpha, m)
        target = _ray_target(c, (2.0**m) * t, doubled[m])
        if seed is None:
            return target
        z, m0, value, deriv = carried
        if z is seed and m0 == m - 1:  # the step _orbit would take next
            value, deriv = value * value + c, 2.0 * value * deriv
        elif z is not seed or m0 != m:
            value, deriv = _orbit(c, seed, m)
        z, orbit = _newton_forward(c, seed, m, target, (value, deriv))
        if orbit is not None:
            carried[:] = z, m, *orbit
        return z

    def advance(z_from: complex, t_from: float, t_to: float, depth: int) -> complex:
        try:
            return point_at(t_to, z_from)
        except PrecisionError:
            if depth <= 0:
                raise PrecisionError(
                    f"ray stalled near potential {t_to:.3e}; "
                    "precision exhausted approaching the landing point"
                ) from None
            t_mid = math.sqrt(t_from * t_to)
            z_mid = advance(z_from, t_from, t_mid, depth - 1)
            return advance(z_mid, t_mid, t_to, depth - 1)

    ratio = 2.0 ** (-1.0 / 8)
    points = [point_at(t0, None)]
    potentials = [t0]
    t = t0
    while t > t_min:
        t_next = max(t * ratio, t_min * (1 - 1e-12))
        z_next = advance(points[-1], t, t_next, depth=16)
        points.append(z_next)
        potentials.append(t_next)
        t = t_next

    landing = points[-1]
    if isinstance(alpha, Fraction):
        period = _angle_period(alpha)
        if period is not None:
            refined = _refine_periodic_landing(c, landing, period)
            if refined is not None:
                landing = refined
    return RayTrace(
        points=tuple(points),
        potentials=tuple(potentials),
        landing_estimate=landing,
    )


def _angle_period(alpha: Fraction) -> int | None:
    """Period of alpha under doubling, or None if it is not purely periodic
    or its period exceeds 64 (the cap on the landing polish).

    An angle is purely periodic exactly when its reduced denominator is odd;
    the period is then the multiplicative order of 2 modulo the denominator.
    """
    den = alpha.denominator
    if den % 2 == 0:
        return None
    if den == 1:
        return 1
    power = 2 % den
    for p in range(1, 65):
        if power == 1:
            return p
        power = (2 * power) % den
    return None


def _refine_periodic_landing(
    c: complex, seed: complex, period: int
) -> complex | None:
    """Newton-polish a periodic ray terminus on f^p(z) = z.

    Converges linearly even when the landing orbit is parabolic (the root
    is then multiple), so a couple hundred iterations suffice.  Returns
    None when the iteration escapes or stalls far from a root, in which
    case the caller keeps the raw terminus.
    """
    z = seed
    best: complex | None = None
    best_res = math.inf
    for _ in range(240):
        w, deriv = _orbit(c, z, period)
        g = w - z
        if abs(g) < best_res:
            best, best_res = z, abs(g)
        gprime = deriv - 1
        if abs(gprime) < 1e-300:
            break
        step = g / gprime
        z -= step
        if abs(z) > 1e6 or abs(z - seed) > 1.0:
            return None
        if abs(step) < 1e-12 * (1 + abs(z)):
            return z
    # Multiple roots stall on evaluation noise before the step test fires;
    # the smallest-residual iterate is then the honest answer.
    if best is not None and best_res < 1e-9:
        return best
    return None


@dataclass(frozen=True)
class LavrentievResult:
    """One crosscut-diameter experiment on the slit-plane model."""

    center: float
    radius: float
    crosscut_diam: float
    image_diam: float
    bound: float
    holds: bool
    margin: float


# crosscuts whose images _results computes at once
_CHUNK_ROWS = 32


def _cmul(ar, ai, br, bi):
    """CPython's complex product, zero terms kept."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(ar, ai, br, bi):
    """CPython's complex quotient for |br| >= |bi|, Smith's branch on br."""
    ratio = bi / br
    return (ar + ai * ratio) / (denom := br + bi * ratio), (ai - ar * ratio) / denom


def _crosscut_images(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """A row per crosscut: g(v) = (1 - sqrt(1 - 4 v^2)) / (2 v) on the arc,
    then its upper-edge limit at x = x1 + (x2 - x1) k / 200, k = 0..200."""
    import numpy as np

    # Open arc only, 0 < k < 200: at psi = 0 or pi the point is exactly
    # real, where the principal square root jumps to the lower edge; the
    # edge row gives the endpoint values.
    arc = np.array([cmath.exp(1j * (math.pi * k / 200)) for k in range(1, 200)])
    center, radius = ((x1 + x2) / 2)[:, None], ((x2 - x1) / 2)[:, None]
    zr, zi = _cmul(radius, 0.0, arc.real, arc.imag)
    vr, vi = center + zr, 0.0 + zi
    wr, wi = _cmul(*_cmul(4.0, 0.0, vr, vi), vr, vi)
    ur, ui = 1.0 - wr, 0.0 - wi  # cmath.sqrt(u) is (s, d) or (d, s), signed as ui
    ax, right = abs(ur) / 8.0, ur >= 0.0
    s = 2.0 * np.sqrt(ax + np.hypot(ax, abs(ui) / 8.0))
    d = abs(ui) / (2.0 * s)
    sr, si = np.where(right, s, d), np.copysign(np.where(right, d, s), ui)
    arc_re, arc_im = _cdiv(1.0 - sr, 0.0 - si, *_cmul(2.0, 0.0, vr, vi))
    # (1 + sign i sqrt(4 x^2 - 1)) / (2 x), where an admissible crosscut's
    # last x is at most |x2|, so 4 x^2 - 1 >= 0
    x = x1[:, None] + (x2 - x1)[:, None] * np.arange(201.0) / 200
    sign = _cmul(np.where(x > 0, 1.0, -1.0), 0.0, 0.0, 1.0)
    nr, ni = _cmul(*sign, np.sqrt(4.0 * x * x - 1.0), 0.0)
    edge_re, edge_im = _cdiv(1.0 + nr, 0.0 + ni, 2.0 * x, 0.0)
    re, im = np.hstack([arc_re, edge_re]), np.hstack([arc_im, edge_im])
    return np.stack([re, im], axis=-1).view(complex)[..., 0]


def _diameters(pts: np.ndarray) -> np.ndarray:
    """The image diameter of each row (see lavrentiev_check), its kept samples
    first; a skipped one within the widest row's width changes nothing."""
    import numpy as np

    with np.errstate(invalid="ignore"):
        r = np.abs(pts - pts.mean(axis=1, keepdims=True))
        far = np.take_along_axis(pts, r.argmax(axis=1)[:, None], axis=1)
        d0 = np.abs(pts - far).max(axis=1, keepdims=True)
        keep = ~((r + r.max(axis=1, keepdims=True)) * (1 + 1e-9) < d0)
        order = np.argsort(~keep, axis=1, kind="stable")[:, : keep.sum(axis=1).max()]
        pts = np.take_along_axis(pts, order, axis=1)
        diam = np.zeros(len(pts))
        for i in range(0, pts.shape[1], 64):
            block = np.abs(pts[:, None, i:] - pts[:, i : i + 64, None])
            diam = np.maximum(diam, block.max(axis=(1, 2)))
    return diam


def _crosscut(endpoints: tuple[float, float], distance: float) -> tuple:
    """(x1, x2, center, radius, diam, bound) of an admissible crosscut."""
    x1, x2 = sorted(endpoints)
    if not (x1 * x2 > 0 and 0.5 <= min(abs(x1), abs(x2)) and math.isfinite(x2 - x1)):
        raise InvariantError("endpoints must be finite, on a single slit, |x| >= 1/2")
    if max(abs(x1), abs(x2)) > 2.0**510:
        raise InvariantError("endpoints must have |x| <= 2^510, where 4 x^2 is finite")
    center, radius = (x1 + x2) / 2, (x2 - x1) / 2
    if radius <= 0:
        raise InvariantError("degenerate crosscut")
    true_gap = abs(center) - radius
    if not 0 < distance <= true_gap:
        raise InvariantError(
            f"distance {distance} is not a lower bound for the true gap {true_gap}"
        )
    diam = 2 * radius
    eps = math.sqrt(diam)
    if eps * eps >= distance / 4:
        raise InvariantError("precondition requires diam(crosscut) < distance/4")
    return x1, x2, center, radius, diam, 30 * eps / math.sqrt(distance)


def _results(crosscuts: list[tuple]) -> list[LavrentievResult]:
    """The result of each _crosscut tuple, _CHUNK_ROWS images at a time."""
    import numpy as np

    image_diams = []
    for i in range(0, len(crosscuts), _CHUNK_ROWS):
        x1, x2 = np.array([cut[:2] for cut in crosscuts[i : i + _CHUNK_ROWS]]).T
        image_diams += _diameters(_crosscut_images(x1, x2)).tolist()
    return [
        LavrentievResult(center, radius, diam, d, bound, d <= bound, bound - d)
        for (_, _, center, radius, diam, bound), d in zip(crosscuts, image_diams)
    ]


def lavrentiev_check(
    endpoints: tuple[float, float], distance: float
) -> LavrentievResult:
    """Check the crosscut-diameter inequality on one semicircular crosscut.

    The crosscut is the upper semicircle joining the two real endpoints,
    which must sit on one slit of the model domain with |x| <= 2^510; the
    region it cuts off is the open upper half-disk.  distance is the
    caller's lower bound M for the gap between the crosscut and the base
    point 0; with eps^2 the crosscut diameter, the precondition eps^2 < M/4
    must hold and the image diameter is compared against 30*eps/sqrt(M).
    The image is sampled in 200 equal steps along the arc and along the
    slit edge, on float arrays with one row per crosscut.

    Each sample is the float of CPython's complex arithmetic, written out:
    a real operand becomes (x, 0.0); a product is (ar br - ai bi, ar bi +
    ai br), zero terms kept; a quotient is Smith's on the divisor's real
    part, the larger (2x, or 2v with Re v > 8 radius >= Im v); cmath.sqrt
    is 2 sqrt(|x|/8 + hypot(|x|/8, |y|/8)), branched on the sign of x.
    numpy's sqrt and hypot are the correctly rounded and libm calls cmath
    makes, no ufunc fuses two operations, and no special case of cmath
    arises (|x| <= 2^510 keeps all finite, Im v >= radius sin(pi/200)).

    The image diameter is the float of the full pairwise maximum, taken
    over fewer samples.  With r_i = |p_i - g| for the centroid g, r_max the
    largest r_i and d0 the largest distance from the sample of r_max, a
    sample with (r_i + r_max)(1 + 1e-9) < d0 is skipped: its pairs are at
    most r_i + r_max long, below d0 by the 1e-9 margin, far beyond the few
    ulps of a computed distance.  Both samples of the d0 pair are kept, so
    the maximum over the kept samples is the full one; as |p - q| and
    |q - p| agree bit for bit, half the pairs suffice.  A NaN fails every
    comparison, so it keeps every sample and a NaN diameter.
    """
    return _results([_crosscut(endpoints, distance)])[0]


def lavrentiev_monte_carlo(
    count: int = 100, seed: int = 20240801
) -> list[LavrentievResult]:
    """Run the crosscut check on random admissible semicircular crosscuts.

    Crosscut centers and diameters are drawn log-uniformly, mirrored onto
    both slits, and rejected until the precondition and slit constraints
    hold; the draw is deterministic for a given seed.  Each result is
    lavrentiev_check's on its draw."""
    if count < 1:
        raise InvariantError("need at least one crosscut")
    rng = random.Random(seed)
    crosscuts: list[tuple] = []
    while len(crosscuts) < count:
        s = 0.5 + 10 ** rng.uniform(-1.5, 0.5)
        eps = 10 ** rng.uniform(-3.0, -0.7)
        radius = eps * eps / 2
        distance = s - eps
        if distance <= 0 or eps * eps >= distance / 4:
            continue
        if s - radius < 0.5:
            continue
        if rng.random() < 0.5:
            pair = (-(s + radius), -(s - radius))
        else:
            pair = (s - radius, s + radius)
        crosscuts.append(_crosscut(pair, distance))
    return _results(crosscuts)
