"""Julia rendering, external rays, and the slit-plane crosscut experiment."""

import cmath
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from quaddyn import dynamics
from quaddyn.dynamics import (
    BORDERLINE,
    FAR,
    MAX_JULIA_RES,
    NEAR,
    _CHUNK_ROWS,
    _crosscut_images,
    _diameters,
    _doubled_angle,
    hausdorff_distance,
    lavrentiev_check,
    lavrentiev_monte_carlo,
    render_julia,
    trace_ray,
)
from quaddyn.errors import InvariantError, PrecisionError


def cardioid_parameter(theta: Fraction) -> complex:
    """Parameter c on the main cardioid with internal angle theta."""
    lam = cmath.exp(2j * math.pi * theta)
    return lam / 2 - lam * lam / 4


def test_cardioid_parameter_rational_landmarks():
    assert cardioid_parameter(Fraction(0)) == pytest.approx(0.25)
    assert cardioid_parameter(Fraction(1, 2)) == pytest.approx(-0.75)
    third = cardioid_parameter(Fraction(1, 3))
    assert third == pytest.approx(-0.125 + 0.6495190528383290j, abs=1e-12)


def test_render_rejects_bad_resolution():
    tracemalloc.start()
    try:
        for n in (0, MAX_JULIA_RES + 1, 14, 15):
            with pytest.raises(InvariantError):
                render_julia(0j, n)
        # refused before either side^2 grid is allocated
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("max_iter", [0, -5])
def test_render_needs_an_iteration(max_iter):
    # no iteration leaves every cell borderline, a grid that says nothing
    with pytest.raises(InvariantError):
        render_julia(0j, 3, max_iter=max_iter)


def _masked_render_cells(c, n, max_iter, safety=4.0):
    """The renderer's former escape loop, kept as the oracle: boolean masks
    over the whole grid on every iteration, two side^2 complex grids."""
    h = 2.0**-n
    side = int(round(5.0 / h))
    xs = -2.5 + (np.arange(side) + 0.5) * h
    z = (xs[None, :] + 1j * xs[:, None]).astype(np.complex128)
    dz = np.ones_like(z)
    alive = np.ones(z.shape, dtype=bool)
    for _ in range(max_iter):
        zz = z[alive]
        dz[alive] *= 2 * zz
        z[alive] = zz * zz + c
        alive[alive] = np.abs(z[alive]) <= 1e10
        if not alive.any():
            break
    escaped = ~alive
    cells = np.full(z.shape, BORDERLINE, dtype=np.int8)
    mag = np.abs(z[escaped])
    grad = np.abs(dz[escaped])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d_est = mag * np.log(mag) / np.maximum(grad, 1e-300)
    esc_class = np.full(d_est.shape, BORDERLINE, dtype=np.int8)
    esc_class[d_est >= 2 * safety * h] = FAR
    esc_class[d_est <= h] = NEAR
    cells[escaped] = esc_class
    neighbor_escaped = np.zeros_like(alive)
    neighbor_escaped[1:, :] |= escaped[:-1, :]
    neighbor_escaped[:-1, :] |= escaped[1:, :]
    neighbor_escaped[:, 1:] |= escaped[:, :-1]
    neighbor_escaped[:, :-1] |= escaped[:, 1:]
    cells[alive & neighbor_escaped] = NEAR
    return cells


@pytest.mark.parametrize(
    "c",
    [
        0j,
        -2 + 0j,
        -0.75 + 0j,
        0.3 + 0.5j,
        -0.12 + 0.75j,
        2 + 2j,
        # a signed zero, a near-real and a parabolic parameter for the mirror
        complex(-1, -0.0),
        1e-300j,
        0.25 + 0j,
    ],
    ids=repr,
)
def test_render_matches_masked_oracle(c):
    # res 6, 7 and 8 span 2, 7 and 26 bands of the default band size
    for n in range(1, 9):
        for max_iter in (1, 7, 128):
            cells = render_julia(c, n, max_iter=max_iter).cells
            assert np.array_equal(cells, _masked_render_cells(c, n, max_iter)), (n, max_iter)


@pytest.mark.parametrize("band_pixels", [1, 100, 1000, 5000])
def test_render_band_edges_keep_the_neighbor_rule(monkeypatch, band_pixels):
    # bands of one row and of a few rows put band edges through the set
    monkeypatch.setattr(dynamics, "_BAND_PIXELS", band_pixels)
    for c in (0j, -1 + 0j, -0.12 + 0.75j):
        for n, max_iter, safety in ((4, 64, 4.0), (5, 16, 1.0), (6, 128, 2.5)):
            cells = render_julia(c, n, max_iter=max_iter, safety=safety).cells
            oracle = _masked_render_cells(c, n, max_iter, safety)
            assert np.array_equal(cells, oracle), (c, n)


def test_render_working_set_is_bounded():
    # the masked oracle peaks at about 127 MB: two 1280^2 complex grids and copies
    tracemalloc.start()
    try:
        render_julia(0j, 8)
        assert tracemalloc.get_traced_memory()[1] < 32 * 2**20
    finally:
        tracemalloc.stop()


def test_render_circle_oracle():
    grid = render_julia(0j, 6, max_iter=96)
    near = grid.near_points()
    circle = np.exp(2j * np.pi * np.arange(2048) / 2048)
    assert hausdorff_distance(near, circle) <= 2 * 2.0**-6


def test_render_segment_oracle():
    grid = render_julia(-2 + 0j, 6, max_iter=96)
    near = grid.near_points()
    segment = np.linspace(-2.0, 2.0, 4096) + 0j
    assert hausdorff_distance(near, segment) <= 2 * 2.0**-6


def test_render_conjugation_symmetry_for_real_parameter():
    grid = render_julia(-1 + 0j, 5, max_iter=64)
    assert np.array_equal(grid.cells, grid.cells[::-1])


def test_render_interior_stays_borderline():
    grid = render_julia(0j, 5, max_iter=64)
    centers = grid.centers()
    deep = np.abs(centers) < 0.5
    assert np.all(grid.cells[deep] == BORDERLINE)


def test_hausdorff_point_set_basics():
    assert hausdorff_distance([0j, 1j], [0j, 1j]) == 0.0
    assert hausdorff_distance([0j], [3 + 0j]) == 3.0
    assert hausdorff_distance([0j, 1 + 0j], [0j]) == 1.0
    for empty, other in (([], [0j]), ([0j], []), (np.empty((0, 2)), np.zeros((3, 2)))):
        with pytest.raises(InvariantError):
            hausdorff_distance(empty, other)


def _pairwise_hausdorff(a, b):
    """Brute force over complex lists: every pairwise distance, no index."""
    d_ab = max(min(abs(x - y) for y in b) for x in a)
    d_ba = max(min(abs(x - y) for x in a) for y in b)
    return max(d_ab, d_ba)


@pytest.mark.parametrize("sizes", [(1, 1), (1, 9), (7, 7), (5, 40), (33, 12)])
def test_hausdorff_matches_pairwise_oracle(sizes):
    # the same seeded sets as complex lists and as N x 2 arrays
    rng = random.Random(sum(sizes))
    a, b = (
        [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        for n in sizes
    )
    want = _pairwise_hausdorff(a, b)
    as_rows = [np.array([[z.real, z.imag] for z in pts]) for pts in (a, b)]
    assert hausdorff_distance(a, b) == pytest.approx(want, rel=1e-12)
    assert hausdorff_distance(*as_rows) == pytest.approx(want, rel=1e-12)
    assert hausdorff_distance(b, a) == pytest.approx(want, rel=1e-12)


def test_hausdorff_blocks_match_one_matrix():
    # 2100 x 1000 distances take three blocks of rows; one full matrix is
    # the oracle, in both orders and both input forms
    rng = np.random.default_rng(7)
    a = rng.uniform(-2, 2, 2100) + 1j * rng.uniform(-2, 2, 2100)
    b = rng.uniform(-2, 2, 1000) + 1j * rng.uniform(-2, 2, 1000)
    full = abs(a[:, None] - b)
    want = max(full.min(axis=1).max(), full.min(axis=0).max())
    assert hausdorff_distance(a, b) == want
    assert hausdorff_distance(b, a) == want
    assert hausdorff_distance(np.column_stack([a.real, a.imag]), b) == want


def test_hausdorff_triangle_inequality():
    rng = random.Random(5)
    for _ in range(25):
        sets = [
            [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6)]
            for _ in range(3)
        ]
        a, b, c = sets
        assert hausdorff_distance(a, c) <= (
            hausdorff_distance(a, b) + hausdorff_distance(b, c) + 1e-12
        )


def _oracle_newton_forward(c, seed, m, target):
    """The former Newton solve, kept as the oracle: it recomputes the orbit
    and derivative of the accepted point on the next iteration."""
    z = seed
    for _ in range(60):
        value, deriv = z, complex(1.0)
        for _ in range(m):
            deriv = 2 * value * deriv
            value = value * value + c
        err = value - target
        if abs(err) < 1e-13 * (1 + abs(target)):
            return z
        if deriv == 0:
            break
        step = err / deriv
        scale = 1.0
        base = abs(err)
        while scale > 2.0**-8:
            cand = z - scale * step
            value2 = cand
            for _ in range(m):
                value2 = value2 * value2 + c
            if abs(value2 - target) < base:
                break
            scale /= 2
        else:
            break
        z = z - scale * step
        if abs(scale * step) < 1e-14 * (1 + abs(z)):
            return z
    raise PrecisionError("ray correction did not converge")


def _former_newton_forward(c, seed, m, target):
    """The solve before the orbit was carried between solves, kept as the
    oracle of the point it returns: it computes the seed's orbit itself."""

    def orbit(z):
        value, deriv = z, complex(1.0)
        for _ in range(m):
            deriv = 2 * value * deriv
            value = value * value + c
        return value, deriv

    z = seed
    try:
        value, deriv = orbit(z)
        for _ in range(60):
            err = value - target
            if abs(err) < 1e-13 * (1 + abs(target)):
                return z
            if deriv == 0:
                break
            step = err / deriv
            scale = 1.0
            base = abs(err)
            trial = z - scale * step
            if trial == z:
                break
            value2, deriv2 = orbit(trial)
            if not abs(value2 - target) < base:
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
                return z
            value, deriv = (value2, deriv2) if scale == 1.0 else orbit(z)
    except OverflowError:
        pass
    raise PrecisionError("ray correction did not converge")


def _carried_newton_forward(c, seed, m, target):
    """_newton_forward from the seed's orbit; the orbit it hands back must
    be the one the former solve computes for its point, with the int 2."""
    z, orbit = dynamics._newton_forward(c, seed, m, target, dynamics._orbit(c, seed, m))
    if orbit is not None:
        value, deriv = z, complex(1.0)
        for _ in range(m):
            deriv = 2 * value * deriv
            value = value * value + c
        assert repr(orbit) == repr((value, deriv)), (c, seed, m, target)
    return z


def _newton_outcome(solve, *args):
    try:
        return repr(solve(*args))
    except (PrecisionError, OverflowError) as exc:
        return repr(exc)


def test_newton_forward_matches_oracle_from_far_seeds():
    # seeds far from the solution: damped steps, failed line searches, and
    # orbits that overflow to inf or NaN or past what abs() can return; the
    # oracle lets that last OverflowError out, the solver reports it as a
    # failed correction, as the former solve did
    rng = random.Random(15)
    failed = repr(PrecisionError("ray correction did not converge"))
    outcomes, carried = set(), 0
    for _ in range(3000):
        c = complex(rng.uniform(-2, 0.5), rng.uniform(-1.2, 1.2))
        m = rng.randint(0, 12)
        seed = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        target = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        args = (c, seed, m, target)
        want = _newton_outcome(_oracle_newton_forward, *args)
        outcomes.add(want.split("(")[0])
        if want.startswith("OverflowError"):
            want = failed
        assert _newton_outcome(_former_newton_forward, *args) == want, args
        assert _newton_outcome(_carried_newton_forward, *args) == want, args
        carried += not want.startswith("PrecisionError")
    assert outcomes >= {"PrecisionError", "OverflowError"}
    assert carried > 100


def _oracle_trace_ray(c, alpha, t_min=1e-6):
    """The former ladder, kept as the oracle: Fraction arithmetic for the
    doubled angle at every solve, and the oracle Newton solve."""
    t0 = math.log(1e4)

    def doubled(m):
        if isinstance(alpha, Fraction):
            return float((alpha * 2**m) % 1)
        return math.fmod(math.fmod(alpha, 1.0) * 2.0**m, 1.0)

    def point_at(t, seed):
        m = max(0, math.ceil(math.log2(t0 / t) - 1e-12))
        target = dynamics._ray_target(c, (2.0**m) * t, doubled(m))
        if seed is None:
            return target
        return _oracle_newton_forward(c, seed, m, target)

    def advance(z_from, t_from, t_to, depth):
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
    points, potentials, t = [point_at(t0, None)], [t0], t0
    while t > t_min:
        t_next = max(t * ratio, t_min * (1 - 1e-12))
        points.append(advance(points[-1], t, t_next, depth=16))
        potentials.append(t_next)
        t = t_next
    landing = points[-1]
    if isinstance(alpha, Fraction):
        period = dynamics._angle_period(alpha)
        if period is not None:
            refined = dynamics._refine_periodic_landing(c, landing, period)
            if refined is not None:
                landing = refined
    return dynamics.RayTrace(tuple(points), tuple(potentials), landing)


def _assert_ray_matches_oracle(c, angle, t_min=1e-6):
    got, want = trace_ray(c, angle, t_min=t_min), _oracle_trace_ray(c, angle, t_min)
    assert got == want, (c, angle)
    # repr tells signed zeros apart, which == does not
    assert repr(got) == repr(want), (c, angle)


BOUNDED_TYPE_C = cardioid_parameter((math.sqrt(5) - 1) / 2)


@pytest.mark.parametrize(
    "c", [0j, -1 + 0j, -0.75 + 0j, 0.25 + 0j, -0.12 + 0.75j, BOUNDED_TYPE_C], ids=repr
)
def test_trace_ray_matches_oracle_for_small_denominators(c):
    # every p/q with q <= 16, down to potential 1e-2: full and damped line
    # searches, and failed ones whose solves bisect the ladder step; the
    # deeper ladder is covered by the test below
    for angle in sorted({Fraction(p, q) for q in range(1, 17) for p in range(q)}):
        _assert_ray_matches_oracle(c, angle, t_min=1e-2)


def test_trace_ray_matches_oracle_to_the_default_potential():
    c_values = (0j, -0.75 + 0j, 0.25 + 0j, -0.12 + 0.75j, BOUNDED_TYPE_C)
    for c in c_values:
        for angle in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 12), Fraction(11, 16)):
            _assert_ray_matches_oracle(c, angle)
    # non-dyadic angles at c = -2, whose rays miss the critical orbit
    angles = {Fraction(p, q) for q in (3, 5, 6, 7, 9, 12, 15) for p in range(q)}
    for angle in sorted(a for a in angles if a.denominator & (a.denominator - 1)):
        _assert_ray_matches_oracle(-2 + 0j, angle)
    for angle in (0.3, 1e308):
        _assert_ray_matches_oracle(0j, angle)
        _assert_ray_matches_oracle(-0.12 + 0.75j, angle)
    # the rays of criterion C10
    for angle in (Fraction(0), Fraction(1, 2)):
        _assert_ray_matches_oracle(-2 + 0j, angle)
    for angle in (Fraction(1, 7), Fraction(1, 3), Fraction(3, 8)):
        _assert_ray_matches_oracle(0j, angle)


def _cli_draw_rays(rng):
    """The rays of one round of the benchmark's cli workload: c = -2 with a
    non-dyadic p/q, q <= 31; c = 0 or -1 with p/q, q <= 15; and a cardioid
    c of a bounded-type angle written with six decimals."""
    def coprime(lo, hi, keep=lambda q: True):
        q = rng.choice([q for q in range(lo, hi + 1) if keep(q)])
        return Fraction(rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1]), q)

    theta = (math.sqrt(5) - 1) / 2 / rng.randint(1, 3) + rng.randint(0, 3) / 7
    c = cardioid_parameter(theta % 1)
    return [
        (-2 + 0j, coprime(3, 31, lambda q: q & (q - 1))),
        (rng.choice([0j, -1 + 0j]), coprime(3, 15)),
        (complex(float(f"{c.real:.6f}"), float(f"{c.imag:.6f}")), coprime(3, 15)),
    ]


def test_trace_ray_matches_oracle_on_the_cli_draw():
    # the rays every perfbench cli round traces, float angles, and more
    # than one t_min; each solve reuses the orbit the one before computed
    rng = random.Random(28)
    for _ in range(10):
        for c, angle in _cli_draw_rays(rng):
            _assert_ray_matches_oracle(c, angle)
    for c in (0j, -1 + 0j, -0.12 + 0.75j, -1.7 + 0.01j):
        for angle in (rng.random(), 1 / 3, 0.1):
            for t_min in (0.5, 1e-3, 1e-8):
                _assert_ray_matches_oracle(c, angle, t_min)


@pytest.mark.parametrize(
    "angle", [Fraction(1, 4), Fraction(1, 8), Fraction(3, 8), Fraction(5, 16)], ids=str
)
def test_trace_ray_stalls_like_the_oracle(angle):
    # dyadic rays at c = -2 land on the critical orbit, where precision runs out
    with pytest.raises(PrecisionError) as want:
        _oracle_trace_ray(-2 + 0j, angle)
    with pytest.raises(PrecisionError) as got:
        trace_ray(-2 + 0j, angle)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("ray stalled near potential")


def test_trace_ray_radial_for_squaring_map():
    ray = trace_ray(0j, Fraction(1, 8), t_min=1e-8)
    for z, t in zip(ray.points, ray.potentials):
        assert abs(z - abs(z) * cmath.exp(2j * math.pi / 8)) < 1e-9
        assert abs(abs(z) - math.exp(t)) < 1e-9 * math.exp(t)


def test_trace_ray_potentials_strictly_decreasing():
    ray = trace_ray(-1 + 0j, Fraction(1, 3), t_min=1e-5)
    assert all(b < a for a, b in zip(ray.potentials, ray.potentials[1:]))
    assert ray.potentials[-1] <= 1e-5 * (1 + 1e-9)


def _check_lift(ray_src, ray_dst, c, steps):
    hits = 0
    for k in range(steps, len(ray_src.points)):
        t_half, t_full = ray_src.potentials[k], ray_dst.potentials[k - steps]
        if abs(t_full - 2 * t_half) > 1e-9 * t_full:
            continue
        image = ray_src.points[k] ** 2 + c
        target = ray_dst.points[k - steps]
        assert abs(image - target) <= 1e-6 * (1 + abs(target))
        hits += 1
    assert hits >= len(ray_src.points) - steps - 2


def test_trace_ray_lift_relation_fixed_angle():
    # The zero ray maps to itself under the dynamics, one halving step up.
    c = -2 + 0j
    ray = trace_ray(c, Fraction(0), t_min=1e-6)
    _check_lift(ray, ray, c, 8)


def test_trace_ray_lift_relation_doubled_angle():
    c = 1j
    src = trace_ray(c, Fraction(1, 6), t_min=1e-3)
    dst = trace_ray(c, Fraction(1, 3), t_min=1e-3)
    _check_lift(src, dst, c, 8)


def test_doubled_angle_reduces_before_scaling():
    # reducing mod 1 first is exact, so it matches doubling the whole angle
    # wherever that does not overflow
    rng = random.Random(2014)
    for _ in range(2000):
        angle = rng.choice((1, -1)) * rng.random() * 10.0 ** rng.randint(-3, 200)
        m = rng.randint(0, 60)
        whole = math.fmod(angle * 2.0**m, 1.0)
        assert _doubled_angle(angle, m) == whole
        assert math.copysign(1, _doubled_angle(angle, m)) == math.copysign(1, whole)
    assert _doubled_angle(1e308, 60) == 0.0


def test_ray_landing_on_real_slit():
    tip = trace_ray(-2 + 0j, Fraction(0), t_min=1e-6)
    assert abs(tip.points[-1] - 2) < 1e-3
    assert abs(tip.landing_estimate - 2) < 1e-9
    other = trace_ray(-2 + 0j, Fraction(1, 2), t_min=1e-6)
    assert abs(other.points[-1] + 2) < 1e-3


def test_parabolic_triple_rays_meet_at_the_fixed_point():
    # Raw termini crawl at a cube-root-of-log rate; the polished estimates
    # must agree with each other and with the indifferent fixed point.
    c = cardioid_parameter(Fraction(1, 3))
    alpha_fp = (1 - cmath.sqrt(1 - 4 * c)) / 2
    estimates = [
        trace_ray(c, Fraction(k, 7), t_min=1e-4).landing_estimate for k in (1, 2, 4)
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(estimates[i] - estimates[j]) < 1e-2
    for z in estimates:
        assert abs(z - alpha_fp) < 5e-4


def test_ray_landing_polish_stops_above_period_64():
    # 1/(2^67 - 1) has period 67, past the cap: the raw terminus stands.
    capped = trace_ray(-1 + 0j, Fraction(1, 2**67 - 1))
    assert capped.landing_estimate == capped.points[-1]
    # 1/7 has period 3: the terminus is polished onto a 3-cycle.
    polished = trace_ray(-1 + 0j, Fraction(1, 7))
    assert polished.landing_estimate != polished.points[-1]
    z = w = polished.landing_estimate
    for _ in range(3):
        w = w * w - 1
    assert abs(w - z) < 1e-12


def test_trace_ray_argument_validation():
    with pytest.raises(InvariantError):
        trace_ray(0j, Fraction(1, 3), t_min=0.0)
    # t_min above the start potential log 1e4
    with pytest.raises(InvariantError):
        trace_ray(0j, Fraction(1, 3), t_min=10)


def disk_to_slit(u: complex) -> complex:
    """Riemann map of the unit disk onto the plane slit along |x| >= 1/2."""
    return u / (1 + u * u)


def slit_to_disk(v: complex) -> complex:
    """Inverse Riemann map of the doubly slit plane, vanishing at 0: the
    former per-point formula of the arc samples, kept as the oracle."""
    if v == 0:
        return 0j
    return (1 - cmath.sqrt(1 - 4 * v * v)) / (2 * v)


def test_slit_disk_maps_are_inverse():
    rng = random.Random(3)
    for _ in range(60):
        u = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
        assert abs(slit_to_disk(disk_to_slit(u)) - u) < 1e-12
    assert slit_to_disk(0) == 0
    # the batched samples lie on the unit disk's image of the crosscut: the
    # arc at center + radius e^(i pi k / 200), the edge at its x
    pairs = [(1.0, 1.2), (-0.9, -0.6), (0.5, 0.55), (3.0, 3.5)]
    for (x1, x2), image in zip(pairs, _images(pairs)):
        center, radius = (x1 + x2) / 2, (x2 - x1) / 2
        for k, u in enumerate(image):
            if k < 199:
                v = center + radius * cmath.exp(1j * math.pi * (k + 1) / 200)
            else:
                v = x1 + (x2 - x1) * (k - 199) / 200
            assert abs(disk_to_slit(u) - v) < 1e-9 and abs(u) <= 1 + 1e-12, (x1, x2, k)


def _oracle_slit_edge_to_disk(x, upper):
    """The former per-point edge formula: the boundary value of the disk
    map on the slit edge approached from above (upper) or below.  The
    branch flips across zero because the principal square root is
    approached from opposite imaginary sides."""
    root = math.sqrt(4 * x * x - 1)
    sign = (1.0 if upper else -1.0) * (1.0 if x > 0 else -1.0)
    return (1 + sign * 1j * root) / (2 * x)


def _images(pairs):
    return _crosscut_images(*(np.array(col, dtype=float) for col in zip(*pairs)))


def _cpython_ops(a, b):
    """The products and quotients the image samples make, by CPython on
    complex numbers, with a real operand promoted to (x, 0.0)."""
    return a * b, a / b, a * b.real, a / b.real


def test_complex_primitives_match_cpython():
    # zero, negative, tiny and huge parts, whose products overflow
    rng = random.Random(28)
    parts = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e-300, 1e300]
    a = [complex(rng.choice(parts), rng.choice(parts)) for _ in range(400)]
    b = [complex(rng.choice(parts), rng.choice(parts)) for _ in range(400)]
    a += [complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10 ** rng.uniform(-9, 9) for _ in range(2000)]
    b += [complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10 ** rng.uniform(-9, 9) for _ in range(2000)]
    # the quotients' domain in the image samples: a divisor whose real part
    # is the larger and not 0
    pairs = [(x, y) for x, y in zip(a, b) if abs(y.real) >= abs(y.imag) and y.real]
    a, b = zip(*pairs)
    ar, ai = np.array([x.real for x in a]), np.array([x.imag for x in a])
    br, bi = np.array([y.real for y in b]), np.array([y.imag for y in b])
    with np.errstate(all="ignore"):  # products of 1e300 overflow
        got = [
            dynamics._cmul(ar, ai, br, bi),
            dynamics._cdiv(ar, ai, br, bi),
            dynamics._cmul(ar, ai, br, 0.0),
            dynamics._cdiv(ar, ai, br, 0.0),
        ]
    assert any(y.imag == 0 for y in b) and any(x.real < 0 for x in a)
    for k, (x, y) in enumerate(pairs):
        here = [complex(re[k], im[k]) for re, im in got]
        assert repr(here) == repr(list(_cpython_ops(x, y))), (x, y)


def test_slit_edge_values_match_upper_limits():
    # the first edge sample of a crosscut is its left endpoint, exactly
    xs = (0.75, 1.0, 2.0, -0.75, -1.0, -2.0)
    edge = _images([(x, x + 0.1) for x in xs])[:, 199]
    for x, value in zip(xs, edge):
        assert value == _oracle_slit_edge_to_disk(x, upper=True)
        assert abs(slit_to_disk(x + 1e-9j) - value) < 1e-7
        assert abs(value) <= 1 + 1e-12


def test_lavrentiev_unit_crosscut_reference():
    result = lavrentiev_check((1.09995, 1.10005), distance=1.0)
    assert result.crosscut_diam == pytest.approx(1e-4, rel=1e-9)
    assert result.bound == pytest.approx(0.3, rel=1e-9)
    assert result.image_diam < 0.05
    assert result.holds


def test_lavrentiev_bound_scales_as_square_root():
    # Shrinking the crosscut diameter a hundredfold tightens the bound
    # exactly tenfold.
    wide = lavrentiev_check((1.09995, 1.10005), distance=1.0)
    narrow = lavrentiev_check((1.0999995, 1.1000005), distance=1.0)
    assert wide.bound / narrow.bound == pytest.approx(10.0, rel=1e-5)
    assert narrow.holds


def test_lavrentiev_rejects_bad_crosscuts():
    with pytest.raises(InvariantError):
        lavrentiev_check((-0.6, 0.7), distance=0.1)
    with pytest.raises(InvariantError):
        lavrentiev_check((0.3, 0.6), distance=0.1)
    with pytest.raises(InvariantError):
        lavrentiev_check((0.9, 1.1), distance=0.95)
    with pytest.raises(InvariantError):
        lavrentiev_check((1.0, 1.5), distance=0.9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    # NaN passes every comparison-based range guard, and inf turns the
    # crosscut geometry into NaN, so both must be refused up front
    for endpoints, distance in (((1.0, 1.1), bad), ((bad, 1.1), 0.01), ((1.0, bad), 0.01)):
        with pytest.raises(InvariantError):
            lavrentiev_check(endpoints, distance)
    for c in (complex(bad, 0), complex(0, bad)):
        with pytest.raises(InvariantError):
            render_julia(c, 3)
    with pytest.raises(InvariantError):
        render_julia(0j, 3, safety=bad)
    for c in (complex(bad, 0), complex(0, bad)):
        with pytest.raises(InvariantError):
            trace_ray(c, Fraction(1, 3))
    with pytest.raises(InvariantError):
        trace_ray(0j, Fraction(1, 3), t_min=bad)
    with pytest.raises(InvariantError):
        trace_ray(0j, bad)


def test_lavrentiev_monte_carlo_deterministic_and_clean():
    first = lavrentiev_monte_carlo(count=25, seed=7)
    second = lavrentiev_monte_carlo(count=25, seed=7)
    assert first == second
    assert all(r.holds for r in first)
    assert any(r.center < 0 for r in first)
    assert any(r.center > 0 for r in first)


def _pairwise_diameter(pts):
    """Full pairwise maximum, the oracle of the blocked diameter."""
    return float(np.abs(pts[None, :] - pts[:, None]).max())


def _record_draws(monkeypatch):
    """Record the (endpoints, distance) of every crosscut the Monte Carlo
    checks, at the per-draw check it shares with lavrentiev_check."""
    draws, check = [], dynamics._crosscut

    def recorded(endpoints, distance):
        draws.append((endpoints, distance))
        return check(endpoints, distance)

    monkeypatch.setattr(dynamics, "_crosscut", recorded)
    return draws


def test_lavrentiev_diameter_matches_pairwise_oracle(monkeypatch):
    rng = random.Random(11)
    for _ in range(20):
        s = 0.5 + 10 ** rng.uniform(-1.5, 0.5)
        eps = 10 ** rng.uniform(-3.0, -0.9)
        pair = (s - eps * eps / 2, s + eps * eps / 2)
        if rng.random() < 0.5:
            pair = (-pair[1], -pair[0])
        result = lavrentiev_check(pair, s - eps)
        assert result.image_diam == _pairwise_diameter(_oracle_crosscut_image(*pair))

    draws = _record_draws(monkeypatch)
    results = lavrentiev_monte_carlo(100)
    assert len(results) == len(draws) == 100
    for result, (endpoints, _) in zip(results, draws):
        x1, x2 = sorted(endpoints)
        assert result.image_diam == _pairwise_diameter(_oracle_crosscut_image(x1, x2))


def _oracle_crosscut_image(x1, x2):
    """The former per-point sampler, kept as the oracle: one cmath.exp per
    arc point."""
    center, radius, samples = (x1 + x2) / 2, (x2 - x1) / 2, 200
    image = []
    for k in range(1, samples):
        psi = math.pi * k / samples
        image.append(slit_to_disk(center + radius * cmath.exp(1j * psi)))
    for k in range(samples + 1):
        x = x1 + (x2 - x1) * k / samples
        image.append(_oracle_slit_edge_to_disk(x, upper=True))
    return np.array(image)


def _assert_images_match_oracle(pairs):
    for pair, row in zip(pairs, _images(pairs)):
        assert row.tobytes() == _oracle_crosscut_image(*pair).tobytes(), pair


def test_crosscut_image_matches_per_point_oracle(monkeypatch):
    draws = _record_draws(monkeypatch)
    lavrentiev_monte_carlo(100)
    assert len(draws) == 100
    _assert_images_match_oracle([sorted(endpoints) for endpoints, _ in draws])


def _edge_crosscuts():
    """Admissible crosscuts at the ends of the model: an endpoint at |x| =
    1/2, both slits, radii from 1e-12 of the centre up, |x| up to 1e6 and
    2^510, each with a distance that passes the checks."""
    pairs = []
    for x in (0.5, 0.5 + 2.0**-52, 0.75, 1.0, 3.7, 1e3, 1e6, 2.0**510 / (1 + 1e-3)):
        for rel in (1e-12, 1e-9, 1e-6, 1e-3, 0.02):
            x1, x2 = (x, x * (1 + rel)) if x < 0.6 else (x * (1 - rel), x)
            for pair in ((x1, x2), (-x2, -x1)):
                gap = min(map(abs, pair))
                pairs.append((pair, gap / 2 if rel < 1e-6 else gap * (1 - 1e-9)))
    return pairs


def test_crosscut_images_match_per_point_oracle_on_edge_crosscuts():
    cuts = _edge_crosscuts()
    for pair, distance in cuts:
        lavrentiev_check(pair, distance)  # each is admissible
    _assert_images_match_oracle([pair for pair, _ in cuts])
    # the first edge sample is the endpoint at 1/2, where the root is 0
    assert _images([(0.5, 0.5 + 1e-6)])[0, 199] == 1 + 0j
    assert _images([(-0.5 - 1e-6, -0.5)])[0, 399] == -1 + 0j


def test_lavrentiev_refuses_endpoints_past_two_to_the_510():
    big = 2.0**511
    with pytest.raises(InvariantError, match="2\\^510"):
        lavrentiev_check((big, big * (1 + 1e-12)), big / 2)
    lavrentiev_check((2.0**510 * (1 - 1e-12), 2.0**510), 2.0**509)


@pytest.mark.parametrize(
    "count", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 5]
)
def test_monte_carlo_equals_single_checks(monkeypatch, count):
    draws = _record_draws(monkeypatch)
    results = lavrentiev_monte_carlo(count, seed=count)
    assert len(draws) == count
    monkeypatch.undo()
    assert repr(results) == repr([lavrentiev_check(*draw) for draw in draws])


def test_edge_crosscut_checks_equal_one_batch():
    cuts = _edge_crosscuts()
    batch = dynamics._results([dynamics._crosscut(*cut) for cut in cuts])
    assert repr(batch) == repr([lavrentiev_check(*cut) for cut in cuts])
    for result, (pair, _) in zip(batch, cuts):
        assert result.image_diam == _pairwise_diameter(_oracle_crosscut_image(*sorted(pair)))


def test_lavrentiev_working_set_is_bounded_and_quiet():
    # the --count ceiling; the centroid pruning keeps about 62 of the 400
    # samples of a Monte Carlo image, so a chunk's pairwise blocks are small
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = lavrentiev_monte_carlo(4096)
        assert tracemalloc.get_traced_memory()[1] < 16 * 2**20
    finally:
        tracemalloc.stop()
    assert len(results) == 4096 and all(r.holds for r in results)


def _clouds():
    rng = np.random.default_rng(15)
    circle = 0.3 - 2j + 1.7 * np.exp(2j * np.pi * rng.random(400))
    radius, angle = np.sqrt(rng.random(400)), 2 * np.pi * rng.random(400)
    return {
        # every point lies near the centroid's farthest distance, so
        # pruning keeps most of them
        "circle": circle,
        "duplicates": np.repeat(circle[:7], 9),
        "one-point": np.array([0.5 + 0.25j] * 5),
        "two-points": np.array([1e-3 + 2j, -4.5 + 0.125j]),
        "disk": radius * np.exp(1j * angle),
        "crosscut": _images([(1.09995, 1.10005)])[0],
    }


@pytest.mark.parametrize("name", list(_clouds()))
def test_pruned_diameter_matches_pairwise_oracle(name):
    pts = _clouds()[name]
    assert _diameters(pts[None])[0] == _pairwise_diameter(pts)
    assert _diameters(pts[None, ::-1])[0] == _pairwise_diameter(pts)


def test_pruned_diameter_keeps_a_nan():
    # one batch: the NaN row keeps every sample, the others are padded to
    # its width and keep their own diameters
    clouds = _clouds()
    rows = np.array([clouds["circle"], clouds["disk"], clouds["crosscut"]])
    rows[1, 17] = complex(math.nan, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        diam = _diameters(rows)
    assert math.isnan(diam[1])
    assert diam[0] == _pairwise_diameter(rows[0])
    assert diam[2] == _pairwise_diameter(rows[2])
