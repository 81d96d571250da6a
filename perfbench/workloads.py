"""Seeded cases for the four workloads, with how to run, check and fingerprint each.

A workload is an endless sequence of rounds.  Every round has the same
composition (kinds, orders, resolutions, sizes); the seed and the round
number only choose the angles, parameters and rationals inside it, and the
order of the cases, so runs of any length and any seed measure the same mix.
``run`` is the timed request; ``check`` compares its output with an oracle
from ``oracles`` and ``fingerprint`` reduces it to what the reference file
records.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import shutil
from fractions import Fraction
from pathlib import Path

import oracles
from oracles import require

WORKLOADS = ("siegel", "exact", "render", "cli")

# quaddyn modules each workload calls; setup_s imports exactly these.
MODULES = {
    "siegel": ["linearize", "cfrac"],
    "exact": ["cantor", "cardioid", "cfrac", "angles", "combdomain", "imaging"],
    "render": ["dynamics", "imaging", "cfrac"],
    "cli": ["cli", "angles", "cardioid", "cantor", "cfrac", "combdomain",
            "dynamics", "imaging", "linearize"],
}

GOLDEN, SILVER = ((), (1,)), ((), (2,))


# -- seeded inputs ------------------------------------------------------------


def _bounded(rng: random.Random) -> dict:
    """Bounded-type angle: quotients 1-3, pre-period 0-3, period 1-3."""
    pre = [rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
    per = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    return {"pre": pre, "per": per}


def _coprime(rng: random.Random, q_lo: int, q_hi: int) -> tuple[int, int]:
    q = rng.randint(q_lo, q_hi)
    p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
    return p, q


def _domain(rng: random.Random) -> dict:
    """a_k = A - m^-k increasing from 0, b_k = B + m^-k decreasing below 1."""
    m = rng.choice([4, 5])
    return {"a": [str(Fraction(1, m) + Fraction(rng.randint(0, 3), 60)), m],
            "b": [rng.choice(["1/3", "2/5", "3/8"]), m]}


def _ray_angle(rng: random.Random, c_name: str, odd: bool) -> list[int]:
    while True:
        q = rng.randint(3, 31)
        if (q % 2 == 1) != odd:
            continue
        # At c = -2 the rays of dyadic angles k/2^m (m >= 2) land on the
        # critical point or its preimages, where trace_ray raises
        # PrecisionError; see the known-failure ledger in NOTES.md.
        if c_name == "-2" and q & (q - 1) == 0:
            continue
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        return [p, q]


def _siegel_round(rng: random.Random) -> list[dict]:
    # Class sizes put the median at the middle of the order-128 residual
    # checks (as many cases cost more as cost less) and p75 at the middle of
    # the order-256 ratio rows.
    cases = [{"kind": "radius", "order": o, "angle": _bounded(rng)} for o in (512, 256, 128)]
    cases += [{"kind": "residual", "order": 128, "angle": _bounded(rng)} for _ in range(9)]
    # C08 rows: n runs over fixed values, so that the perturbation index
    # q_n + 1 (where the coefficients jump by 2^q_n) falls inside the order
    # for every row, and the cost of a row does not depend on the seed.
    for order, ns in ((256, (3, 4, 5, 6) * 2), (128, (3, 4, 5) * 4)):
        cases += [{"kind": "ratio_row", "order": order, "n": n,
                   "prefix": [rng.randint(1, 2) for _ in range(6)]} for n in ns]
    return cases


def _exact_round(rng: random.Random) -> list[dict]:
    cases = [{"kind": "semiconj", "count": 200, "angle": {"pre": list(a), "per": list(b)}}
             for a, b in (GOLDEN, SILVER)]
    cases += [{"kind": "semiconj", "count": n, "angle": _bounded(rng)} for n in (100, 100, 50, 50)]
    cases += [{"kind": "raster", "res": res, "depth": rng.randint(4, 8), "domain": _domain(rng)}
              for res in (128,) * 5 + (rng.choice([64, 80, 96]), rng.choice([64, 80, 96]))]
    cases += [{"kind": "landing", "pq": _coprime(rng, 2, 39)} for _ in range(26)]
    cases += [{"kind": "orbit", "pq": _coprime(rng, 2, 12 if i % 2 else 39)} for i in range(15)]
    cases += [{"kind": "cover", "depth": rng.randint(8, 16), "angle": _bounded(rng)} for _ in range(10)]
    cases += [{"kind": "membership", "angle": _bounded(rng),
               "point": [rng.randint(0, q - 1), q]} for q in [rng.randint(3, 200) for _ in range(15)]]
    cases += [{"kind": "external", "n": rng.randint(16, 64), "angle": _bounded(rng)} for _ in range(40)]
    cases += [{"kind": "brjuno", "terms": rng.randint(20, 60), "angle": _bounded(rng)} for _ in range(8)]
    cases += [{"kind": "gamma", "n": rng.randint(1, 8), "domain": _domain(rng)} for _ in range(6)]
    cases += [{"kind": "impression", "k": rng.randint(1, 8), "domain": _domain(rng)} for _ in range(6)]
    return cases


def _cardioid_c(rng: random.Random) -> list[float]:
    angle = _bounded(rng)
    theta = oracles.theta_float(tuple(angle["pre"]), tuple(angle["per"]))
    lam = complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta))
    c = lam / 2 - lam * lam / 4
    return [c.real, c.imag]


def _render_round(rng: random.Random) -> list[dict]:
    def outside():
        r, phi = rng.uniform(2.05, 3.0), rng.uniform(0, 2 * math.pi)
        return [r * math.cos(phi), r * math.sin(phi)]

    def real():
        return [rng.choice([0.0, -2.0, -1.0, -0.75]) if rng.random() < 0.25
                else round(rng.uniform(-2.0, 0.25), 6), 0.0]

    renders = [(8, [0.0, 0.0]), (8, [-2.0, 0.0]), (8, _cardioid_c(rng)), (8, _cardioid_c(rng)), (8, outside())]
    renders += [(7, _cardioid_c(rng)), (7, _cardioid_c(rng)), (7, real()), (7, real()), (7, outside())]
    renders += [(6, _cardioid_c(rng)), (6, _cardioid_c(rng)), (6, real()), (6, real()), (6, outside())]
    cases = [{"kind": "render", "res": res, "c": c} for res, c in renders]
    for name in ("0", "-2", "-1", "cardioid"):
        for i in range(5):
            c = {"0": [0.0, 0.0], "-2": [-2.0, 0.0], "-1": [-1.0, 0.0]}.get(name) or _cardioid_c(rng)
            cases.append({"kind": "ray", "c": c, "angle": _ray_angle(rng, name, i % 2 == 0)})
    while sum(case["kind"] == "lavrentiev" for case in cases) < 6:
        s, eps = 0.5 + 10 ** rng.uniform(-1.5, 0.5), 10 ** rng.uniform(-3.0, -0.7)
        radius, distance = eps * eps / 2, s - eps
        if distance <= 0 or eps * eps >= distance / 4 or s - radius < 0.5:
            continue
        pair = [s - radius, s + radius] if rng.random() < 0.5 else [-(s + radius), -(s - radius)]
        cases.append({"kind": "lavrentiev", "endpoints": pair, "distance": distance})
    return cases


def _cf_text(angle: dict) -> str:
    return ",".join(map(str, angle["pre"])) + ":rep=" + ",".join(map(str, angle["per"]))


def _cli_round(rng: random.Random) -> list[dict]:
    def pq(lo=2, hi=20):
        p, q = _coprime(rng, lo, hi)
        return f"{p}/{q}"

    argvs = [
        ["angle", "--cf", _cf_text(_bounded(rng)), "--prec", str(rng.randint(16, 32))],
        ["angle", "--cf", _cf_text(_bounded(rng)), "--prec", str(rng.randint(16, 32))],
        ["angle", "--value", pq(3, 40), "--steps", str(rng.randint(4, 12))],
        ["orbit", "--pq", pq()],
        ["orbit", "--pq", pq()],
        ["landing-pair", "--pq", pq(2, 30)],
        ["landing-pair", "--pq", pq(2, 30)],
        ["cantor", "--cf", _cf_text(_bounded(rng)), "--depth", str(rng.randint(4, 10))],
        ["cantor", "--cf", _cf_text(_bounded(rng)), "--depth", str(rng.randint(4, 10))],
        ["brjuno", "--cf", _cf_text(_bounded(rng)), "--terms", str(rng.randint(20, 60))],
        ["cf", "--value", pq(3, 400)],
        ["cf", "--cf", _cf_text(_bounded(rng)), "--count", str(rng.randint(6, 16))],
        ["radius", "--cf", _cf_text(_bounded(rng)), "--order", "80"],
        ["radius", "--cf", _cf_text(_bounded(rng)), "--order", "80"],
        ["ratio-experiment", "--prefix", ",".join(str(rng.randint(1, 2)) for _ in range(4)),
         "--A", "2", "--n", "3..4", "--order", "48"],
        ["julia", "--c", "%.4f,%.4f" % tuple(_cardioid_c(rng)), "--res", str(rng.randint(4, 6))],
        ["julia", "--c", "%.4f,0" % rng.uniform(-2.0, 0.25), "--res", str(rng.randint(4, 6))],
        ["ray", "--c", "-2,0", "--angle", "%d/%d" % tuple(_ray_angle(rng, "-2", rng.random() < 0.5))],
        ["ray", "--c", rng.choice(["0", "-1,0"]), "--angle", pq(3, 15)],
        ["ray", "--c", "%.6f,%.6f" % tuple(_cardioid_c(rng)), "--angle", pq(3, 15)],
        ["omega", "--depth", str(rng.randint(2, 4)), "--res", str(rng.choice([16, 32, 48, 64]))],
        ["lavrentiev", "--count", str(rng.randint(10, 30)), "--seed", str(rng.randint(1, 10**6))],
    ]
    cases = [{"kind": "cli", "argv": a, "expect": 0} for a in argvs]
    p, q = _coprime(rng, 3, 20)
    k = rng.randint(2, 4)
    cases += [
        {"kind": "cli", "argv": ["landing-pair", "--pq", rng.choice([f"{p}-{q}", f"{p}", "a/b"])], "expect": 2},
        {"kind": "cli", "argv": ["orbit", "--pq", f"{k * p}/{k * q}"], "expect": 4},
        {"kind": "cli", "argv": ["julia", "--c", "0", "--res", rng.choice(["0", "15", "-1"])], "expect": 4},
    ]
    for i, case in enumerate(cases):
        if i % 2:
            case["argv"] = case["argv"] + ["--json"]
    return cases


_ROUNDS = {"siegel": _siegel_round, "exact": _exact_round, "render": _render_round, "cli": _cli_round}


def round_cases(workload: str, seed: int, index: int) -> list[dict]:
    """The cases of one round; ids are stable for a given seed."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    cases = _ROUNDS[workload](rng)
    # Spread every class over the round, so that a slow spell of the host
    # lands on a mix of cases rather than on one class.
    rng.shuffle(cases)
    for i, case in enumerate(cases):
        case["id"] = f"{index}.{i}.{case['kind']}"
    return cases


# -- shared helpers ------------------------------------------------------------


def _q(name: str):
    return importlib.import_module("quaddyn." + name)


def _cf(angle: dict):
    return _q("cfrac").CFExpansion(tuple(angle["pre"]), tuple(angle["per"]))


def _angle_terms(angle: dict) -> tuple[tuple, tuple]:
    """(pre, per) of an angle spec; perturbed ones insert floor(2^q_n),
    with q_n <= 169 for the drawn prefixes, so every small divisor up to
    order 512 stays above the 2^-248 floor of 256-bit work."""
    if "perturb" in angle:
        prefix = tuple(angle["perturb"])
        q_n = oracles.convergents(prefix, (1,), len(prefix))[-1][1]
        return prefix + (2**q_n,), (1,)
    return tuple(angle["pre"]), tuple(angle["per"])


def _mp(x) -> str:
    from mpmath import nstr

    return nstr(x, 25)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _domain_obj(spec: dict):
    cd = _q("combdomain")
    (a_const, a_base), (b_const, b_base) = spec["a"], spec["b"]
    return cd.OmegaDomain(cd.parse_sequence_expr(f"{a_const}-{a_base}^-k"),
                          cd.parse_sequence_expr(f"{b_const}+{b_base}^-k"))


def _domain_terms(spec: dict):
    (a_const, a_base), (b_const, b_base) = spec["a"], spec["b"]
    return (lambda k: oracles.seq_term(Fraction(a_const), -1, a_base, k),
            lambda k: oracles.seq_term(Fraction(b_const), 1, b_base, k))


# -- siegel --------------------------------------------------------------------


def _check_series(series, angle: dict) -> None:
    """b_1 = 1, the multiplier, and the C06 identity b_2 = 1/(lam^2 - lam)."""
    from mpmath import mp, mpf

    pre, per = _angle_terms(angle)
    with mp.workprec(256):
        lam = mp.expjpi(2 * oracles.theta_mpf(pre, per, 256))
        require(abs(series.lam - lam) < mpf(2) ** -200, "multiplier differs from exp(2 pi i theta)")
        require(series.coeffs[0] == 1, "b_1 != 1")
        b2 = 1 / (lam * lam - lam)
        require(abs(series.coeffs[1] - b2) <= mpf("1e-60") * abs(b2), "b_2 != 1/(lam^2 - lam)")


def run_radius(case):
    lin = _q("linearize")
    series = lin.linearization_coeffs(_cf(case["angle"]), case["order"], prec=256)
    est = lin.conformal_radius_estimate(series)
    return series, est, lin.inner_radius_probe(series, est.r_hat)


def check_radius(case, out):
    series, est, probe = out
    _check_series(series, case["angle"])
    require(series.order == case["order"] and est.r_hat > 0, "bad order or radius")
    if est.reliable and not probe.tail_flagged:
        require(0.99 * est.r_hat / 4 <= probe.value <= 1.01 * est.r_hat,
                "Koebe sandwich r/4 <= min|phi| <= r violated")


def fp_radius(case, out):
    series, est, probe = out
    return {"mp": {"r_hat": _mp(est.r_hat), "half": _mp(est.half_order), "probe": _mp(probe.value),
                   "b_N": _mp(abs(series.coeffs[-1]))},
            "exact": {"reliable": est.reliable, "flagged": probe.tail_flagged}}


def run_residual(case):
    lin = _q("linearize")
    series = lin.linearization_coeffs(_cf(case["angle"]), case["order"], prec=256)
    est = lin.conformal_radius_estimate(series)
    return series, est, lin.functional_residual(series, est.r_hat)


def check_residual(case, out):
    series, est, residual = out
    _check_series(series, case["angle"])
    require(residual < 1e-10, f"functional residual {float(residual):.2e} above the C06 bound 1e-10")


def fp_residual(case, out):
    return {"mp": {"r_hat": _mp(out[1].r_hat)}, "exact": {"below_1e-10": bool(out[2] < 1e-10)}}


def run_ratio_row(case):
    lin, cfrac = _q("linearize"), _q("cfrac")
    base = cfrac.CFExpansion(tuple(case["prefix"]), (1,))
    member = cfrac.perturbed_cf(base.prefix(case["n"]), 2)
    series = lin.linearization_coeffs(member, case["order"], prec=256)
    est = lin.conformal_radius_estimate(series)
    return member, series, est, est.r_hat * 2


def check_ratio_row(case, out):
    member, series, est, scaled = out
    prefix = tuple(case["prefix"][: case["n"]])
    angle = {"perturb": list(prefix)}
    pre, per = _angle_terms(angle)
    require(member.quotients == pre and member.tail == per, "perturbed expansion differs")
    _check_series(series, angle)
    require(est.r_hat > 0 and scaled == 2 * est.r_hat, "bad scaled radius")


def fp_ratio_row(case, out):
    return {"mp": {"r_hat": _mp(out[2].r_hat)}, "exact": {"reliable": out[2].reliable}}


# -- exact ---------------------------------------------------------------------


def run_semiconj(case):
    return _q("cantor").semiconjugacy_check(_cf(case["angle"]), case["count"])


def check_semiconj(case, report):
    require(report.count == case["count"], "wrong orbit length")
    require(report.passed and report.undecided_pairs == 0,
            "doubling and rotation orbits are not in the same cyclic order")


def fp_semiconj(case, report):
    return {"exact": {"passed": report.passed, "exponent": report.alpha_exponent,
                      "first": report.first_violation, "max_width": str(report.max_width)}}


def run_raster(case):
    return _q("imaging").domain_image(_domain_obj(case["domain"]), case["depth"], case["res"])


_RASTER_COLORS = {"inside": (245, 245, 245), "outside": (24, 32, 96), "undecided": (252, 180, 60)}


def check_raster(case, rgb):
    res, depth = case["res"], case["depth"]
    require(rgb.shape == (res, res, 3), "wrong raster shape")
    a_of, b_of = _domain_terms(case["domain"])
    rng = random.Random(case["id"])
    span, lo = Fraction(12, 5), Fraction(-6, 5)
    for _ in range(200):
        ix, iy = rng.randrange(res), rng.randrange(res)
        x = lo + span * Fraction(2 * ix + 1, 2 * res)
        y = lo + span * Fraction(2 * iy + 1, 2 * res)
        want = _RASTER_COLORS[oracles.in_domain(a_of, b_of, depth, x, y)]
        require(tuple(rgb[res - 1 - iy, ix]) == want, f"pixel ({ix}, {iy}) misclassified")


def fp_raster(case, rgb):
    return {"exact": {"sha256": _sha(rgb.tobytes())}}


def run_landing(case):
    return _q("cardioid").landing_pair(*case["pq"])


def check_landing(case, pair):
    want = oracles.landing_pair(*case["pq"])
    require((pair[0].fraction, pair[1].fraction) == want, f"landing pair differs from closed form {want}")


def fp_landing(case, pair):
    return {"exact": {"pair": [str(a) for a in pair]}}


def run_orbit(case):
    return _q("cardioid").find_orbit(*case["pq"])


def check_orbit(case, orbit):
    p, q = case["pq"]
    nums = [a.fraction for a in orbit.angles]
    oracles.check_cycle(nums, p, q)
    gaps = [((nums[(i + 1) % q] - nums[i]) % 1, i) for i in range(q)]
    i = min(gaps)[1]
    require((nums[i], nums[(i + 1) % q]) == oracles.landing_pair(p, q), "minimal gap is not the landing pair")
    if q <= 12:
        m = (1 << q) - 1
        scanned = _q("cardioid").scan_orbits(q)[Fraction(p, q)]
        require(scanned == [tuple(int(x * m) for x in nums)], "orbit differs from the exhaustive scan")


def fp_orbit(case, orbit):
    return {"exact": {"angles": [str(a) for a in orbit.angles]}}


def run_cover(case):
    return _q("cantor").cover(_cf(case["angle"]), case["depth"])


def check_cover(case, cov):
    arcs = cov.arcs
    require(len(arcs) >= 1 and cov.hausdorff_bound == Fraction(1, 2 ** case["depth"]), "bad cover header")
    for a, b in zip(arcs, arcs[1:]):
        require(a.lo < b.lo and a.hi < b.lo, "cover arcs overlap or are unsorted")
    if len(arcs) > 1:
        require(arcs[-1].hi - 1 < arcs[0].lo, "cover arcs overlap across zero")
    for a in arcs:
        require(a.width > 0, "empty arc")
        for x in (a.lo, a.hi):
            den = x.denominator
            require(den & (den - 1) == 0, "arc endpoint is not dyadic")
    pre, per = _angle_terms(case["angle"])
    alpha = oracles.external_angle(pre, per, 2 * case["depth"] + 40)[0]
    near = any(((alpha - a.lo) % 1 <= a.width + cov.hausdorff_bound)
               or ((a.lo - alpha) % 1 <= cov.hausdorff_bound) for a in arcs)
    require(near, "alpha is not within the Hausdorff bound of the cover")


def fp_cover(case, cov):
    text = ";".join(f"{a.lo},{a.hi}" for a in cov.arcs)
    return {"exact": {"arcs": _sha(text.encode()), "count": len(cov.arcs)}}


def run_membership(case):
    cantor = _q("cantor")
    arc = cantor.build_arc(_cf(case["angle"]), 64)
    return cantor.membership(Fraction(*case["point"]), arc, 64)


def check_membership(case, verdict):
    pre, per = _angle_terms(case["angle"])
    alpha = oracles.external_angle(pre, per, 80)[0]
    want = oracles.membership(Fraction(*case["point"]), alpha, 64, Fraction(1, 2**56))
    if want is not None:
        require(verdict.value == want, f"membership {verdict.value}, oracle {want}")


def fp_membership(case, verdict):
    return {"exact": {"verdict": verdict.value}}


def run_external(case):
    return _q("cardioid").external_angle(_cf(case["angle"]), case["n"])


def check_external(case, result):
    pre, per = _angle_terms(case["angle"])
    want, count = oracles.external_angle(pre, per, case["n"])
    require(result.approx.fraction == want and len(result.iterates) == count,
            "external angle differs from the closed-form convergent run")
    require(result.bound == Fraction(1, 2 ** (case["n"] - 1)), "wrong bound")


def fp_external(case, result):
    return {"exact": {"approx": str(result.approx), "iterates": len(result.iterates)}}


def run_brjuno(case):
    return _q("cfrac").brjuno_partial_sums(_cf(case["angle"]), case["terms"], 128)


def check_brjuno(case, sums):
    pre, per = _angle_terms(case["angle"])
    require(len(sums) == case["terms"], "wrong number of partial sums")
    require(all(b >= a for a, b in zip(sums, sums[1:])), "partial sums decrease")
    total, weight = 0.0, 1.0
    for k in range(case["terms"]):
        t = oracles.theta_float(pre, per, k)
        total += weight * math.log(1 / t)
        weight *= t
    require(abs(float(sums[-1]) - total) <= 1e-9 * total, "Brjuno sum differs from the float recurrence")


def fp_brjuno(case, sums):
    return {"mp": {"last": _mp(sums[-1])}}


def run_gamma(case):
    return _q("combdomain").build_gamma_n(_domain_obj(case["domain"]), case["n"])


def check_gamma(case, verts):
    n = case["n"]
    require(verts[0] == (-1, 1), "loop does not start at the top-left corner")
    for p, q in zip(verts, verts[1:] + verts[:1]):
        require(p != q and (p[0] == q[0] or p[1] == q[1]), "loop is not rectilinear")
    a_of, b_of = _domain_terms(case["domain"])
    floor = Fraction(1, 3**n)
    require((-b_of(n), floor) in verts and (b_of(n), floor) in verts, "floor segment missing")
    for k in range(1, n + 1):
        require((a_of(k), Fraction(1, 3**k) * 3) in verts, f"left slat of slab {k} missing")


def fp_gamma(case, verts):
    return {"exact": {"verts": _sha(repr([(str(x), str(y)) for x, y in verts]).encode())}}


def run_impression(case):
    return _q("combdomain").impression_segments(_domain_obj(case["domain"]), case["k"])


def check_impression(case, segs):
    a_of, b_of = _domain_terms(case["domain"])
    a, b, zero = a_of(case["k"]), b_of(case["k"]), Fraction(0)
    inner, outer = segs
    require((inner.start, inner.end) == ((-a, zero), (a, zero)), "inner segment differs")
    require((outer.start, outer.end) == ((-b, zero), (b, zero)), "outer segment differs")


def fp_impression(case, segs):
    return {"exact": {"segs": [str(s.end[0]) for s in segs]}}


# -- render --------------------------------------------------------------------


def run_render(case):
    dyn, img = _q("dynamics"), _q("imaging")
    grid = dyn.render_julia(complex(*case["c"]), case["res"])
    return grid, img.ppm_bytes(img.classification_image(grid.cells))


def check_render(case, out):
    import numpy as np

    grid, data = out
    cells, c, h = grid.cells, complex(*case["c"]), 2.0 ** -case["res"]
    side = cells.shape[0]
    require(side == round(5.0 / h) and set(np.unique(cells)) <= {0, 1, 2}, "bad cell grid")
    require(len(data) == len(b"P6\n%d %d\n255\n" % (side, side)) + 3 * side * side, "bad PPM size")
    require(np.array_equal(cells, cells[::-1, ::-1]), "grid breaks the z -> -z symmetry")
    if c.imag == 0:
        require(np.array_equal(cells, cells[::-1, :]), "grid breaks conjugation symmetry for real c")
    model = oracles.julia_model(c)
    if model is not None:
        hd = oracles.hausdorff(grid.near_points(), model)
        require(hd <= 2 * h, f"near cells {hd:.4f} from the known Julia set (C09 bound {2 * h:.4f})")


def fp_render(case, out):
    return {"exact": {"ppm": _sha(out[1]), "counts": out[0].counts()}}


def run_ray(case):
    return _q("dynamics").trace_ray(complex(*case["c"]), Fraction(*case["angle"]))


def check_ray(case, ray):
    c, angle = complex(*case["c"]), Fraction(*case["angle"])
    t = ray.potentials
    require(all(b < a for a, b in zip(t, t[1:])) and t[-1] <= 1e-6 * (1 + 1e-9), "potentials not descending to t_min")
    require(all(math.isfinite(z.real) and math.isfinite(z.imag) for z in ray.points), "non-finite ray point")
    want = oracles.landing_point(c, angle)
    if c == 0:
        dev = max(abs(z - abs(z) * want) for z in ray.points)
        require(dev < 1e-9, f"ray at c = 0 leaves its radius by {dev:.1e} (C10)")
    if want is not None:
        tol = 1e-3 if c == -2 else 1e-5
        require(abs(ray.landing_estimate - want) < tol, "landing point differs from the closed form (C10)")
    elif angle.denominator % 2:
        # A periodic angle lands on a periodic point: f^p(z) = z, up to the
        # rounding the cycle's multiplier amplifies.
        z, deriv = ray.landing_estimate, 1
        for _ in range(oracles.doubling_period(angle)):
            z, deriv = z * z + c, 2 * z * deriv
        gap = abs(z - ray.landing_estimate)
        require(gap <= 1e-6 * max(1.0, abs(deriv)), f"periodic landing point misses its cycle by {gap:.1e}")
    else:
        require(abs(ray.landing_estimate) <= 2 + abs(c), "landing estimate outside the escape disk")


def fp_ray(case, ray):
    z, end = ray.landing_estimate, ray.points[-1]
    return {"ray": {"land": [z.real, z.imag], "end": [end.real, end.imag]},
            "exact": {"points": len(ray.points)}}


def run_lavrentiev(case):
    return _q("dynamics").lavrentiev_check(tuple(case["endpoints"]), case["distance"])


def check_lavrentiev(case, res):
    x1, x2 = sorted(case["endpoints"])
    bound = 30 * math.sqrt(x2 - x1) / math.sqrt(case["distance"])
    require(math.isclose(res.bound, bound, rel_tol=1e-12), "bound differs from 30 eps / sqrt(M)")
    require(res.holds and res.image_diam <= bound and res.image_diam > 0, "crosscut inequality fails")


def fp_lavrentiev(case, res):
    return {"ray": {"image_diam": [res.image_diam]}}


# -- cli -----------------------------------------------------------------------

WORK_DIR: Path | None = None


def run_cli(case):
    out_dir = WORK_DIR / case["id"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = _q("cli").main(case["argv"] + ["--out", str(out_dir)])
    return code, stdout.getvalue(), stderr.getvalue(), out_dir


def check_cli(case, out):
    code, stdout, stderr, out_dir = out
    require(code == case["expect"], f"exit code {code}, expected {case['expect']}")
    if code != 0:
        err = json.loads(stderr)
        require(isinstance(err, dict) and {"error", "message"} <= set(err), "error is not a JSON object")
        return
    if "--json" in case["argv"]:
        require(isinstance(json.loads(stdout), dict), "--json output is not a JSON object")
    manifest = json.loads((out_dir / f"{case['argv'][0]}-manifest.json").read_text())
    require(manifest["artifacts"], "manifest lists no artifacts")
    for rec in manifest["artifacts"]:
        data = (out_dir / rec["name"]).read_bytes()
        require(_sha(data) == rec["sha256"] and len(data) == rec["bytes"], f"digest of {rec['name']} differs")


def fp_cli(case, out):
    code, _, _, out_dir = out
    digests = {}
    if code == 0:
        manifest = json.loads((out_dir / f"{case['argv'][0]}-manifest.json").read_text())
        digests = {rec["name"]: rec["sha256"] for rec in manifest["artifacts"]}
    return {"exact": {"code": code, "artifacts": digests}}


def cli_artifact_bytes(out) -> int:
    return sum(f.stat().st_size for f in out[3].glob("*") if not f.name.endswith("-manifest.json")) if out[3].exists() else 0


def cleanup(case, out) -> None:
    if case["kind"] == "cli":
        shutil.rmtree(out[3], ignore_errors=True)


KINDS = {name: (globals()["run_" + name], globals()["check_" + name], globals()["fp_" + name])
         for name in ("radius", "residual", "ratio_row", "semiconj", "raster", "landing", "orbit",
                      "cover", "membership", "external", "brjuno", "gamma", "impression",
                      "render", "ray", "lavrentiev", "cli")}


# -- reference fingerprints --------------------------------------------------------

MP_REL_TOL = 1e-10  # a fixed-point kernel at 256 bits agrees to ~1e-70
RAY_ABS_TOL = 1e-9


def compare(now: dict, ref: dict) -> None:
    from mpmath import mpf

    require(set(now) == set(ref), "fingerprint fields differ")
    require(now.get("exact") == ref.get("exact"), f"exact output differs: {now.get('exact')} vs {ref.get('exact')}")
    for key, value in now.get("mp", {}).items():
        a, b = mpf(value), mpf(ref["mp"][key])
        require(abs(a - b) <= MP_REL_TOL * abs(b), f"{key} differs from reference beyond {MP_REL_TOL}")
    for key, values in now.get("ray", {}).items():
        for a, b in zip(values, ref["ray"][key]):
            require(abs(a - b) <= RAY_ABS_TOL, f"{key} differs from reference beyond {RAY_ABS_TOL}")


def corrupt(case, out):
    """A deliberately wrong version of an output, for the self-check."""
    import dataclasses

    kind = case["kind"]
    if kind in ("radius", "residual"):
        series, est, extra = out
        coeffs = list(series.coeffs)
        coeffs[1] = coeffs[1] * 1.001
        return dataclasses.replace(series, coeffs=tuple(coeffs)), est, extra
    if kind == "ratio_row":
        member, series, est, scaled = out
        return member, series, est, scaled * 1.01
    if kind == "semiconj":
        return dataclasses.replace(out, passed=False)
    if kind == "raster":
        bad = out.copy()
        bad[:] = 0
        return bad
    if kind == "landing":
        return out[1], out[0]
    if kind == "orbit":
        return dataclasses.replace(out, angles=out.angles[1:] + out.angles[:1])
    if kind == "cover":
        arcs = out.arcs
        return dataclasses.replace(out, arcs=arcs[:1] + arcs[:1] + arcs[1:])
    if kind == "membership":
        verdicts = list(type(out))
        return verdicts[(verdicts.index(out) + 1) % 2]
    if kind == "external":
        return dataclasses.replace(out, approx=type(out.approx)(out.approx.fraction + Fraction(1, 2**80)))
    if kind == "brjuno":
        return out[:-1] + [out[-1] * 1.01]
    if kind == "gamma":
        return out[1:]
    if kind == "impression":
        return out[1], out[0]
    if kind == "render":
        grid, data = out
        cells = grid.cells.copy()
        cells[0, 1] = 1 if cells[0, 1] != 1 else 0
        return dataclasses.replace(grid, cells=cells), data
    if kind == "ray":
        return dataclasses.replace(out, landing_estimate=out.landing_estimate + 0.01 + 0.1j)
    if kind == "lavrentiev":
        return dataclasses.replace(out, bound=out.bound * 2)
    if kind == "cli":
        code, stdout, stderr, out_dir = out
        return (1 if code == 0 else 0), stdout, stderr, out_dir
    raise KeyError(kind)
