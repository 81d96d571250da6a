"""Command-line front end.

Every subcommand writes its results as files (JSON for structure, CSV for
tables, P6 pixmaps for images) into the output directory together with a
run manifest listing each artifact and its SHA-256 digest.  Outputs are
deterministic for fixed parameters.  Exit codes: 0 success, 2 usage,
3 precision exhaustion, 4 invariant violation; failures also print a
machine-readable JSON object on stderr and write nothing.  The size knobs
are bounded by the CEILINGS table, checked once, after the precision is
resolved and before the handler runs (exit 4).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import InvariantError, PrecisionError

PREC_ENV = "QUADDYN_PREC"


# working precision of the commands that have one when neither --prec nor
# $QUADDYN_PREC is given; cantor's grows with the depth, set by its handler
_DEFAULT_PREC = {
    "angle": 64, "brjuno": 128, "cf": 64, "radius": 256, "ratio-experiment": 256
}

# the ceiling of each size knob by command and argparse dest, each from a
# measured cost (the README table); _main checks them before dispatch
CEILINGS = {
    "angle": {"steps": 100_000, "prec": 16_384}, "brjuno": {"terms": 10_000, "prec": 2048},
    "cantor": {"depth": 1000, "prec": 4096}, "cf": {"count": 10_000, "prec": 16_384},
    "julia": {"max_iter": 1024}, "lavrentiev": {"count": 4096}, "omega": {"depth": 128},
    "radius": {"order": 1024, "prec": 2048},
    "ratio-experiment": {"n": 30, "order": 512, "prec": 1024},
}
# budgets of values parsed from strings, checked by their handlers
MAX_ORBIT_PERIOD = 4096  # the q of orbit --pq
MAX_ANGLE_VALUE_COST = 2**25  # the cost budget of angle --value


def _resolve_prec(args: argparse.Namespace) -> int | None:
    """The effective precision: --prec, then $QUADDYN_PREC, then the default."""
    prec, env = args.prec, os.environ.get(PREC_ENV)
    if prec is None and env:
        try:
            prec = int(env)
        except ValueError as exc:
            raise InvariantError(f"{PREC_ENV} must be an integer, got {env!r}") from exc
    if prec is not None and prec < 1:
        raise InvariantError(f"precision must be at least 1 bit, got {prec}")
    return prec if prec is not None else _DEFAULT_PREC.get(args.command)


def _parse_pq(text: str) -> tuple[int, int]:
    try:
        p_str, q_str = text.split("/")
        return int(p_str), int(q_str)
    except ValueError:
        raise ValueError(f"expected p/q, got {text!r}") from None


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValueError(f"expected re[,im], got {text!r}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_angle_arg(text: str) -> "Fraction | float":
    if "/" in text:
        return _parse_fraction(text)
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return Fraction(int(text))


def _parse_range(text: str) -> "range | list[int]":
    """--n: lo..hi as a range, which builds no list, or a comma list."""
    if ".." in text:
        lo_str, hi_str = text.split("..", 1)
        lo, hi = int(lo_str), int(hi_str)
        if not 1 <= lo <= hi:
            raise InvariantError(f"--n needs 1 <= lo <= hi, got {text!r}")
        return range(lo, hi + 1)
    return [int(s) for s in text.split(",") if s.strip()]


def _cf_from_args(args: argparse.Namespace):
    from .cfrac import cf_expand, parse_cf_text

    if getattr(args, "value", None) is None:
        return parse_cf_text(args.cf)
    return cf_expand(_parse_fraction(args.value))


# -- subcommand handlers -----------------------------------------------------
#
# Each handler returns its artifacts by file name, in write order: a dict is
# a JSON document (the one --json prints), a str is text, bytes a pixmap.


def _run_angle(args) -> dict:
    from .angles import Angle, double

    if args.cf is not None:
        from .cardioid import external_angle
        from .cfrac import parse_cf_text

        result = external_angle(parse_cf_text(args.cf), args.prec)
        exact = result.exact_pair is not None
        doc = {
            "approx": str(result.approx),
            # a rational rotation number has its landing pair exactly
            "bound": "0" if exact else f"2^-{args.prec - 1}",
            "iterates": [str(a) for a in result.iterates],
        }
        if exact:
            doc["exact_pair"] = [str(a) for a in result.exact_pair]
        return {"angle.json": doc}
    if args.steps < 0:
        raise InvariantError(f"--steps must be >= 0, got {args.steps}")
    a = Angle(_parse_fraction(args.value))
    bits = a.denominator.bit_length()
    cost = (args.steps + 1) * bits * (1 + bits // 8192)
    if cost > MAX_ANGLE_VALUE_COST:
        raise InvariantError(
            f"--steps with a {bits}-bit denominator costs {cost}, "
            f"above the budget {MAX_ANGLE_VALUE_COST}"
        )
    orbit = [a]
    for _ in range(args.steps):
        orbit.append(double(orbit[-1]))
    periodic = a.denominator % 2 == 1
    doc = {
        "angle": str(a),
        "purely_periodic": periodic,
        "doubling_orbit": [str(x) for x in orbit],
    }
    return {"angle.json": doc}


def _run_orbit(args) -> dict:
    from .cardioid import find_orbit

    p, q = _parse_pq(args.pq)
    if q > MAX_ORBIT_PERIOD:
        raise InvariantError(f"the period q of --pq must be at most {MAX_ORBIT_PERIOD}")
    orbit = find_orbit(p, q)
    doc = {
        "rotation": f"{p}/{q}",
        "period": orbit.period,
        "angles": [str(a) for a in orbit.angles],
    }
    return {"orbit.json": doc}


def _run_landing_pair(args) -> dict:
    from .cardioid import landing_pair

    p, q = _parse_pq(args.pq)
    lo, hi = landing_pair(p, q)
    doc = {"alpha_minus": str(lo), "alpha_plus": str(hi)}
    return {"landing-pair.json": doc}


def _dyadic_str(num: int, one: int) -> str:
    """str(Fraction(num, one)) for one a power of two: the gcd is a power of
    two too, so reducing strips common trailing zero bits."""
    shift = one.bit_length() - 1
    if num:
        shift = min(shift, (num & -num).bit_length() - 1)
    num, one = num >> shift, one >> shift
    return f"{num}/{one}" if one > 1 else str(num)


def _run_cantor(args) -> dict:
    from .cantor import _cover_arcs, _default_prec
    from .imaging import cover_strip_ppm

    cf = _cf_from_args(args)
    # the depth schedule's precision doubles, up to its ceiling, until alpha's
    # bracket is certified; one from --prec or $QUADDYN_PREC is kept
    scheduled, args.prec = args.prec is None, args.prec or _default_prec(args.depth)
    while True:
        try:
            arcs, one = _cover_arcs(cf, args.depth, prec=args.prec)
            break
        except PrecisionError:
            if not scheduled or args.prec >= CEILINGS["cantor"]["prec"]:
                raise
            args.prec = min(2 * args.prec, CEILINGS["cantor"]["prec"])
    # the arcs are what cantor.cover returns as CircleIntervals, whose
    # invariants are checked here on the numerators
    if not all(0 <= lo < one and lo <= hi <= lo + one for lo, hi in arcs):
        raise InvariantError("cover arc is not a normalized circle arc")
    doc = {
        "depth": args.depth,
        "arc_count": len(arcs),
        "total_length": _dyadic_str(sum(hi - lo for lo, hi in arcs), one),
        "hausdorff_bound": _dyadic_str(1, 1 << args.depth),
        "arcs": [{"lo": _dyadic_str(lo, one), "hi": _dyadic_str(hi, one)} for lo, hi in arcs],
    }
    return {
        "cantor-cover.json": doc,
        "cantor-cover.ppm": cover_strip_ppm(arcs, one),
    }


def _run_brjuno(args) -> dict:
    from .cfrac import brjuno_partial_sums

    cf = _cf_from_args(args)
    sums = brjuno_partial_sums(cf, args.terms, prec_bits=args.prec)
    doc = {
        "terms": args.terms,
        "prec_bits": args.prec,
        "value": float(sums[-1]),
        "nondecreasing": all(b >= a for a, b in zip(sums, sums[1:])),
    }
    return {"brjuno.json": doc}


def _run_cf(args) -> dict:
    from .cfrac import convergent_pairs

    cf = _cf_from_args(args)
    count = args.count
    if cf.is_rational:
        count = min(count, len(cf.quotients))
    lo, hi = cf.bracket(Fraction(1, 2**args.prec))
    # str(Fraction(p, q)) without its gcd: convergents are in lowest terms
    approx = [f"{p}/{q}" if q != 1 else str(p) for p, q in convergent_pairs(cf, count)]
    doc = {
        "quotients": list(cf.prefix(count)),
        "periodic": not cf.is_rational,
        "convergents": approx,
        # Second indexing: the classical pictures number the approximants
        # from the second convergent on.
        "convergents_from_second": approx[1:],
        "bracket_prec_bits": args.prec,
        "bracket": [str(lo), str(hi)],
    }
    return {"cf.json": doc}


def _run_radius(args) -> dict:
    from .linearize import (
        _check_radius_order,
        conformal_radius_estimate,
        inner_radius_probe,
        linearization_coeffs,
    )

    cf = _cf_from_args(args)
    _check_radius_order(args.order)
    series = linearization_coeffs(cf, args.order, prec=args.prec)
    est = conformal_radius_estimate(series)
    probe = inner_radius_probe(series, est.r_hat)
    doc = {
        "order": args.order,
        "prec_bits": args.prec,
        "r_hat": float(est.r_hat),
        "r_hat_half_order": float(est.half_order),
        "reliable": est.reliable,
        "inner_radius": float(probe.value),
        "inner_tail_flagged": probe.tail_flagged,
        "koebe_lower": float(est.r_hat) / 4,
        "koebe_ok": bool(
            0.99 * float(est.r_hat) / 4 <= float(probe.value) <= 1.01 * float(est.r_hat)
        ),
    }
    return {"radius.json": doc}


def _run_ratio_experiment(args) -> dict:
    from .cfrac import _quotient_list
    from .linearize import radius_ratio_experiment

    prefix = _quotient_list(args.prefix, f"bad quotient list in {args.prefix!r}")
    ns = list(_parse_range(args.n))
    exp = radius_ratio_experiment(
        prefix, Fraction(args.amplitude), ns, order=args.order, prec=args.prec
    )
    lines = ["n,scaled,deviation,reliable"]
    for row in exp.rows:
        lines.append(
            f"{row.n},{float(row.scaled)!r},{float(row.deviation)!r},{row.reliable}"
        )
    doc = {
        "base_r_hat": float(exp.base_r_hat),
        "amplitude": args.amplitude,
        "n": ns,
        "trend_ok": exp.trend_ok,
        "reliable": exp.reliable,
    }
    return {
        "ratio-experiment.csv": "\n".join(lines) + "\n",
        "ratio-experiment.json": doc,
    }


def _run_julia(args) -> dict:
    from .dynamics import render_julia
    from .imaging import classification_image, ppm_bytes

    c = _parse_complex(args.c)
    grid = render_julia(c, args.res, max_iter=args.max_iter, safety=args.safety)
    doc = {
        "c": [c.real, c.imag],
        "resolution_exponent": grid.resolution_exponent,
        "extent": [
            [grid.origin.real, grid.origin.real + grid.extent],
            [grid.origin.imag, grid.origin.imag + grid.extent],
        ],
        "safety": args.safety,
        "max_iter": args.max_iter,
        "counts": grid.counts(),
    }
    return {"julia.ppm": ppm_bytes(classification_image(grid.cells)), "julia.json": doc}


def _run_ray(args) -> dict:
    from .dynamics import trace_ray

    c = _parse_complex(args.c)
    angle = _parse_angle_arg(args.angle)
    ray = trace_ray(c, angle, t_min=args.tmin)
    lines = ["t,re,im"]
    for t, z in zip(ray.potentials, ray.points):
        lines.append(f"{t!r},{z.real!r},{z.imag!r}")
    doc = {
        "c": [c.real, c.imag],
        "angle": str(angle),
        "t_min": args.tmin,
        "points": len(ray.points),
        "terminus": [ray.points[-1].real, ray.points[-1].imag],
        "landing_estimate": [ray.landing_estimate.real, ray.landing_estimate.imag],
    }
    return {"ray.csv": "\n".join(lines) + "\n", "ray.json": doc}


def _sequence_from_arg(text: str, slot: str):
    from .combdomain import parse_sequence_expr, toy_sequences

    if text == "builtin:toy":
        a_seq, b_seq = toy_sequences()
        return a_seq if slot == "a" else b_seq
    return parse_sequence_expr(text)


def _run_omega(args) -> dict:
    from .combdomain import (
        OmegaDomain,
        build_gamma_n,
        chain_midpoint,
        crosscut_chain,
        impression_segments,
    )
    from .imaging import domain_ppm

    dom = OmegaDomain(
        _sequence_from_arg(args.a_seq, "a"), _sequence_from_arg(args.b_seq, "b")
    )
    # read every term first: build_gamma_n reads them in this order, so the
    # first bad term fails as it would there, before any curve is built
    for k in range(1, args.depth + 1):
        dom.terms(k)
    curves = {}
    for n in range(1, args.depth + 1):
        verts = build_gamma_n(dom, n)
        curves[str(n)] = [[str(x), str(y)] for x, y in verts]
    chain = []
    for n in range(1, args.depth + 1):
        seg = crosscut_chain(n)
        mid = chain_midpoint(n)
        chain.append(
            {
                "n": n,
                "from": [str(seg.start[0]), str(seg.start[1])],
                "to": [str(seg.end[0]), str(seg.end[1])],
                "diameter": str(seg.diameter),
                "marked_point": [str(mid[0]), str(mid[1])],
            }
        )
    inner, outer = impression_segments(dom, args.depth)
    doc = {
        "depth": args.depth,
        "boundary_curves": curves,
        "crosscut_chain": chain,
        "impression_inner": [str(inner.start[0]), str(inner.end[0])],
        "impression_outer": [str(outer.start[0]), str(outer.end[0])],
    }
    return {
        "omega.json": doc,
        "omega.ppm": domain_ppm(dom, args.depth, resolution=args.res),
    }


def _run_lavrentiev(args) -> dict:
    from .dynamics import lavrentiev_check, lavrentiev_monte_carlo

    if args.endpoints:
        if args.distance is None:
            raise ValueError("--endpoints needs --distance")
        x1_str, x2_str = args.endpoints.split(",")
        result = lavrentiev_check((float(x1_str), float(x2_str)), args.distance)
        doc = {
            "mode": "single",
            "center": result.center,
            "radius": result.radius,
            "crosscut_diam": result.crosscut_diam,
            "image_diam": result.image_diam,
            "bound": result.bound,
            "holds": result.holds,
            "margin": result.margin,
        }
    else:
        results = lavrentiev_monte_carlo(args.count, seed=args.seed)
        violations = [r for r in results if not r.holds]
        doc = {
            "mode": "monte-carlo",
            "count": len(results),
            "seed": args.seed,
            "violations": len(violations),
            "worst_ratio": max(r.image_diam / r.bound for r in results),
        }
    return {"lavrentiev.json": doc}


def _run_accept(args) -> dict:
    from .acceptance import run_all

    results = run_all()
    # under --json, stdout carries only the JSON document
    verdicts = sys.stderr if args.json else sys.stdout
    for r in results:
        print(r.line, file=verdicts)
    doc = {
        "passed": all(r.passed for r in results),
        "criteria": [
            {
                "id": r.ident,
                "title": r.title,
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "detail": r.detail,
            }
            for r in results
        ],
    }
    return {"accept.json": doc}


_HANDLERS = {
    "angle": _run_angle,
    "orbit": _run_orbit,
    "landing-pair": _run_landing_pair,
    "cantor": _run_cantor,
    "brjuno": _run_brjuno,
    "cf": _run_cf,
    "radius": _run_radius,
    "ratio-experiment": _run_ratio_experiment,
    "julia": _run_julia,
    "ray": _run_ray,
    "omega": _run_omega,
    "lavrentiev": _run_lavrentiev,
    "accept": _run_accept,
}


def _add_cf_or_value(p: argparse.ArgumentParser) -> None:
    """Exactly one of --cf and --value; both or neither is a usage error."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cf", help="continued fraction, e.g. 1,1,1:rep=1")
    group.add_argument("--value", help="exact fraction, e.g. 3/7")


class _Parser(argparse.ArgumentParser):
    """Raises argparse's usage errors, so main reports each as one JSON object."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and the tree of thirteen subparsers costs more to
    build than a cheap command takes to run."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory for artifacts")
    common.add_argument(
        "--prec",
        type=int,
        default=None,
        help=f"working precision in bits (default: ${PREC_ENV} or per-command)",
    )
    common.add_argument(
        "--json", action="store_true", help="print the result JSON to stdout"
    )

    parser = _Parser(
        prog="quaddyn",
        description="Exact and numerical tools for quadratic dynamics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "angle",
        parents=[common],
        help="doubling orbit of an exact angle, or the external angle of a "
        "continued-fraction rotation number",
    )
    _add_cf_or_value(p)
    p.add_argument("--steps", type=int, default=8)

    p = sub.add_parser("orbit", parents=[common], help="rotation cycle for p/q")
    p.add_argument("--pq", required=True, help="rotation number, e.g. 2/5")

    p = sub.add_parser(
        "landing-pair", parents=[common], help="wake boundary angles for p/q"
    )
    p.add_argument("--pq", required=True)

    p = sub.add_parser("cantor", parents=[common], help="rotation-set cover arcs")
    _add_cf_or_value(p)
    p.add_argument("--depth", type=int, default=8)

    p = sub.add_parser("brjuno", parents=[common], help="Brjuno partial sums")
    _add_cf_or_value(p)
    p.add_argument("--terms", type=int, default=50)

    p = sub.add_parser("cf", parents=[common], help="expansion and convergents")
    _add_cf_or_value(p)
    p.add_argument("--count", type=int, default=12)

    p = sub.add_parser("radius", parents=[common], help="conformal radius estimate")
    p.add_argument("--cf", required=True)
    p.add_argument("--order", type=int, default=256)

    p = sub.add_parser(
        "ratio-experiment", parents=[common], help="perturbed-radius trend table"
    )
    p.add_argument("--prefix", required=True, help="comma list, e.g. 1,1,1,1,1,1")
    p.add_argument("--amplitude", "--A", type=int, default=2)
    p.add_argument("--n", required=True, help="depths, e.g. 3..6 or 3,4,5")
    p.add_argument("--order", type=int, default=256)

    p = sub.add_parser("julia", parents=[common], help="render a Julia set grid")
    p.add_argument("--c", required=True, help="parameter, e.g. -2,0")
    p.add_argument("--res", type=int, default=8, help="resolution exponent")
    p.add_argument("--max-iter", type=int, default=128)
    p.add_argument("--safety", type=float, default=4.0)

    p = sub.add_parser("ray", parents=[common], help="trace an external ray")
    p.add_argument("--c", required=True)
    p.add_argument("--angle", required=True, help="fraction or float in turns")
    p.add_argument("--tmin", type=float, default=1e-6)

    p = sub.add_parser("omega", parents=[common], help="carved-square gallery")
    p.add_argument("--a-seq", default="builtin:toy")
    p.add_argument("--b-seq", default="builtin:toy")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--res", type=int, default=384)

    p = sub.add_parser(
        "lavrentiev", parents=[common], help="crosscut inequality checks"
    )
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--endpoints", help="single crosscut, e.g. 0.9999,1.0001")
    p.add_argument("--distance", type=float, help="gap lower bound for --endpoints")

    sub.add_parser("accept", parents=[common], help="run the acceptance checklist")

    return parser


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


# flags whose values may begin with a minus sign, which argparse would
# otherwise read as another option (e.g. --c -2,0)
_GLUE_FLAGS = {
    "--c", "--angle", "--value", "--endpoints", "--pq", "--distance",
    "--a-seq", "--b-seq",
}


def _glue_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _GLUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: "list[str] | None" = None) -> int:
    # exact angles of period above about 14,000 have numerators of more
    # decimal digits than the interpreter's int-to-str limit (4300 by
    # default); lift it for this call only
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: "list[str] | None") -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_negative_values(list(argv)))
    except SystemExit:  # --help and --version
        return 0
    except ValueError as exc:
        _emit_error("UsageError", str(exc))
        return 2

    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in {"command", "json"} and v is not None
    }
    try:
        # parameters keep --prec as given; handlers see the effective value
        args.prec = _resolve_prec(args)
        for dest, ceiling in CEILINGS.get(args.command, {}).items():
            value = getattr(args, dest)
            if isinstance(value, str):  # the largest depth of --n
                ns = _parse_range(value)
                value = ns[-1] if isinstance(ns, range) else max(ns, default=0)
            if value is not None and value > ceiling:  # cantor's prec may be unset
                flag = "--" + dest.replace("_", "-")
                raise InvariantError(f"{flag} must be at most {ceiling}")
        artifacts = _HANDLERS[args.command](args)
    except InvariantError as exc:
        _emit_error("InvariantError", str(exc))
        return 4
    except PrecisionError as exc:
        _emit_error("PrecisionError", str(exc))
        return 3
    except ValueError as exc:
        _emit_error("UsageError", str(exc))
        return 2

    # nothing touches --out until the handler has returned
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for name, content in artifacts.items():
        if isinstance(content, dict):
            doc = content
            content = text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if isinstance(content, str):
            content = content.encode()
        (out_dir / name).write_bytes(content)
        digest = hashlib.sha256(content).hexdigest()
        records.append({"name": name, "sha256": digest, "bytes": len(content)})
    manifest = {
        "command": args.command,
        "version": __version__,
        "precision_bits": args.prec,
        "parameters": params,
        "artifacts": records,
    }
    (out_dir / f"{args.command}-manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )

    if args.json:
        sys.stdout.write(text)  # the JSON artifact's text
    else:
        names = ", ".join(rec["name"] for rec in records)
        print(f"{args.command}: wrote {names} in {out_dir}")

    if args.command == "accept" and not doc["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
