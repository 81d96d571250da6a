"""Quick self-check of the benchmark, and per-call calibration of its anchors.

self_check runs a few light cases of every kind, requires each to pass its
oracle, requires each kind's oracle to reject a deliberately corrupted
output, and runs every workload briefly in a child process to confirm that
the result line names every metric of BENCHMARK.json with its unit.

calibrate times the anchor calls named in NOTES.md once each, traced, and
prints them next to the reference per-call times measured on the 2-vCPU
Xeon host the benchmark was defined on.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def light(case: dict) -> bool:
    """Cases small enough for a self-check."""
    kind = case["kind"]
    if kind in ("radius", "residual", "ratio_row"):
        return case["order"] <= 128
    if kind == "semiconj":
        return case["count"] <= 50
    if kind == "raster":
        return case["res"] <= 64
    if kind == "render":
        return case["res"] <= 6
    return True


def _oracle_checks() -> list[str]:
    problems = []
    workloads.WORK_DIR = HERE / "out" / "selfcheck-work"
    for name in workloads.WORKLOADS:
        by_kind: dict[str, list[dict]] = {}
        for case in workloads.round_cases(name, 1, 0):
            if light(case):
                by_kind.setdefault(case["kind"], []).append(case)
        for kind, cases in by_kind.items():
            run, check, _ = workloads.KINDS[kind]
            rejected = 0
            for case in cases[:6]:
                out = run(case)
                try:
                    check(case, out)
                except Exception as exc:
                    problems.append(f"{case['id']}: correct output rejected: {exc}")
                try:
                    check(case, workloads.corrupt(case, out))
                except Exception:
                    rejected += 1
                workloads.cleanup(case, out)
            print(f"{name:7s} {kind:11s} {min(len(cases), 6)} cases pass, corruption rejected in {rejected}")
            if rejected == 0:
                problems.append(f"{name}/{kind}: no corrupted output was rejected")
    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    return problems


def _metric_lines() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                   "--seconds", "0.5", "--trace", str(trace), "--quick"]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
            if done.returncode != 0:
                problems.append(f"{name} trace {trace}: exit {done.returncode}: {done.stderr[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want[trace]))} differ")
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                problems.append(f"{name} trace {trace}: bad result line {result}")
            print(f"{name:7s} trace {trace}: {len(got)} metrics with units, {result['attempted']} cases")
    return problems


def self_check() -> int:
    problems = _oracle_checks() + _metric_lines()
    for p in problems:
        print("PROBLEM", p)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


# Per-call seconds measured when the benchmark was defined (see NOTES.md).
CALIBRATION = [
    ("linearization_coeffs order 512 prec 256", "linearize.coeffs", 1.4),
    ("inner_radius_probe 512 samples on it", "linearize.probe", 2.8),
    ("semiconjugacy_check golden N=200", "golden", 2.2),
    ("semiconjugacy_check silver N=200", "silver", 4.5),
    ("render_julia res 8 c=0", "c0", 1.2),
    ("render_julia res 8 c=-2", "c-2", 0.5),
    ("trace_ray (mean of the five C10 rays)", "dynamics.ray", 0.0175),
    ("cli omega --depth 4 --res 384", "cli.main", 3.8),
]


def calibrate() -> int:
    # Every module is loaded before the tracer wraps their functions.
    from quaddyn import cantor, cfrac, cli, combdomain, dynamics, imaging, linearize  # noqa: F401

    import run as bench
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    times: dict[str, float] = {}

    def timed(key, fn):
        start = time.perf_counter()
        fn()
        times[key] = time.perf_counter() - start

    golden, silver = cfrac.CFExpansion((), (1,)), cfrac.CFExpansion((), (2,))
    series = linearize.linearization_coeffs(golden, 512, 256)
    linearize.inner_radius_probe(series, linearize.conformal_radius_estimate(series).r_hat)
    timed("golden", lambda: cantor.semiconjugacy_check(golden, 200))
    timed("silver", lambda: cantor.semiconjugacy_check(silver, 200))
    timed("c0", lambda: dynamics.render_julia(0j, 8))
    timed("c-2", lambda: dynamics.render_julia(-2 + 0j, 8))
    for c, angle in ((-2, 0), (-2, Fraction(1, 2)), (0, Fraction(1, 7)), (0, Fraction(1, 3)), (0, Fraction(3, 8))):
        dynamics.trace_ray(complex(c), Fraction(angle))
    work = HERE / "out" / "calibrate-work"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["omega", "--depth", "4", "--out", str(work)])
    tracer.active = False
    tracer.uninstall()
    shutil.rmtree(work, ignore_errors=True)
    totals = tracer.layer_totals()
    for key, entry in totals.items():
        times.setdefault(key, entry["total_s"] / entry["calls"])
    omega_in_domain = totals["combdomain.in_domain"]["total_s"] / totals["cli.main"]["total_s"]
    imports = dict(zip(("dynamics", "linearize", "cardioid", "cli"), [
        bench.import_seconds(["quaddyn", f"quaddyn.{m}"])[1] for m in ("dynamics", "linearize", "cardioid", "cli")
    ]))
    worst = 1.0
    print(f"{'anchor':44s} {'measured_s':>11s} {'reference_s':>11s} {'ratio':>6s}")
    for label, key, ref in CALIBRATION:
        ratio = times[key] / ref
        worst = max(worst, ratio, 1 / ratio)
        print(f"{label:44s} {times[key]:11.4f} {ref:11.4f} {ratio:6.2f}")
    print(f"{'fresh import quaddyn.dynamics':44s} {imports['dynamics']:11.4f} {0.56:11.4f} "
          f"{imports['dynamics'] / 0.56:6.2f}")
    worst = max(worst, imports["dynamics"] / 0.56, 0.56 / imports["dynamics"])
    for m in ("linearize", "cardioid", "cli"):
        print(f"{'fresh import quaddyn.' + m:44s} {imports[m]:11.4f} {'<= 0.05':>11s}")
    print(f"share of omega --depth 4 spent in in_domain: {omega_in_domain:.3f}")
    ok = worst <= 1.5 and all(imports[m] <= 0.05 * 1.5 for m in ("linearize", "cardioid", "cli"))
    print("calibration", "within 1.5x" if ok else "OUTSIDE 1.5x")
    return 0 if ok else 1
