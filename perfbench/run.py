"""quaddyn benchmark: seeded closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload siegel --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 3 --seconds 50
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --calibrate
    python3 perfbench/run.py --record-reference

Run from the repository root.  quaddyn is imported from ./src of that root;
without it the benchmark exits with code 2 and prints no result.  One client
issues each round's cases in order, the next when the previous returns, in
two passes over the same rounds.  The last stdout line is the result object;
the line before it carries the run's host facts, case counts, tail
percentile and failures.  NOTES.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 1
REFERENCE_ROUNDS = {"siegel": 3, "exact": 3, "render": 6, "cli": 30}
SETUP_SAMPLES = 5

# Fixed per workload so that runs of any length read the same quantile of
# the same case mix; each is the highest with at least ten cases beyond it
# in a run of the benchmark's own length (see NOTES.md).
TAIL_PERCENTILE = {"siegel": 75, "exact": 95, "render": 90, "cli": 95}

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.import.linearize_s": "s",
    "setup.import.cantor_s": "s",
    "setup.import.dynamics_s": "s",
    "setup.import.cli_s": "s",
    "linearize.coeffs.calls": "count",
    "linearize.coeffs.self_s": "s",
    "linearize.coeffs.products": "count",
    "linearize.coeffs.ns_per_product": "ns",
    "linearize.probe.self_s": "s",
    "linearize.probe.horner_steps": "count",
    "linearize.probe.ns_per_step": "ns",
    "linearize.residual.self_s": "s",
    "linearize.estimate.self_s": "s",
    "linearize.precision_errors": "count",
    "cantor.semiconj.calls": "count",
    "cantor.semiconj.self_s": "s",
    "cantor.dense_orbit.calls": "count",
    "cantor.escalations_per_check": "1",
    "cantor.cover.self_s": "s",
    "cantor.membership.self_s": "s",
    "cantor.build_arc.self_s": "s",
    "cardioid.external_angle.calls": "count",
    "cardioid.external_angle.self_s": "s",
    "cardioid.landing_pair.self_s": "s",
    "cardioid.find_orbit.self_s": "s",
    "cfrac.self_s": "s",
    "combdomain.in_domain.calls": "count",
    "combdomain.in_domain.self_s": "s",
    "combdomain.gamma.self_s": "s",
    "dynamics.render.calls": "count",
    "dynamics.render.self_s": "s",
    "dynamics.render.pixels": "count",
    "dynamics.render.mpix_per_s": "Mpix/s",
    "dynamics.render.borderline_share": "1",
    "dynamics.ray.calls": "count",
    "dynamics.ray.self_s": "s",
    "dynamics.ray.points": "count",
    "dynamics.hausdorff.self_s": "s",
    "dynamics.lavrentiev.self_s": "s",
    "imaging.self_s": "s",
    "imaging.ppm_bytes": "bytes",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.nonzero_exits": "count",
    "trace.overhead_ratio": "1",
    "trace.unattributed_share": "1",
}

IMPORT_LAYERS = ("linearize", "cantor", "dynamics", "cli")


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_quaddyn() -> None:
    if not (SRC / "quaddyn" / "__init__.py").is_file():
        _fail(f"no quaddyn package under {SRC}; run from a checkout of the repository")
    os.environ.pop("QUADDYN_PREC", None)
    sys.path.insert(0, str(SRC))
    import quaddyn

    if Path(quaddyn.__file__).resolve().parent != (SRC / "quaddyn").resolve():
        _fail(f"quaddyn imported from {quaddyn.__file__}, not from {SRC}")


def _child_import_times(modules: list[str]) -> list[float]:
    """Cumulative seconds after each import, in a fresh interpreter."""
    code = (
        "import sys, time, importlib\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t0 = time.perf_counter()\n"
        "for name in sys.argv[2:]:\n"
        "    importlib.import_module(name)\n"
        "    print(time.perf_counter() - t0)\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("QUADDYN_PREC", "PYTHONPATH")}
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC), *modules],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=env, check=True,
    )
    return [float(x) for x in done.stdout.split()]


def import_seconds(modules: list[str], samples: list | None = None, count: int = SETUP_SAMPLES) -> list[float]:
    """Median over fresh interpreters of the incremental import time of
    each module, in the given order; `samples` carries earlier ones."""
    samples = (samples or []) + [_child_import_times(modules) for _ in range(count)]
    cumulative = [statistics.median(col) for col in zip(*samples)]
    return [b - a for a, b in zip([0.0] + cumulative, cumulative)]


def host_facts() -> dict:
    import platform

    import mpmath
    import mpmath.libmp
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
    }


class Runner:
    """Issues rounds of one workload closed-loop, one pass at a time, and
    checks every case."""

    def __init__(self, workload: str, seed: int, case_filter=None):
        import workloads

        for m in workloads.MODULES[workload]:
            importlib.import_module(f"quaddyn.{m}")
        self.w = workloads
        self.workload, self.seed = workload, seed
        self.reference = _reference(workload, seed) or {}
        self.case_filter = case_filter
        self.tracer = None
        self.failures: list[str] = []
        self.artifact_bytes = 0
        self.nonzero_exits = 0

    def _one(self, case: dict) -> tuple[float, bool]:
        run, check, fingerprint = self.w.KINDS[case["kind"]]
        tracer = self.tracer
        if tracer is not None:
            tracer.case, tracer.active = case["id"], True
        start = time.perf_counter()
        try:
            out, error = run(case), None
        except Exception as exc:  # a failed case is counted, never fatal
            out, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        ok = True
        try:
            if error is not None:
                raise error
            check(case, out)
            if case["id"] in self.reference:
                self.w.compare(fingerprint(case, out), self.reference[case["id"]])
        except Exception as exc:
            ok = False
            self.failures.append(f"{case['id']} {case.get('argv', '')}: {type(exc).__name__}: {exc}")
        if case["kind"] == "cli" and out is not None:
            self.artifact_bytes += self.w.cli_artifact_bytes(out)
            self.nonzero_exits += out[0] != 0
            self.w.cleanup(case, out)
        return elapsed, ok

    def one_pass(self, seconds: float | None = None, rounds: int | None = None) -> tuple[int, list]:
        """`rounds` whole rounds, or as many as bring the pass's timed work
        nearest to `seconds` and at least two, so that a run has enough cases
        beyond its tail percentile.  Returns the round count and a (label,
        seconds, passed) record per case."""
        records: list[tuple[str, float, bool]] = []
        busy, index = 0.0, 0
        while index < rounds if rounds is not None else (index < 2 or busy + busy / index / 2 < seconds):
            for case in self.w.round_cases(self.workload, self.seed, index):
                if self.case_filter is None or self.case_filter(case):
                    elapsed, ok = self._one(case)
                    size = case.get("order", case.get("res", case.get("count", "")))
                    records.append((f"{case['kind']}{size}", elapsed, ok))
                    busy += elapsed
            index += 1
        return index, records


def _quantile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, case_filter=None) -> tuple[dict, dict, list, int]:
    """Two passes over the same rounds, half of `seconds` each.  A case's
    latency is the faster of its two runs: the host's slow spells last a few
    seconds, so they rarely cover both runs of a case, half a run apart."""
    import workloads

    # Set-up samples are taken before and after the timed rounds, so that
    # their median does not rest on one spell of the shared host.
    modules = ["quaddyn"] + [f"quaddyn.{m}" for m in workloads.MODULES[workload]]
    early = [_child_import_times(modules) for _ in range(SETUP_SAMPLES // 2)]
    runner = Runner(workload, seed, case_filter)
    rounds, first = runner.one_pass(seconds=seconds / 2)
    _, second = runner.one_pass(rounds=rounds)
    setup = sum(import_seconds(modules, early, SETUP_SAMPLES - len(early)))
    latencies = [min(a[1], b[1]) for a, b in zip(first, second)]
    correct = sum(a[2] and b[2] for a, b in zip(first, second))
    busy = sum(latencies)
    pct = TAIL_PERCENTILE[workload]
    tail = _quantile(latencies, pct)
    values = {
        "setup_s": setup,
        "cases_per_s": correct / busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    by_kind: dict[str, list[float]] = {}
    for (label, _, _), t in zip(first, latencies):
        by_kind.setdefault(label, []).append(t)
    info = {
        "rounds_per_pass": rounds,
        "cases": len(latencies),
        "runs": len(first) + len(second),
        "timed_s": sum(r[1] for r in first + second),
        "tail_percentile": pct,
        "cases_beyond_tail": sum(x > tail for x in latencies),
        "median_ms_by_kind": {k: [len(v), round(statistics.median(v) * 1e3, 3)] for k, v in sorted(by_kind.items())},
    }
    return {k: _metric(v, END_TO_END[k]) for k, v in values.items()}, info, runner.failures, len(first) + len(second)


def traced(workload: str, seed: int, seconds: float, case_filter=None) -> tuple[dict, dict, list, int]:
    """Untraced rounds for half the time, then the same rounds traced."""
    from tracing import Tracer

    runner = Runner(workload, seed, case_filter)
    rounds, first = runner.one_pass(seconds=seconds / 2)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    bytes_before, exits_before = runner.artifact_bytes, runner.nonzero_exits
    _, second = runner.one_pass(rounds=rounds)
    tracer.uninstall()
    untraced_s, traced_s = sum(r[1] for r in first), sum(r[1] for r in second)

    imports = import_seconds(["quaddyn"] + [f"quaddyn.{m}" for m in IMPORT_LAYERS])[1:]
    totals = tracer.layer_totals()
    counts = tracer.counts

    def get(name: str, field: str) -> float:
        return totals[name][field] if name in totals else 0

    def prefixed_self(prefix: str) -> float:
        return sum(v["self_s"] for k, v in totals.items() if k.startswith(prefix))

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return a / b * scale if b else 0.0

    precision_errors = sum(
        1 for name, _, _, _, _, err in tracer.spans if name == "linearize.coeffs" and err == "PrecisionError"
    )
    semiconj_calls = get("cantor.semiconj", "calls")
    pixels = counts["dynamics.render.pixels"]
    values = {
        **{f"setup.import.{m}_s": t for m, t in zip(IMPORT_LAYERS, imports)},
        "linearize.coeffs.calls": get("linearize.coeffs", "calls"),
        "linearize.coeffs.self_s": get("linearize.coeffs", "self_s"),
        "linearize.coeffs.products": counts["linearize.coeffs.products"],
        "linearize.coeffs.ns_per_product": ratio(
            get("linearize.coeffs", "self_s"), counts["linearize.coeffs.products"], 1e9),
        "linearize.probe.self_s": get("linearize.probe", "self_s"),
        "linearize.probe.horner_steps": counts["linearize.probe.horner_steps"],
        "linearize.probe.ns_per_step": ratio(
            get("linearize.probe", "self_s"), counts["linearize.probe.horner_steps"], 1e9),
        "linearize.residual.self_s": get("linearize.residual", "self_s"),
        "linearize.estimate.self_s": get("linearize.estimate", "self_s"),
        "linearize.precision_errors": precision_errors,
        "cantor.semiconj.calls": semiconj_calls,
        "cantor.semiconj.self_s": get("cantor.semiconj", "self_s"),
        "cantor.dense_orbit.calls": get("cantor.dense_orbit", "calls"),
        "cantor.escalations_per_check": ratio(
            tracer.child_calls("cantor.dense_orbit", "cantor.semiconj"), semiconj_calls),
        "cantor.cover.self_s": get("cantor.cover", "self_s"),
        "cantor.membership.self_s": get("cantor.membership", "self_s"),
        "cantor.build_arc.self_s": get("cantor.build_arc", "self_s"),
        "cardioid.external_angle.calls": get("cardioid.external_angle", "calls"),
        "cardioid.external_angle.self_s": get("cardioid.external_angle", "self_s"),
        "cardioid.landing_pair.self_s": get("cardioid.landing_pair", "self_s"),
        "cardioid.find_orbit.self_s": get("cardioid.find_orbit", "self_s"),
        "cfrac.self_s": prefixed_self("cfrac."),
        "combdomain.in_domain.calls": get("combdomain.in_domain", "calls"),
        "combdomain.in_domain.self_s": get("combdomain.in_domain", "self_s"),
        "combdomain.gamma.self_s": get("combdomain.gamma", "self_s"),
        "dynamics.render.calls": get("dynamics.render", "calls"),
        "dynamics.render.self_s": get("dynamics.render", "self_s"),
        "dynamics.render.pixels": pixels,
        "dynamics.render.mpix_per_s": ratio(pixels, get("dynamics.render", "self_s"), 1e-6),
        "dynamics.render.borderline_share": ratio(counts["dynamics.render.borderline"], pixels),
        "dynamics.ray.calls": get("dynamics.ray", "calls"),
        "dynamics.ray.self_s": get("dynamics.ray", "self_s"),
        "dynamics.ray.points": counts["dynamics.ray.points"],
        "dynamics.hausdorff.self_s": get("dynamics.hausdorff", "self_s"),
        "dynamics.lavrentiev.self_s": get("dynamics.lavrentiev", "self_s"),
        "imaging.self_s": prefixed_self("imaging."),
        "imaging.ppm_bytes": counts["imaging.ppm_bytes"],
        "cli.calls": get("cli.main", "calls"),
        "cli.self_s": get("cli.main", "self_s"),
        "cli.artifact_bytes": runner.artifact_bytes - bytes_before,
        "cli.nonzero_exits": runner.nonzero_exits - exits_before,
        "trace.overhead_ratio": traced_s / untraced_s - 1,
        "trace.unattributed_share": 1 - tracer.top_level_seconds() / traced_s,
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "case", "error"], "spans": tracer.spans}))
    info = {"rounds_per_pass": rounds, "untraced_s": untraced_s, "traced_s": traced_s,
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
            "per_call_s": {k: v["total_s"] / v["calls"] for k, v in sorted(totals.items())}}
    metrics = {k: _metric(values[k], PER_LAYER[k]) for k in PER_LAYER}
    return metrics, info, runner.failures, len(first) + len(second)


def _reference(workload: str, seed: int) -> dict | None:
    if seed != REFERENCE_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(workload)


def run_one(args) -> int:
    import workloads

    workloads.WORK_DIR = OUT / f"work-{os.getpid()}"
    quick = None
    if args.quick:
        from selfcheck import light
        quick = light
    measure = traced if args.trace else end_to_end
    try:
        metrics, info, failures, attempted = measure(args.workload, args.seed, args.seconds, quick)
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20], "host": host_facts(),
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, then one summary."""
    import workloads

    combined, attempted, failed = {}, 0, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            _fail(f"workload {name} exited with {done.returncode}")
        info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"== {name}: {result['attempted']} case runs, fail_ratio {info['info']['fail_ratio']:.4f}")
        for f in info["info"]["failures"]:
            print("   FAIL", f)
        for key, m in result["metrics"].items():
            print(f"   {key:36s} {m['value']:14.6g} {m['unit']}")
            combined[f"{name}.{key}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def record_reference(args) -> int:
    import workloads

    doc = {"seed": REFERENCE_SEED, "rounds": REFERENCE_ROUNDS, "workloads": {}}
    workloads.WORK_DIR = OUT / f"work-{os.getpid()}"
    for name in workloads.WORKLOADS:
        for m in workloads.MODULES[name]:
            importlib.import_module(f"quaddyn.{m}")
        prints = {}
        for index in range(REFERENCE_ROUNDS[name]):
            for case in workloads.round_cases(name, REFERENCE_SEED, index):
                run, check, fingerprint = workloads.KINDS[case["kind"]]
                out = run(case)
                check(case, out)
                prints[case["id"]] = json.loads(json.dumps(fingerprint(case, out)))
                workloads.cleanup(case, out)
        doc["workloads"][name] = prints
        print(name, len(prints), "cases")
    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    REFERENCE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, one interpreter each")
    parser.add_argument("--self-check", action="store_true", help="quick check of the benchmark itself")
    parser.add_argument("--calibrate", action="store_true", help="per-call times of the named anchors")
    parser.add_argument("--record-reference", action="store_true", help="rewrite reference.json")
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_quaddyn()
    if args.self_check:
        from selfcheck import self_check
        return self_check()
    if args.calibrate:
        from selfcheck import calibrate
        return calibrate()
    if args.record_reference:
        return record_reference(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
