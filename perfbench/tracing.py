"""In-memory span recorder that wraps quaddyn's public functions from outside.

Each wrapped call records (name, start, end, parent index, case id, error
class).  Wrapping replaces the function object in every quaddyn namespace that
holds it, so names bound by ``from ... import`` at module top and names looked
up by lazy imports inside the CLI handlers both reach the wrapper.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module, attribute); "Class.method" attributes wrap the method.
TARGETS = [
    ("linearize.coeffs", "linearize", "linearization_coeffs"),
    ("linearize.estimate", "linearize", "conformal_radius_estimate"),
    ("linearize.probe", "linearize", "inner_radius_probe"),
    ("linearize.residual", "linearize", "functional_residual"),
    ("linearize.ratio", "linearize", "radius_ratio_experiment"),
    ("cantor.build_arc", "cantor", "build_arc"),
    ("cantor.membership", "cantor", "membership"),
    ("cantor.cover", "cantor", "cover"),
    ("cantor.dense_orbit", "cantor", "dense_orbit"),
    ("cantor.semiconj", "cantor", "semiconjugacy_check"),
    ("cantor.arcs_hausdorff", "cantor", "arcs_hausdorff"),
    ("cardioid.find_orbit", "cardioid", "find_orbit"),
    ("cardioid.scan_orbits", "cardioid", "scan_orbits"),
    ("cardioid.rotation_number", "cardioid", "rotation_number"),
    ("cardioid.landing_pair", "cardioid", "landing_pair"),
    ("cardioid.external_angle", "cardioid", "external_angle"),
    ("cfrac.convergents", "cfrac", "convergents"),
    ("cfrac.convergent_pairs", "cfrac", "convergent_pairs"),
    ("cfrac.cf_expand", "cfrac", "cf_expand"),
    ("cfrac.gauss_orbit", "cfrac", "gauss_orbit"),
    ("cfrac.brjuno_partial_sums", "cfrac", "brjuno_partial_sums"),
    ("cfrac.brjuno_sum", "cfrac", "brjuno_sum"),
    ("cfrac.perturbed_cf", "cfrac", "perturbed_cf"),
    ("cfrac.parse_cf_text", "cfrac", "parse_cf_text"),
    ("cfrac.bracket", "cfrac", "CFExpansion.bracket"),
    ("cfrac.value_mpf", "cfrac", "CFExpansion.value_mpf"),
    ("combdomain.parse_sequence_expr", "combdomain", "parse_sequence_expr"),
    ("combdomain.gamma", "combdomain", "build_gamma_n"),
    ("combdomain.impression_segments", "combdomain", "impression_segments"),
    ("combdomain.in_domain", "combdomain", "in_domain"),
    ("combdomain.gamma_hausdorff", "combdomain", "gamma_hausdorff"),
    ("dynamics.render", "dynamics", "render_julia"),
    ("dynamics.hausdorff", "dynamics", "hausdorff_distance"),
    ("dynamics.ray", "dynamics", "trace_ray"),
    ("dynamics.lavrentiev", "dynamics", "lavrentiev_check"),
    ("dynamics.lavrentiev", "dynamics", "lavrentiev_monte_carlo"),
    ("imaging.ppm_bytes", "imaging", "ppm_bytes"),
    ("imaging.classification_image", "imaging", "classification_image"),
    ("imaging.cover_strip_image", "imaging", "cover_strip_image"),
    ("imaging.domain_image", "imaging", "domain_image"),
    ("cli.main", "cli", "main"),
]


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.case: str | None = None
        self.active = False
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.case, error)
            count = COUNTERS.get(name)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every reference to each target inside loaded quaddyn modules."""
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("quaddyn")]
        for name, mod_name, attr in TARGETS:
            home = sys.modules.get("quaddyn." + mod_name)
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return totals

    def child_calls(self, child: str, parent: str) -> int:
        return sum(
            1
            for name, _, _, p, _, _ in self.spans
            if name == child and p is not None and self.spans[p][0] == parent
        )

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent is None)


def _count_coeffs(counts, args, kwargs, series):
    n = series.order
    counts["linearize.coeffs.products"] += n * (n - 1) // 2


def _count_probe(counts, args, kwargs, probe):
    series = args[0]
    counts["linearize.probe.horner_steps"] += probe.samples * series.order


def _count_render(counts, args, kwargs, grid):
    side = grid.cells.shape[0]
    counts["dynamics.render.pixels"] += side * side
    counts["dynamics.render.borderline"] += grid.counts()["borderline"]


def _count_ray(counts, args, kwargs, ray):
    counts["dynamics.ray.points"] += len(ray.points)


def _count_ppm(counts, args, kwargs, data):
    counts["imaging.ppm_bytes"] += len(data)


COUNTERS = {
    "linearize.coeffs": _count_coeffs,
    "linearize.probe": _count_probe,
    "dynamics.render": _count_render,
    "dynamics.ray": _count_ray,
    "imaging.ppm_bytes": _count_ppm,
}
