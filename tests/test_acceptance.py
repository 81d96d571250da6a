"""Acceptance gate: every shipped claim runs once and reports a single
pass/fail line with its measured detail and time budget.  The exact
distances behind C09 are checked against brute force and against the
sample-to-sample distance they replaced."""

import math
import random

import numpy as np
import pytest

from quaddyn.acceptance import (
    ALL_CRITERIA,
    _to_near_centers,
    criterion_rendering_oracles,
    run_criterion,
)
from quaddyn.dynamics import hausdorff_distance, render_julia


def _ident(entry):
    return entry[3].__name__.replace("criterion_", "")


@pytest.mark.parametrize("entry", ALL_CRITERIA, ids=_ident)
def test_criterion(entry):
    result = run_criterion(*entry)
    print(result.line)
    assert result.passed, result.line


@pytest.mark.parametrize("c", [0j, -2 + 0j])
def test_window_lookup_matches_brute_force(c):
    # seeded points near the set and anywhere in the grid's square
    grid = render_julia(c, 6)
    h, near = 2.0**-6, grid.near_points()
    rng = random.Random(int(c.real))
    points = [
        rng.choice(near) + complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) * h
        for _ in range(400)
    ] + [complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)) for _ in range(100)]
    points = np.array(points)
    brute = np.array([abs(near - p).min() for p in points])
    window = _to_near_centers(grid, points)
    close = brute < 3.5 * h  # the window holds every center that near
    assert close.sum() > 300
    assert np.array_equal(window[close], brute[close])
    assert np.all(window[~close] >= 3.5 * h)


def test_rendering_brackets_hold_the_sampled_distance():
    """Each C09 value is the upper end of a bracket [lo, hi] of the exact
    Hausdorff distance.  The former sample-to-sample distance is at least
    lo, since the samples lie on the set; it can pass hi by up to half the
    spacing, since the centers were measured to samples, not to the set."""
    ts = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    cases = (
        (0j, np.cos(ts) + 1j * np.sin(ts), math.pi / 4096, lambda p: abs(abs(p) - 1)),
        (-2 + 0j, np.linspace(-2.0, 2.0, 8192) + 0j, 2 / 8191,
         lambda p: abs(p - np.clip(p.real, -2.0, 2.0))),
    )
    highs = []
    for c, samples, half, to_set in cases:
        grid = render_julia(c, 8)
        near = grid.near_points()
        exact, sampled = to_set(near).max(), _to_near_centers(grid, samples).max()
        lo, hi = max(exact, sampled), max(exact, sampled + half)
        former = hausdorff_distance(near, samples)
        assert lo <= former <= hi + half
        highs.append(hi)
    assert highs[0] == pytest.approx(0.003887, abs=1e-6)
    assert highs[1] == pytest.approx(0.003006, abs=1e-6)
    passed, detail = criterion_rendering_oracles()
    assert passed
    assert detail == f"circle {highs[0]:.4f}, segment {highs[1]:.4f}, bound 0.0078"
