"""Checks that do not call the code they check.

Each oracle recomputes a property of a quaddyn result from the mathematics
behind it (closed forms, identities, symmetries, documented geometry), using
only Python integers, fractions, mpmath and numpy/scipy directly.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# -- continued fractions ------------------------------------------------------


def quotient(pre: tuple, per: tuple, i: int) -> int:
    return pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]


def convergents(pre: tuple, per: tuple, count: int) -> list[tuple[int, int]]:
    """(p_k, q_k) for k = 1..count, from the three-term recurrence."""
    out, p, q, p0, q0 = [], 0, 1, 1, 0
    for i in range(count):
        r = quotient(pre, per, i)
        p, p0 = r * p + p0, p
        q, q0 = r * q + q0, q
        out.append((p, q))
    return out


def theta_mpf(pre: tuple, per: tuple, prec: int):
    """The angle to prec bits, as a convergent with q^2 beyond 2^(prec + 16)."""
    from mpmath import mp, mpf

    k = 8
    while True:
        p, q = convergents(pre, per, k)[-1]
        if q.bit_length() * 2 > prec + 16:
            with mp.workprec(prec + 16):
                return mpf(p) / q
        k *= 2


def theta_float(pre: tuple, per: tuple, shift: int = 0) -> float:
    """Value of the expansion shifted by `shift`, by backward evaluation."""
    x = 0.0
    for i in range(shift + 80, shift - 1, -1):
        x = 1.0 / (quotient(pre, per, i) + x)
    return x


# -- doubling-map combinatorics -----------------------------------------------


def landing_pair(p: int, q: int) -> tuple[Fraction, Fraction]:
    """Closed-form landing pair of the p/q wake (Goldberg; Bullett-Sentenac).

    theta_plus = w/(2^q - 1) where bit k of w (k = 1..q, most significant
    first) is [k p mod q >= q - p], and theta_minus = theta_plus - 1/(2^q - 1).
    """
    w = 0
    for k in range(1, q + 1):
        w = (w << 1) | ((k * p) % q >= q - p)
    m = (1 << q) - 1
    return Fraction(w - 1, m), Fraction(w, m)


def external_angle(pre: tuple, per: tuple, n: int) -> tuple[Fraction, int]:
    """The documented stopping rule run on closed-form landing pairs.

    Returns the approximation and the number of iterates used.
    """
    threshold = Fraction(1, 2**n)
    prev, iterates = None, 0
    for p, q in convergents(pre, per, 600):
        if p >= q:
            continue
        current = landing_pair(p, q)[0]
        iterates += 1
        if prev is not None:
            d = abs(current - prev)
            if min(d, 1 - d) < threshold:
                return current, iterates
        prev = current
    raise Mismatch("oracle stopping rule did not fire")


def check_cycle(nums: list[Fraction], p: int, q: int) -> None:
    """A sorted q-cycle of doubling on which doubling shifts indices by p."""
    require(len(nums) == q and nums == sorted(nums), "cycle not sorted or wrong size")
    m = (1 << q) - 1
    index = {x: i for i, x in enumerate(nums)}
    for i, x in enumerate(nums):
        require((x * m).denominator == 1, f"{x} is not k/(2^q - 1)")
        j = index.get((2 * x) % 1)
        require(j is not None and (j - i) % q == p, f"doubling does not shift {x} by {p}")


def membership(a: Fraction, alpha: Fraction, depth: int, margin: Fraction):
    """Expected membership verdict, or None near the arc endpoints."""
    low = alpha / 2
    x, seen = a % 1, set()
    for _ in range(depth + 1):
        if x in seen:
            break
        seen.add(x)
        rel = (x - low) % 1
        if margin <= rel <= Fraction(1, 2) - margin:
            pass
        elif Fraction(1, 2) + margin <= rel <= 1 - margin:
            return "outside"
        else:
            return None
        x = (2 * x) % 1
    return "inside"


# -- carved-square domain -----------------------------------------------------


def seq_term(const: Fraction, sign: int, base: int, k: int) -> Fraction:
    return const + sign * Fraction(1, base**k)


def in_domain(a_of, b_of, depth: int, x: Fraction, y: Fraction) -> str:
    """Location of a rational point from the documented slab geometry."""
    if abs(x) > 1 or abs(y) > 1:
        return "inside"
    if y <= 0:
        return "outside"
    if y <= Fraction(1, 3**depth):
        return "undecided"
    k = 1
    while Fraction(1, 3**k) >= y:
        k += 1
    a, b, u = a_of(k), b_of(k), Fraction(1, 3 ** (k + 1))
    if not (-b < x < b and 3 * u < y <= 9 * u):
        return "outside"
    if -b <= x <= a and 8 * u <= y <= 9 * u:
        return "outside"
    if -a <= x <= b and 5 * u <= y <= 6 * u:
        return "outside"
    return "inside"


# -- planar dynamics ----------------------------------------------------------


def hausdorff(points_a, points_b) -> float:
    import numpy as np
    from scipy.spatial import cKDTree

    pa = np.column_stack([np.real(points_a), np.imag(points_a)])
    pb = np.column_stack([np.real(points_b), np.imag(points_b)])
    return float(max(cKDTree(pb).query(pa)[0].max(), cKDTree(pa).query(pb)[0].max()))


def julia_model(c: complex):
    """Dense samples of the Julia set where it is known in closed form."""
    import numpy as np

    if c == 0:
        ts = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        return np.cos(ts) + 1j * np.sin(ts)
    if c == -2:
        return np.linspace(-2.0, 2.0, 8192) + 0j
    return None


def doubling_period(angle: Fraction) -> int:
    """Multiplicative order of 2 modulo the (odd) denominator."""
    q, p, power = angle.denominator, 1, 2 % angle.denominator
    while power != 1 % q:
        power, p = (2 * power) % q, p + 1
    return p


def landing_point(c: complex, angle: Fraction):
    """Closed-form landing point of an external ray, where one is known."""
    if c == 0:
        return cmath.exp(2j * math.pi * float(angle))
    if c == -2:
        return complex(2 * math.cos(2 * math.pi * float(angle)), 0.0)
    return None
