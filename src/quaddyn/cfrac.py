"""Continued fractions with optional eventually periodic tails.

The convention throughout is x = 1/(r1 + 1/(r2 + ...)) for x in (0, 1); there
is no integer part.  Finite expansions are kept canonical (last quotient >= 2
once the length exceeds one) so that equal values have equal expansions.
Eventually periodic expansions evaluate exactly as quadratic surds.

mpmath is imported inside value_mpf and brjuno_partial_sums, its only
users, so the exact commands start without it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

from .errors import InvariantError, PrecisionError

__all__ = [
    "CFExpansion",
    "convergents",
    "convergent_pairs",
    "cf_expand",
    "gauss_orbit",
    "brjuno_sum",
    "brjuno_partial_sums",
    "perturbed_cf",
    "parse_cf_text",
]


@dataclass(frozen=True)
class CFExpansion:
    """Quotients plus an optional repeating tail block.

    tail=None means the expansion is finite (a rational value).  A present
    tail repeats forever after the listed quotients, so the value is a
    quadratic irrational.
    """

    quotients: tuple[int, ...] = ()
    tail: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "quotients", tuple(int(r) for r in self.quotients))
        if self.tail is not None:
            object.__setattr__(self, "tail", tuple(int(r) for r in self.tail))
            if not self.tail:
                raise InvariantError("repeating tail block must be nonempty")
        for r in self.quotients:
            if r < 1:
                raise InvariantError(f"partial quotients must be >= 1, got {r}")
        if self.tail is not None:
            for r in self.tail:
                if r < 1:
                    raise InvariantError(f"tail quotients must be >= 1, got {r}")
        if self.tail is None:
            if not self.quotients:
                raise InvariantError("finite expansion needs at least one quotient")
            # [..., r, 1] and [..., r + 1] are the same rational; fold to the latter
            q = self.quotients
            if len(q) >= 2 and q[-1] == 1:
                object.__setattr__(self, "quotients", q[:-2] + (q[-2] + 1,))

    # -- basic structure ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.tail is None

    def quotient(self, i: int) -> int:
        """0-based partial quotient, reading into the tail as needed."""
        if i < 0:
            raise InvariantError("quotient index must be >= 0")
        if i < len(self.quotients):
            return self.quotients[i]
        if self.tail is None:
            raise InvariantError(
                f"finite expansion has only {len(self.quotients)} quotients"
            )
        return self.tail[(i - len(self.quotients)) % len(self.tail)]

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self.quotient(i) for i in range(n))

    def shifted(self, k: int) -> "CFExpansion":
        """Drop the first k quotients (the Gauss map applied k times)."""
        if k < 0:
            raise InvariantError("shift must be >= 0")
        if self.tail is None and k >= len(self.quotients):
            raise InvariantError(
                f"cannot shift a finite expansion of length {len(self.quotients)} by {k}"
            )
        if k <= len(self.quotients):
            return CFExpansion(self.quotients[k:], self.tail)
        j = (k - len(self.quotients)) % len(self.tail)
        return CFExpansion((), self.tail[j:] + self.tail[:j])

    # -- exact values --------------------------------------------------------

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise InvariantError("expansion with a tail is irrational")
        p, q = _matrix_of(self.quotients)[0]
        return Fraction(p, q)

    def surd(self) -> tuple[int, int, int, int]:
        """Exact value as (a, b, c, d) meaning (a + b*sqrt(d)) / c with c > 0.

        Rational values return b = 0, d = 0.
        """
        if self.is_rational:
            f = self.as_fraction()
            return f.numerator, 0, f.denominator, 0
        # Tail fixed point t solves q1*t^2 + (q0 - p1)*t - p0 = 0 where
        # p0/q0 is the last convergent of one tail block and p1/q1 the
        # one before it.
        (p0, q0), (p1, q1) = _matrix_of(self.tail)
        aa = q1
        bb = q0 - p1
        cc = -p0
        disc = bb * bb - 4 * aa * cc
        if disc <= 0:
            raise InvariantError("tail fixed point has no real positive root")
        # t = (-bb + sqrt(disc)) / (2*aa), the root in (0, 1).
        if not self.quotients:
            return -bb, 1, 2 * aa, disc
        # theta = (pm + pm1 * t) / (qm + qm1 * t); rationalize the denominator.
        (pm, qm), (pm1, qm1) = _matrix_of(self.quotients)
        # Substitute t = (-bb + s)/(2 aa) with s = sqrt(disc):
        #   theta = (2*aa*pm - pm1*bb + pm1*s) / (2*aa*qm - qm1*bb + qm1*s)
        nu_c = 2 * aa * pm - pm1 * bb
        nu_s = pm1
        de_c = 2 * aa * qm - qm1 * bb
        de_s = qm1
        # Multiply by the conjugate of the denominator.
        a = nu_c * de_c - nu_s * de_s * disc
        b = nu_s * de_c - nu_c * de_s
        c = de_c * de_c - de_s * de_s * disc
        if c < 0:
            a, b, c = -a, -b, -c
        if c == 0:
            raise InvariantError("degenerate surd denominator")
        g = gcd(a, b, c)
        return a // g, b // g, c // g, disc

    def value_mpf(self, prec_bits: int = 128):
        """Evaluate to an mpf at the requested binary precision."""
        from mpmath import mp

        a, b, c, d = self.surd()
        with mp.workprec(prec_bits + 16):
            val = (mp.mpf(a) + mp.mpf(b) * mp.sqrt(d)) / c
            out = +val
        return out

    def bracket(self, max_width: Fraction) -> tuple[Fraction, Fraction]:
        """Exact rational interval of width <= max_width containing the value.

        Consecutive convergents straddle the value, so the bracket is
        certified without any floating point.
        """
        if max_width <= 0:
            raise InvariantError("bracket width must be positive")
        if self.is_rational:
            v = self.as_fraction()
            return v, v
        # while the bit lengths of q and prev_q sum to at most `short`,
        # q * prev_q * num < den, so the exact test cannot pass
        short = max_width.denominator.bit_length() - 1 - max_width.numerator.bit_length()
        quotients = map(self.quotient, itertools.count())
        for i, (p, q, prev_p, prev_q) in enumerate(_convergents(quotients), 1):
            can_pass = q.bit_length() + prev_q.bit_length() > short
            if i >= 2 and can_pass and Fraction(1, q * prev_q) <= max_width:
                lo, hi = Fraction(prev_p, prev_q), Fraction(p, q)
                return (lo, hi) if lo <= hi else (hi, lo)
            if i > 100_000:
                raise PrecisionError("bracket did not converge; width too small?")


def _convergents(quotients: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    """Yield (p, q, prev_p, prev_q) after each quotient; p/q is the newest convergent."""
    p, q, prev_p, prev_q = 0, 1, 1, 0
    for r in quotients:
        p, q, prev_p, prev_q = r * p + prev_p, r * q + prev_q, p, q
        yield p, q, prev_p, prev_q


def _matrix_of(quotients: Sequence[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Return ((p_m, q_m), (p_{m-1}, q_{m-1})) for a nonempty finite quotient list."""
    *_, (p, q, prev_p, prev_q) = _convergents(quotients)
    return (p, q), (prev_p, prev_q)


def convergent_pairs(cf: CFExpansion, n: int) -> list[tuple[int, int]]:
    """First n convergents as (p, q) integer pairs, p_1/q_1 = 1/r_1."""
    if n < 1:
        raise InvariantError("need at least one convergent")
    return [(p, q) for p, q, _, _ in _convergents(map(cf.quotient, range(n)))]


def convergents(cf: CFExpansion, n: int) -> list[Fraction]:
    """First n convergents as exact fractions."""
    return [Fraction(p, q) for p, q in convergent_pairs(cf, n)]


def cf_expand(x: Fraction) -> CFExpansion:
    """Expand an exact rational in (0, 1); the result is canonical."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise InvariantError(f"cf_expand needs a value in (0, 1), got {x}")
    quotients = []
    while x:
        inv = 1 / x
        r = inv.numerator // inv.denominator
        quotients.append(r)
        x = inv - r
    return CFExpansion(tuple(quotients))


def gauss_orbit(cf: CFExpansion, n: int, prec_bits: int = 128) -> list:
    """theta_1 .. theta_n where theta_k is the value of the k-shifted expansion.

    Each iterate is evaluated from its own shifted quotient list, so there is
    no error accumulation along the orbit.
    """
    if n < 1:
        raise InvariantError("need n >= 1")
    return [cf.shifted(k).value_mpf(prec_bits) for k in range(n)]


def brjuno_partial_sums(cf: CFExpansion, terms: int, prec_bits: int = 128) -> list:
    """Partial sums of sum_n theta_1*...*theta_{n-1} * log(1/theta_n)."""
    from mpmath import mp

    thetas = gauss_orbit(cf, terms, prec_bits + 16)
    sums = []
    with mp.workprec(prec_bits + 16):
        total = mp.mpf(0)
        weight = mp.mpf(1)
        for t in thetas:
            total += weight * mp.log(1 / t)
            weight *= t
            sums.append(+total)
    return sums


def brjuno_sum(cf: CFExpansion, terms: int, prec_bits: int = 128):
    """Brjuno function partial sum with the stated number of terms."""
    return brjuno_partial_sums(cf, terms, prec_bits)[-1]


# ceiling of q_n * bits(numerator of the amplitude), which bounds amplitude**q_n
MAX_PERTURBED_BITS = 2**22


def perturbed_cf(prefix: Sequence[int], amplitude) -> CFExpansion:
    """Insert floor(amplitude**q_n) after the prefix, then continue with 1s.

    q_n is the denominator of the prefix's last convergent.  The amplitude may
    be an int, Fraction, or float strictly greater than 1; floats convert
    exactly so the floor is computed without rounding.
    """
    prefix = tuple(int(r) for r in prefix)
    if not prefix:
        raise InvariantError("perturbation needs a nonempty prefix")
    for r in prefix:
        if r < 1:
            raise InvariantError("prefix quotients must be >= 1")
    amp = Fraction(amplitude)
    if amp <= 1:
        raise InvariantError(f"amplitude must exceed 1, got {amplitude}")
    (_, q_n), _ = _matrix_of(prefix)
    if q_n * amp.numerator.bit_length() > MAX_PERTURBED_BITS:
        raise InvariantError(f"amplitude**{q_n} is above the {MAX_PERTURBED_BITS}-bit ceiling")
    power = amp**q_n
    inserted = power.numerator // power.denominator
    return CFExpansion(prefix + (inserted,), tail=(1,))


def _quotient_list(body: str, error: str) -> tuple[int, ...]:
    """The ints of a comma list, blanks skipped, or InvariantError(error)."""
    try:
        return tuple(int(s) for s in body.split(",") if s.strip())
    except ValueError as exc:
        raise InvariantError(error) from exc


def parse_cf_text(text: str) -> CFExpansion:
    """Parse "1,1,1:rep=1" style expansion literals (optional "cf:" prefix)."""
    body = text.strip()
    if body.startswith("cf:"):
        body = body[3:]
    tail: tuple[int, ...] | None = None
    if ":" in body:
        head, _, rep = body.partition(":")
        rep = rep.strip()
        if not rep.startswith("rep="):
            raise InvariantError(f"expected rep=..., got {rep!r}")
        tail = _quotient_list(rep[4:], f"bad tail in {text!r}")
        if not tail:
            raise InvariantError(f"empty tail in {text!r}")
        body = head
    quotients = _quotient_list(body, f"bad quotient list in {text!r}")
    if not quotients and tail is None:
        raise InvariantError(f"empty expansion literal: {text!r}")
    return CFExpansion(quotients, tail)
