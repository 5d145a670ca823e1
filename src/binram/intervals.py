"""Rigorous enclosures with exact rational endpoints.

An :class:`IntervalValue` is a pair of rationals [lo, hi] guaranteed to
contain a real number.  Arithmetic is outward-directed: every operation
returns an interval containing the exact image of its operands, so chains of
operations stay rigorous.  Endpoint blow-up is controlled with
:meth:`IntervalValue.round_out`, which widens to a fixed power-of-ten grid.

Transcendental constants are produced from elementary certified brackets:
e and 1/e from truncated exponential series with explicit remainder bounds,
square roots from integer sqrt with outward rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .backend import Rat, as_rat

@dataclass(frozen=True)
class IntervalValue:
    """Closed interval with exact rational endpoints enclosing a real."""

    lo: object
    hi: object

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "IntervalValue":
        x = as_rat(x)
        return cls(x, x)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "IntervalValue":
        other = _coerce(other)
        return IntervalValue(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "IntervalValue":
        return IntervalValue(-self.hi, -self.lo)

    def __sub__(self, other) -> "IntervalValue":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "IntervalValue":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "IntervalValue":
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return IntervalValue(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "IntervalValue":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return IntervalValue(1 / as_rat(self.hi), 1 / as_rat(self.lo))

    def __truediv__(self, other) -> "IntervalValue":
        return self * _coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "IntervalValue":
        return _coerce(other) * self.reciprocal()

    def __pow__(self, k: int) -> "IntervalValue":
        """The k-th power, for k >= 1 and an interval with lo >= 0."""
        if k < 1 or self.lo < 0:
            raise ValueError("power needs k >= 1 and a nonnegative interval")
        return IntervalValue(as_rat(self.lo) ** k, as_rat(self.hi) ** k)

    # -- structure ----------------------------------------------------------

    def width(self):
        return self.hi - self.lo

    def midpoint(self):
        return (as_rat(self.lo) + self.hi) / 2

    def contains(self, x) -> bool:
        x = as_rat(x)
        return self.lo <= x <= self.hi

    def strictly_below(self, other) -> bool:
        """True iff every point of self is < every point of other."""
        other = _coerce(other)
        return self.hi < other.lo

    def round_out(self, digits: int) -> "IntervalValue":
        """Widen endpoints outward to denominator 10**digits (caps size growth)."""
        scale = 10**digits
        lo = as_rat(self.lo)
        hi = as_rat(self.hi)
        lo_scaled = (lo.numerator * scale) // lo.denominator  # floor
        hi_scaled = -((-hi.numerator * scale) // hi.denominator)  # ceil
        return IntervalValue(Rat(lo_scaled, scale), Rat(hi_scaled, scale))

    def __repr__(self):
        return f"IntervalValue({self.lo!r}, {self.hi!r})"


def _coerce(x) -> IntervalValue:
    if isinstance(x, IntervalValue):
        return x
    return IntervalValue.point(x)


# -- certified constants ----------------------------------------------------


def exp_neg1_enclosure(terms: int) -> IntervalValue:
    """Enclosure of 1/e from the alternating series sum (-1)^k / k!.

    Partial sums alternate around the limit, so consecutive partial sums
    bracket it exactly.
    """
    if terms < 3:
        raise ValueError("terms must be >= 3")
    s = Rat(0)
    fact = 1
    term = Rat(0)
    for k in range(terms):
        if k > 0:
            fact *= k
        term = Rat((-1) ** k, fact)
        s += term
    nxt = s + Rat((-1) ** terms, fact * terms if terms else 1)
    # sign of the omitted term decides which side the partial sum sits on
    lo, hi = (s, nxt) if nxt > s else (nxt, s)
    return IntervalValue(lo, hi)


def exp_neg_enclosure(b: int, terms: int) -> IntervalValue:
    """Enclosure of exp(-b) for integer b >= 1 by powering the 1/e bracket."""
    if b < 1:
        raise ValueError("b must be >= 1")
    return exp_neg1_enclosure(terms) ** b


def e_enclosure(terms: int) -> IntervalValue:
    """Enclosure of e from sum 1/k! with remainder bound 1/(m! * m)."""
    if terms < 3:
        raise ValueError("terms must be >= 3")
    s = Rat(0)
    fact = 1
    for k in range(terms + 1):
        if k > 0:
            fact *= k
        s += Rat(1, fact)
    return IntervalValue(s, s + Rat(1, fact * terms))


def sqrt_enclosure(x, digits: int) -> IntervalValue:
    """Enclosure of sqrt(x) for rational x >= 0, width <= 2 * 10**-digits."""
    x = as_rat(x)
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return IntervalValue.point(0)
    scale = 10**digits
    scaled = (x.numerator * scale * scale) // x.denominator
    root = math.isqrt(scaled)
    return IntervalValue(Rat(root, scale), Rat(root + 1, scale))


def terms_for_digits(digits: int) -> int:
    """Smallest series length m with 1/(m+1)! < 10**-(digits+5)."""
    target = 10 ** (digits + 5)
    fact = 1
    m = 0
    while fact <= target:
        m += 1
        fact *= m
    return m
