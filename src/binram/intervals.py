"""Rigorous enclosures with exact rational endpoints.

An :class:`IntervalValue` is a pair of rationals [lo, hi] guaranteed to
contain a real number.  It defines no arithmetic: every enclosure in the
package is a closed form evaluated at the ends of one certified bracket, with
floor and ceiling putting its endpoints on a grid.  The outward-rounded
interval chain each closed form equals, or lies inside, is kept as the test
oracle in ``tests/interval_chain.py``.

Transcendental constants are produced from elementary certified brackets:
e and 1/e from truncated exponential series with explicit remainder bounds,
exp(-b) as the integer closed form of the b-th power of the 1/e bracket on a
10**-k grid (the powers carried from one b to the next larger one), square
roots from integer sqrt with outward rounding, and large rational powers by
fixed-point binary powering with outward rounding, as integer endpoints over
2**bits.
"""

from __future__ import annotations

import functools
import math

from .backend import Rat, as_rat


class IntervalValue:
    """Closed interval with exact rational endpoints enclosing a real.

    Never changed once built; two intervals are equal, and hash alike, when
    their endpoints are.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError(f"empty interval: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        if not isinstance(other, IntervalValue):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def strictly_below(self, other: "IntervalValue") -> bool:
        """True iff every point of self is < every point of other."""
        return self.hi < other.lo

    def __repr__(self):
        return f"IntervalValue({self.lo!r}, {self.hi!r})"


# -- certified constants ----------------------------------------------------


@functools.cache
def exp_neg1_enclosure(terms: int) -> IntervalValue:
    """Enclosure of 1/e from the alternating series sum (-1)^k / k!.

    Partial sums alternate around the limit, so consecutive partial sums
    bracket it exactly.  With m = terms, the Horner steps acc <- acc k +
    (-1)**k, k < m, from acc = 0 give acc = sum_{k<m} (-1)**k (m-1)!/k!: the
    two sums are acc / (m-1)! and (m acc + (-1)**m) / m!.  Cached per
    ``terms``: every exp(-b) at one precision powers the same bracket.
    """
    if terms < 3:
        raise ValueError("terms must be >= 3")
    acc = 0
    for k in range(terms):
        acc = acc * k + (-1) ** k
    s = Rat(acc, math.factorial(terms - 1))
    nxt = Rat(acc * terms + (-1) ** terms, math.factorial(terms))
    # sign of the omitted term decides which side the partial sum sits on
    lo, hi = (s, nxt) if nxt > s else (nxt, s)
    return IntervalValue(lo, hi)


_exp_neg_powers = {}  # terms -> (bracket, b, (nl**b, dl**b, nh**b, dh**b)) of the last call


def exp_neg_enclosure(b: int, terms: int, digits: int) -> IntervalValue:
    """Enclosure of exp(-b) for integer b >= 1, with endpoints on the grid
    10**-digits, by powering the 1/e bracket of ``exp_neg1_enclosure(terms)``.

    Integer closed form.  With the bracket [nl/dl, nh/dh] and 0 < nl/dl, the
    b-th powers give nl**b / dl**b <= exp(-b) <= nh**b / dh**b, and the
    endpoints returned are floor(nl**b 10**digits / dl**b) and
    ceil(nh**b 10**digits / dh**b), over 10**digits.  These are exactly the
    endpoints of the interval chain that raises the bracket to the b-th power
    and rounds it outward to the grid: the power of a rational p/q is the
    rational p**b / q**b, and outward rounding takes the floor (ceiling) of
    the same value times 10**digits.  No b-th power of a rational is reduced,
    compared or divided.

    Carried powers.  The four b-th powers of the last call are kept per
    ``terms``, with the bracket object they were raised from.  A call with
    the same bracket and b >= b' of that call gets x**b = x**b' x**(b-b'),
    one product per integer; a smaller b or another bracket (a new one, or
    one replaced in place) raises them from scratch.  The powers are exact
    either way, so the result does not depend on earlier calls; a walk over
    b = 1, 2, ... at one precision pays one product by each bracket integer
    per step.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    bracket = exp_neg1_enclosure(terms)
    ints = (bracket.lo.numerator, bracket.lo.denominator,
            bracket.hi.numerator, bracket.hi.denominator)
    last = _exp_neg_powers.get(terms)
    if last is not None and last[0] is bracket and last[1] <= b:
        step = b - last[1]
        powers = tuple(p * x**step for p, x in zip(last[2], ints))
    else:
        powers = tuple(x**b for x in ints)
    _exp_neg_powers[terms] = bracket, b, powers
    nl, dl, nh, dh = powers
    scale = 10**digits
    return IntervalValue(Rat(nl * scale // dl, scale), Rat(-(-nh * scale // dh), scale))


def e_enclosure(terms: int) -> IntervalValue:
    """Enclosure of e from sum 1/k!, k <= m = terms, with remainder bound
    1/(m! m); acc <- acc k + 1, k <= m, from 0 gives acc = sum_{k<=m} m!/k!."""
    if terms < 3:
        raise ValueError("terms must be >= 3")
    acc = 0
    for k in range(terms + 1):
        acc = acc * k + 1
    fact = math.factorial(terms)
    return IntervalValue(Rat(acc, fact), Rat(acc * terms + 1, fact * terms))


def sqrt_enclosure(x, digits: int) -> IntervalValue:
    """Enclosure of sqrt(x) for rational x >= 0, width <= 2 * 10**-digits."""
    x = as_rat(x)
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return IntervalValue(x, x)
    scale = 10**digits
    scaled = (x.numerator * scale * scale) // x.denominator
    root = math.isqrt(scaled)
    return IntervalValue(Rat(root, scale), Rat(root + 1, scale))


def power_enclosure(p: int, q: int, k: int, bits: int) -> tuple:
    """Integers (lo, hi) with lo / 2**bits <= (p/q)**k <= hi / 2**bits, for
    integers p >= q >= 1 and k >= 0; k = 0 gives lo = hi = 2**bits, for any q.

    Binary powering on fixed-point integers: the lower endpoint rounds p/q and
    every product down (``//``), the upper one up, so lo <= (p/q)**k <= hi.

    Width, with e = 2**-bits: every value on either track is >= 1 (p/q >= 1,
    and rounding down keeps a grid value >= 1), so each rounding changes it by
    a factor within [1-e, 1+e].  A rounding enters (p/q)**k as a w-th power:
    p/q with w = k, the square (p/q)**(2**j) with w = floor(k / 2**j), and each
    product after the first (exact) one with w = 1.  The weights sum to
    m = k + (k - popcount(k)) + (popcount(k) - 1) = 2k - 1, so
    (1-e)**m <= lo e / (p/q)**k and hi e / (p/q)**k <= (1+e)**m.  When
    2 k**2 <= 2**bits, m e < 1 and (hi - lo) e is at most
    (2 m e + (m e)**2) (p/q)**k <= 4 k e (p/q)**k, that is
    (hi - lo) q**k <= 4 k p**k.
    """
    one = 1 << bits
    if k == 0:
        return one, one
    if not 1 <= q <= p:
        raise ValueError(f"power_enclosure needs p >= q >= 1, got p={p}, q={q}")
    lo, hi = (p << bits) // q, -(-(p << bits) // q)
    acc_lo = acc_hi = one
    while True:
        if k & 1:
            acc_lo, acc_hi = acc_lo * lo >> bits, -(-acc_hi * hi >> bits)
        k >>= 1
        if not k:
            return acc_lo, acc_hi
        lo, hi = lo * lo >> bits, -(-hi * hi >> bits)


def terms_for_digits(digits: int) -> int:
    """Smallest series length m with 1/m! < 10**-(digits+5).

    That is the width of ``exp_neg1_enclosure(m)`` exactly; the width of
    ``e_enclosure(m)`` is 1/(m m!).
    """
    target = 10 ** (digits + 5)
    fact = 1
    m = 0
    while fact <= target:
        m += 1
        fact *= m
    return m
