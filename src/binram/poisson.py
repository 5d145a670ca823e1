"""Rigorous enclosures for Poisson quantities at integer mean b.

Every Poisson probability below factors as (exact rational) * exp(-b), so the
only approximate ingredient is the enclosure of exp(-b), obtained by powering
a certified 1/e bracket.  All downstream intervals are therefore rigorous:
the true real value lies between the rational endpoints.

y, alpha, beta, the tail, the pmf and the truncated moments are integer
closed forms on a 10**-k grid: each endpoint is one floor or ceiling division
of integers, equal to the endpoint the outward interval chain over exact
rationals would give (proofs in the docstrings).  The chains themselves
live in the tests, as the oracle these forms are checked against.

The headline quantity is y(b) = (1/2 - P(N < b)) / P(N = b) for N ~ Poisson(b),
classically confined to (1/3, 1/2) and decreasing, together with the
correction coefficients alpha(b) and beta(b) of its 1/b expansion.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .backend import Rat
from .exactcore import DomainError
from .intervals import (IntervalValue, e_enclosure, exp_neg_enclosure, sqrt_enclosure,
                        terms_for_digits)
from .precision import DEFAULT_POLICY, PrecisionError, PrecisionPolicy


def _digits_of_magnitude(b: int) -> int:
    """Upper bound on -log10(exp(-b)), used to pick absolute rounding grids."""
    return (b * 4343) // 10000 + 2


def _exp_neg_interval(b: int, digits: int) -> IntervalValue:
    """Enclosure of exp(-b) with relative width about 10**-digits."""
    k = digits + _digits_of_magnitude(b) + 10
    return exp_neg_enclosure(b, terms_for_digits(digits), k)


def _times_exp_neg(num: int, den: int, e: IntervalValue, digits: int) -> IntervalValue:
    """Enclosure of (num / den) exp(-b) on the grid 10**-digits, for integers
    num >= 0 and den >= 1 and the enclosure e = [p_lo / q_lo, p_hi / q_hi]
    of exp(-b) from ``_exp_neg_interval``.

    Integer closed form of the interval chain (num / den) e, rounded outward
    to the grid.  As num / den >= 0, the product is
    [num p_lo / (den q_lo), num p_hi / (den q_hi)], and outward rounding puts
    the floor and the ceiling of each end times 10**digits over 10**digits:
    one integer division per endpoint.
    """
    scale = 10**digits
    return IntervalValue(Rat(num * e.lo.numerator * scale // (den * e.lo.denominator), scale),
                         Rat(-(-num * e.hi.numerator * scale // (den * e.hi.denominator)), scale))


def _on_grid(q, scale: int) -> int:
    """The integer q * scale, for a rational q whose denominator divides scale."""
    return q.numerator * (scale // q.denominator)


def poisson_weights(b: int):
    """Yield the integers w_i = b**i (b-1)! / i! for i = 0..b-1, so that
    P(N = i) = w_i exp(-b) / (b-1)!."""
    if b < 1:
        raise DomainError("b must be >= 1")
    w = math.factorial(b - 1)
    for i in range(b):
        yield w
        w = w * b // (i + 1)


def tail_weight(b: int) -> "Rat":
    """Exact rational S with P(N < b) = S * exp(-b): S = sum_{i<b} b**i / i!."""
    return Rat(sum(poisson_weights(b)), math.factorial(b - 1))


def pmf_weight(b: int) -> "Rat":
    """Exact rational with P(N = b) = (b**b / b!) * exp(-b)."""
    return Rat(b**b, math.factorial(b))


def y_poisson(b: int, policy: PrecisionPolicy = DEFAULT_POLICY) -> IntervalValue:
    """Enclosure of y(b) = (1/2 - P(N < b)) / P(N = b), on the grid 10**-d of
    the first attempt d in ``policy.escalation_digits()`` whose width is at
    most 10**-policy.digits.

    Integer closed form of the interval chain (1/2 - s e) / (t e), rounded
    outward to the grid 10**-d, with s = sn/sd = tail_weight(b),
    t = tn/td = pmf_weight(b) and e in [L, H] / M from ``exp_neg_enclosure``
    over a common denominator M.
    Write y(E1, E2) for (1/2 - s E1/M) / (t E2/M) = N(E1) / (2 sd tn E2), with
    N(E) = td (sd M - 2 sn E).  The chain divides [N(H), N(L)] / (2 sd td M)
    by [tn H, tn L] / (td M), with L > 0, so its least value
    is y(H, H) when N(H) >= 0 and y(H, L) otherwise, and its greatest is
    y(L, L) when N(L) >= 0 and y(L, H) otherwise.  Floor and ceiling put
    these on the grid 10**-d, and the width test
    (y_hi - y_lo) / 10**d <= 10**-policy.digits is checked in integers.
    L = 0 raises ZeroDivisionError, as the chain's division by an interval
    containing 0 does.
    """
    s = tail_weight(b)
    t = pmf_weight(b)
    den = 2 * s.denominator * t.numerator
    for digits in policy.escalation_digits():
        e = _exp_neg_interval(b, digits)
        m = math.lcm(e.lo.denominator, e.hi.denominator)
        lo_e, hi_e = _on_grid(e.lo, m), _on_grid(e.hi, m)
        n_lo = t.denominator * (s.denominator * m - 2 * s.numerator * hi_e)
        n_hi = t.denominator * (s.denominator * m - 2 * s.numerator * lo_e)
        scale = 10**digits
        y_lo = n_lo * scale // (den * (hi_e if n_lo >= 0 else lo_e))
        y_hi = -(-n_hi * scale // (den * (lo_e if n_hi >= 0 else hi_e)))
        if (y_hi - y_lo) * 10**policy.digits <= scale:
            return IntervalValue(Rat(y_lo, scale), Rat(y_hi, scale))
    raise PrecisionError(f"y enclosure for b={b} did not reach width {Rat(1, 10**policy.digits)}")


def alpha_beta(b: int, policy: PrecisionPolicy = DEFAULT_POLICY):
    """Enclosures (y, alpha, beta) of y(b), from y_poisson, and of the
    expansion coefficients alpha(b), beta(b) computed from that y:

        y = 1/3 + 4 / (135 (b + alpha)),
        y = 1/3 + 4/(135 b) - 8 / (2835 (b + beta)**2).

    The squared denominator is the form under which the classical sharp bound
    -1 + 4/sqrt(21(368 - 135e)) is attained exactly at b = 1; the frequently
    reprinted variant with denominator (b**2 + beta) leaves beta unbounded
    below and is incompatible with that bound from b = 2 on.

    Escalates precision until neither defining denominator interval straddles
    zero; raises PrecisionError if the budget runs out first.

    Integer closed form of the interval chain

        alpha   = 4 / ((y - 1/3) 135) - b,
        squared = 8 / ((4/(135 b) + 1/3 - y) 2835),
        beta    = [sqrt_enclosure(squared.lo, d).lo,
                   sqrt_enclosure(squared.hi, d).hi] - b,

    with alpha and beta rounded outward to the grid 10**-d.

    y_poisson at d digits with one escalation puts y on the grid 10**-d or
    10**-2d, so y = [Y_lo, Y_hi] / E with E = 10**2d.  Then
    (y - 1/3) 135 = X(Y) / E with X(Y) = 45 (3 Y - E), increasing in Y, and
    (4/(135 b) + 1/3 - y) 2835 = Z(Y) / (b E) with
    Z(Y) = 21 ((4 + 45 b) E - 135 b Y), decreasing in Y.  Dividing 1 by an
    interval [u, v] not containing 0 gives [1/v, 1/u] on either side of 0, so

        alpha   = [4 E / X(Y_hi) - b, 4 E / X(Y_lo) - b],
        squared = [8 b E / Z(Y_lo), 8 b E / Z(Y_hi)],

    and an X or Z interval containing 0 is the chain's ZeroDivisionError.
    squared.lo > 0 holds exactly when both Z are positive.  With D = 10**d,
    floor and ceiling give alpha on the grid 1/D (b D is an integer), and
    sqrt_enclosure's floor(x D**2) gives the roots isqrt(floor(8 b E D**2 / Z(Y_lo)))
    and isqrt(floor(8 b E D**2 / Z(Y_hi))) + 1, over D, which outward rounding
    leaves as they are.
    """
    last_exc = None
    for digits in policy.escalation_digits():
        y = y_poisson(b, PrecisionPolicy(digits=digits, max_escalations=1))
        y_scale = 10 ** (2 * digits)
        y_lo, y_hi = _on_grid(y.lo, y_scale), _on_grid(y.hi, y_scale)
        x_lo, x_hi = 45 * (3 * y_lo - y_scale), 45 * (3 * y_hi - y_scale)
        z_lo = 21 * ((4 + 45 * b) * y_scale - 135 * b * y_hi)
        z_hi = 21 * ((4 + 45 * b) * y_scale - 135 * b * y_lo)
        if x_lo <= 0 <= x_hi or z_lo <= 0 <= z_hi:
            last_exc = ZeroDivisionError("interval contains zero")
            continue
        if z_lo < 0:
            last_exc = None
            continue
        scale = 10**digits
        alpha = IntervalValue(Rat(4 * y_scale * scale // x_hi - b * scale, scale),
                              Rat(-(-4 * y_scale * scale // x_lo) - b * scale, scale))
        root_lo = math.isqrt(8 * b * y_scale * scale**2 // z_hi)
        root_hi = math.isqrt(8 * b * y_scale * scale**2 // z_lo) + 1
        beta = IntervalValue(Rat(root_lo - b * scale, scale), Rat(root_hi - b * scale, scale))
        return y, alpha, beta
    raise PrecisionError(f"alpha/beta for b={b}: denominator stayed inconclusive") from last_exc


def beta_meets_upper_bound(b: int, beta: IntervalValue, bound: IntervalValue) -> bool:
    """Check an enclosure of beta(b) against one of the sharp upper bound
    -1 + 4/sqrt(21(368 - 135e)).

    beta(1) equals the bound, so at b = 1 the two enclosures must overlap,
    which they do whenever both are rigorous; every b >= 2 lies strictly below.
    """
    if b == 1:
        return beta.lo <= bound.hi and bound.lo <= beta.hi
    return beta.hi < bound.lo


def beta_upper_bound(digits: int = 40) -> IntervalValue:
    """Enclosure of the sharp upper bound -1 + 4/sqrt(21(368 - 135e)) for
    beta(b); beta(1) attains it exactly."""
    e = e_enclosure(terms_for_digits(digits))
    # 21 (368 - 135 e) decreases in e, and the bound decreases in it
    inner_lo, inner_hi = 21 * (368 - 135 * e.hi), 21 * (368 - 135 * e.lo)
    if not inner_lo > 0:
        raise PrecisionError("e enclosure too wide for the beta bound")
    return IntervalValue(4 / sqrt_enclosure(inner_hi, digits).hi - 1,
                         4 / sqrt_enclosure(inner_lo, digits).lo - 1)


class PoissonSummary(NamedTuple):
    """All enclosed quantities for one b."""

    b: int
    tail: IntervalValue
    pmf_at_b: IntervalValue
    y: IntervalValue
    alpha: IntervalValue
    beta: IntervalValue


def summarize(b: int, policy: PrecisionPolicy = DEFAULT_POLICY) -> PoissonSummary:
    """Enclosures of P(N < b) and P(N = b) on the grid 10**-policy.digits,
    with y, alpha and beta from ``alpha_beta``."""
    digits = policy.digits
    e = _exp_neg_interval(b, digits)
    s, t = tail_weight(b), pmf_weight(b)
    tail = _times_exp_neg(s.numerator, s.denominator, e, digits)
    pmf = _times_exp_neg(t.numerator, t.denominator, e, digits)
    y, alpha, beta = alpha_beta(b, policy)
    return PoissonSummary(b=b, tail=tail, pmf_at_b=pmf, y=y, alpha=alpha, beta=beta)


# -- exact factorial-moment identities ---------------------------------------


def factorial_moment_row(b: int) -> list:
    """Exact checks of E[N^(s) 1(N<b)] = b**s P(N < b-s) for s = 1..b, on the
    integer weights w_i after the common factor exp(-b) / (b-1)! cancels, as
    a list of booleans in one pass: the column w_i i^(s) advances by the
    factor (i-s+1), the right side is b**s times a prefix sum.  Neither side
    is re-indexed (i -> i-s would make the sums equal term by term, so the
    check would hold by construction)."""
    col = list(poisson_weights(b))
    prefix = list(itertools.accumulate(col, initial=0))  # prefix[m] = sum_{i<m} w_i
    row, power = [], 1
    for s in range(1, b + 1):
        col = [c * (i - s + 1) for i, c in enumerate(col)]
        power *= b
        row.append(sum(col) == power * prefix[b - s])
    return row


def truncated_moment(
    b: int,
    k: int,
    which: str = "h1",
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> IntervalValue:
    """Enclosure of the truncated moment

        h1: E[(b-N)**k 1(N<b)]      h2: E[N (b-N)**k 1(N<b)]

    on the grid 10**-d, d = policy.digits: an exact rational weight times the
    exp(-b) enclosure.

    The weight is A / (b-1)! for the integer weight sum
    A = sum_i w_i (b-i)**k (times i for h2), and A >= 0, so the enclosure is
    ``_times_exp_neg``'s closed form.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if which not in ("h1", "h2"):
        raise DomainError("which must be 'h1' or 'h2'")
    acc = sum(w * (b - i) ** k * (i if which == "h2" else 1)
              for i, w in enumerate(poisson_weights(b)))
    return _times_exp_neg(acc, math.factorial(b - 1), _exp_neg_interval(b, policy.digits),
                          policy.digits)


def falling_factorial_sum(k: int, s: int) -> int:
    """Exact sum_{i=0}^{k} (-1)**i C(k, i) i^(s); vanishes whenever s < k."""
    if k < 0 or s < 0:
        raise DomainError("k and s must be >= 0")
    return sum((-1) ** i * math.comb(k, i) * math.perm(i, s) for i in range(k + 1))
