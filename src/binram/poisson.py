"""Rigorous enclosures for Poisson quantities at integer mean b.

Every Poisson probability below factors as (exact rational) * exp(-b), so the
only approximate ingredient is the enclosure of exp(-b), obtained by powering
a certified 1/e bracket.  All downstream intervals are therefore rigorous:
the true real value lies between the rational endpoints.

The headline quantity is y(b) = (1/2 - P(N < b)) / P(N = b) for N ~ Poisson(b),
classically confined to (1/3, 1/2) and decreasing, together with the
correction coefficients alpha(b) and beta(b) of its 1/b expansion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .backend import Rat
from .exactcore import DomainError, falling
from .intervals import (IntervalValue, e_enclosure, exp_neg_enclosure, sqrt_enclosure,
                        terms_for_digits)
from .precision import DEFAULT_POLICY, PrecisionError, PrecisionPolicy


def _digits_of_magnitude(b: int) -> int:
    """Upper bound on -log10(exp(-b)), used to pick absolute rounding grids."""
    return (b * 4343) // 10000 + 2


def _exp_neg_interval(b: int, digits: int) -> IntervalValue:
    """Enclosure of exp(-b) with relative width about 10**-digits."""
    terms = terms_for_digits(digits)
    raw = exp_neg_enclosure(b, terms)
    return raw.round_out(digits + _digits_of_magnitude(b) + 10)


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
    """Enclosure of y(b) = (1/2 - P(N < b)) / P(N = b)."""
    target = Rat(1, 10**policy.digits)
    s = tail_weight(b)
    t = pmf_weight(b)
    for digits in policy.escalation_digits():
        e = _exp_neg_interval(b, digits)
        y = ((Rat(1, 2) - s * e) / (t * e)).round_out(digits)
        if y.width() <= target:
            return y
    raise PrecisionError(f"y enclosure for b={b} did not reach width {target}")


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
    """
    last_exc = None
    for digits in policy.escalation_digits():
        y = y_poisson(b, PrecisionPolicy(digits=digits, max_escalations=1))
        try:
            alpha = 4 / ((y - Rat(1, 3)) * 135) - b
            squared = 8 / ((Rat(4, 135 * b) + Rat(1, 3) - y) * 2835)
        except ZeroDivisionError as exc:
            last_exc = exc
            continue
        if not squared.lo > 0:
            last_exc = None
            continue
        root = IntervalValue(
            sqrt_enclosure(squared.lo, digits).lo,
            sqrt_enclosure(squared.hi, digits).hi,
        )
        beta = root - b
        return y, alpha.round_out(digits), beta.round_out(digits)
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
    inner = (e * (-135) + 368) * 21
    if not inner.lo > 0:
        raise PrecisionError("e enclosure too wide for the beta bound")
    root = IntervalValue(
        sqrt_enclosure(inner.lo, digits).lo, sqrt_enclosure(inner.hi, digits).hi
    )
    return 4 * root.reciprocal() - 1


@dataclass(frozen=True)
class PoissonSummary:
    """All enclosed quantities for one b."""

    b: int
    tail: IntervalValue
    pmf_at_b: IntervalValue
    y: IntervalValue
    alpha: IntervalValue
    beta: IntervalValue


def summarize(b: int, policy: PrecisionPolicy = DEFAULT_POLICY) -> PoissonSummary:
    digits = policy.digits
    e = _exp_neg_interval(b, digits)
    tail = (tail_weight(b) * e).round_out(digits)
    pmf = (pmf_weight(b) * e).round_out(digits)
    y, alpha, beta = alpha_beta(b, policy)
    return PoissonSummary(b=b, tail=tail, pmf_at_b=pmf, y=y, alpha=alpha, beta=beta)


# -- exact factorial-moment identities ---------------------------------------


def factorial_moment_identity(b: int, s: int) -> bool:
    """Exact check of E[N^(s) 1(N<b)] = b**s P(N < b-s), comparing the rational
    weights after the common exp(-b) factor cancels."""
    if not (1 <= s <= b):
        raise DomainError("need 1 <= s <= b")
    w = list(poisson_weights(b))
    lhs = sum(w[i] * falling(i, s) for i in range(s, b))
    rhs = b**s * sum(w[: b - s])
    return lhs == rhs


def factorial_moment_row(b: int) -> list:
    """[factorial_moment_identity(b, s) for s = 1..b] in one pass: the column
    w_i i^(s) advances by the factor (i-s+1), the right side is b**s times a
    prefix sum.  Neither side is re-indexed (i -> i-s would make the sums
    equal term by term, so the check would hold by construction)."""
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

    as an exact rational weight times the exp(-b) enclosure.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if which not in ("h1", "h2"):
        raise DomainError("which must be 'h1' or 'h2'")
    acc = sum(w * (b - i) ** k * (i if which == "h2" else 1)
              for i, w in enumerate(poisson_weights(b)))
    weight = Rat(acc, math.factorial(b - 1))
    digits = policy.digits
    return (weight * _exp_neg_interval(b, digits)).round_out(digits)


def falling_factorial_sum(k: int, s: int) -> int:
    """Exact sum_{i=0}^{k} (-1)**i C(k, i) i^(s); vanishes whenever s < k."""
    if k < 0 or s < 0:
        raise DomainError("k and s must be >= 0")
    return sum((-1) ** i * math.comb(k, i) * falling(i, s) for i in range(k + 1))
