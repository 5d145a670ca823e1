"""Small-deviations reduction: two-point unit-mean sums versus shifted
binomial tails.

Minimizing P(X1 + ... + Xn < n + c) over i.i.d. non-negative unit-mean
variables reduces to two-point distributions, and for a two-point support
{alpha, beta} the sum's tail is exactly a binomial tail.  The reference
family is the shifted tail  tp(c, b, n) = P(Bin(n, b/(n+c)) < b).  Everything
here is exact rational arithmetic; the 2**n brute-force enumeration used by
tests lives with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .backend import Rat, as_rat
from .exactcore import DomainError, tail_pmf_numerators
from .report import ViolationReport


@dataclass(frozen=True)
class TwoPointDist:
    """Unit-mean distribution on {alpha, beta} with 0 <= alpha < 1 < beta."""

    alpha: object
    beta: object

    def __post_init__(self):
        a, b = as_rat(self.alpha), as_rat(self.beta)
        if not (0 <= a < 1 < b):
            raise DomainError(f"need 0 <= alpha < 1 < beta, got {a}, {b}")

    @property
    def p_beta(self):
        """P(X = beta) = (1 - alpha) / (beta - alpha), making the mean 1."""
        a, b = as_rat(self.alpha), as_rat(self.beta)
        return (1 - a) / (b - a)


@dataclass(frozen=True)
class SmallDevSpec:
    """Shift c > 0 and the pair (b, n) of the shifted binomial Bin(n, b/(n+c))."""

    c: object
    b: int
    n: int

    def __post_init__(self):
        if as_rat(self.c) <= 0:
            raise DomainError("c must be > 0")
        if not (1 <= self.b <= self.n):
            raise DomainError("need 1 <= b <= n")


def binomial_tail_below(n: int, q, b: int):
    """Exact P(Bin(n, q) < b) for rational q in [0, 1]."""
    q = as_rat(q)
    if not (0 <= q <= 1):
        raise DomainError("q outside [0, 1]")
    if b <= 0:
        return Rat(0)
    if b > n:
        return Rat(1)
    r = int(q.denominator)
    return Rat(tail_pmf_numerators(n, b, int(q.numerator), r)[0], r**n)


def tilde_p(spec: SmallDevSpec):
    """Exact tp(c, b, n) = P(Bin(n, b/(n+c)) < b)."""
    c = as_rat(spec.c)
    q = spec.b / (spec.n + c)
    if q >= 1:
        raise DomainError("b/(n+c) must be < 1")
    return binomial_tail_below(spec.n, q, spec.b)


def two_point_tail(dist: TwoPointDist, n: int):
    """The exact sum-tail of n i.i.d. copies of the two-point distribution.

    Returns (b, p) where b = ceil((n+1 - n*alpha)/(beta - alpha)) and
    p = P(X1+...+Xn < n+1) = P(Bin(n, p_beta) < b).  Integer ceiling
    arguments map to themselves.
    """
    a, be = as_rat(dist.alpha), as_rat(dist.beta)
    b = math.ceil((n + 1 - n * a) / (be - a))
    p = binomial_tail_below(n, dist.p_beta, b)
    return b, p


def verify_samuels(n_max: int):
    """Exact check of tp(1, 1, n) <= tp(1, b, n) for all 2 <= b, 2b <= n <= n_max.

    Returns the list of violations (expected empty).
    """
    if n_max < 4:
        raise DomainError("n_max must be >= 4")
    violations = []
    for n in range(4, n_max + 1):
        floor_val = tilde_p(SmallDevSpec(1, 1, n))  # equals (n/(n+1))**n
        for b in range(2, n // 2 + 1):
            val = tilde_p(SmallDevSpec(1, b, n))
            if not (floor_val <= val):
                violations.append(
                    ViolationReport.from_rationals("samuels", b, n, val, floor_val)
                )
    return violations


@dataclass
class ConjectureScanResult:
    """Grid scan of the two-point minimum against the shifted-tail family."""

    n: int
    grid_step: object
    violations: list = field(default_factory=list)
    equality_witnesses: list = field(default_factory=list)  # (alpha, beta, b)
    degenerate_points: int = 0  # b > n: both tails are exactly 1


def conjecture_scan(n: int, grid_step) -> ConjectureScanResult:
    """Exact exhaustive check of P(sum < n+1) >= tp(1, b, n) on a rational grid.

    alpha runs over {0, step, ...} in [0, 1); beta over {1+step, ...} up to
    n+2 (beyond beta = n+1 the tail is constant for alpha = 0).  b is taken
    from the two-point reduction.  Equality witnesses are recorded; they are
    expected exactly at alpha = 0 with (n+1)/beta an integer.
    """
    step = as_rat(grid_step)
    if n > 60:
        raise DomainError("scan guarded at n <= 60")
    if step > Rat(1, 10):
        raise DomainError("grid_step must be <= 1/10")
    result = ConjectureScanResult(n=n, grid_step=step)
    refs = {b: tilde_p(SmallDevSpec(1, b, n)) for b in range(1, n + 1)}
    alpha = Rat(0)
    while alpha < 1:
        beta = 1 + step
        while beta <= n + 2:
            dist = TwoPointDist(alpha, beta)
            b, p = two_point_tail(dist, n)
            if b > n:
                # sum < n+1 is certain and the reference tail is 1 as well
                result.degenerate_points += 1
                beta += step
                continue
            ref = refs[b]
            if p < ref:
                result.violations.append(
                    ViolationReport.from_rationals(
                        "conjecture", b, n, p, ref, note=f"alpha={alpha} beta={beta}"
                    )
                )
            elif p == ref:
                result.equality_witnesses.append((alpha, beta, b))
            beta += step
        alpha += step
    return result


def tilde_p_monotonicity_scan(c, n_max: int):
    """Exact sign map of tp(c, b+1, n) - tp(c, b, n) for 1 <= b < n <= n_max.

    The underlying monotonicity statement is open, so this records signs
    instead of asserting; decreases are returned separately for inspection.
    """
    if not 2 <= n_max <= 400:
        raise DomainError(f"scan needs 2 <= n_max <= 400, got {n_max}")
    c = as_rat(c)
    signs = {}
    decreases = []
    for n in range(2, n_max + 1):
        prev = tilde_p(SmallDevSpec(c, 1, n))
        for b in range(1, n):
            cur = tilde_p(SmallDevSpec(c, b + 1, n))
            sign = (cur > prev) - (cur < prev)
            signs[(b, n)] = sign
            if sign < 0:
                decreases.append(
                    ViolationReport.from_rationals("tilde-p-monotone", b, n, cur, prev)
                )
            prev = cur
    return signs, decreases
