"""Small-deviations reduction: two-point unit-mean sums versus shifted
binomial tails.

Minimizing P(X1 + ... + Xn < n + c) over i.i.d. non-negative unit-mean
variables reduces to two-point distributions, and for a two-point support
{alpha, beta} the sum's tail is exactly a binomial tail.  The reference
family is the shifted tail  tp(c, b, n) = P(Bin(n, b/(n+c)) < b).  Everything
here is exact: each scan compares integer tail numerators from
:func:`exactcore.tail_pmf_numerators` over one denominator, and builds a
rational only for a reported witness.  The 2**n brute-force enumeration
used by tests lives with the tests.
"""

from __future__ import annotations

import math

from .backend import Rat, as_rat
from .exactcore import DomainError, tail_pmf_numerators
from .report import ViolationReport


class TwoPointDist:
    """Unit-mean distribution on {alpha, beta} with 0 <= alpha < 1 < beta."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        a, b = as_rat(alpha), as_rat(beta)
        if not (0 <= a < 1 < b):
            raise DomainError(f"need 0 <= alpha < 1 < beta, got {a}, {b}")
        self.alpha = alpha
        self.beta = beta

    @property
    def p_beta(self):
        """P(X = beta) = (1 - alpha) / (beta - alpha), making the mean 1."""
        a, b = as_rat(self.alpha), as_rat(self.beta)
        return (1 - a) / (b - a)


def _shift(c) -> tuple:
    """Integers (u, v) with c = u/v in lowest terms, for a shift c > 0."""
    c = as_rat(c)
    if c <= 0:
        raise DomainError("c must be > 0")
    return int(c.numerator), int(c.denominator)


class SmallDevSpec:
    """Shift c > 0 and the pair (b, n) of the shifted binomial Bin(n, b/(n+c))."""

    __slots__ = ("c", "b", "n")

    def __init__(self, c, b: int, n: int):
        _shift(c)
        if not (1 <= b <= n):
            raise DomainError("need 1 <= b <= n")
        self.c = c
        self.b = b
        self.n = n


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


def _tp_numerator(u: int, v: int, b: int, n: int) -> int:
    """Integer T with tp(u/v, b, n) = T / (n v + u)**n, for 1 <= b <= n.

    q = b / (n + u/v) = b v / (n v + u), so P(Bin(n, q) < b) is the tail
    numerator at p = b v, r = n v + u over r**n: the one denominator is the
    same for every b at fixed (c, n), and b <= n < n + c keeps p < r.
    """
    return tail_pmf_numerators(n, b, b * v, n * v + u)[0]


def tilde_p(spec: SmallDevSpec):
    """Exact tp(c, b, n) = P(Bin(n, b/(n+c)) < b)."""
    u, v = _shift(spec.c)
    return Rat(_tp_numerator(u, v, spec.b, spec.n), (spec.n * v + u) ** spec.n)


def _two_point_numerators(n: int, a: int, e: int, v: int) -> tuple:
    """(b, T) for n draws from the two-point law on {a/v, e/v}, 0 <= a < v < e.

    With K ~ Bin(n, p_beta) the count of beta-draws, the sum is
    K beta + (n - K) alpha, which is < n + 1 iff K < x = (n + 1 - n alpha) /
    (beta - alpha), and for an integer K that is K < ceil(x) = b.  Over v,
    x = ((n+1) v - n a) / d and p_beta = (v - a) / d with d = e - a > 0, so
    b is an integer ceiling division, b >= 1 because x > 0, and the tail is
    T / d**n with T the tail numerator at p = v - a, r = d.  T is None when
    b > n: the sum is then below n + 1 for certain and the tail is 1.
    """
    d = e - a
    b = -(-((n + 1) * v - n * a) // d)
    if b > n:
        return b, None
    return b, tail_pmf_numerators(n, b, v - a, d)[0]


def two_point_tail(dist: TwoPointDist, n: int):
    """The exact sum-tail of n i.i.d. copies of the two-point distribution.

    Returns (b, p) where b = ceil((n+1 - n*alpha)/(beta - alpha)) and
    p = P(X1+...+Xn < n+1) = P(Bin(n, p_beta) < b), from
    :func:`_two_point_numerators` over the common denominator of alpha and
    beta.
    """
    alpha, beta = as_rat(dist.alpha), as_rat(dist.beta)
    v = math.lcm(int(alpha.denominator), int(beta.denominator))
    a = int(alpha.numerator) * (v // int(alpha.denominator))
    e = int(beta.numerator) * (v // int(beta.denominator))
    b, t = _two_point_numerators(n, a, e, v)
    return b, Rat(1) if t is None else Rat(t, (e - a) ** n)


def verify_samuels(n_max: int):
    """Exact check of tp(1, 1, n) <= tp(1, b, n) for all 2 <= b, 2b <= n <= n_max.

    At c = 1 every tp(1, b, n) is T_b / (n+1)**n with T_b from
    :func:`_tp_numerator`, so the check compares T_b with T_1.  Returns the
    list of violations (expected empty).
    """
    if n_max < 4:
        raise DomainError("n_max must be >= 4")
    violations = []
    for n in range(4, n_max + 1):
        floor_t = _tp_numerator(1, 1, 1, n)  # n**n: tp(1, 1, n) = (n/(n+1))**n
        for b in range(2, n // 2 + 1):
            t = _tp_numerator(1, 1, b, n)
            if t < floor_t:
                scale = (n + 1) ** n
                violations.append(ViolationReport.from_rationals(
                    "samuels", b, n, Rat(t, scale), Rat(floor_t, scale)))
    return violations


class ConjectureScanResult:
    """Grid scan of the two-point minimum against the shifted-tail family;
    the scan appends to the two lists and counts the degenerate points."""

    __slots__ = ("violations", "equality_witnesses", "degenerate_points")

    def __init__(self):
        self.violations = []
        self.equality_witnesses = []  # (alpha, beta, b)
        self.degenerate_points = 0  # b > n: both tails are exactly 1


def conjecture_grid(n: int, grid_step) -> tuple:
    """Integers (u, v) with grid_step = u/v in lowest terms, once n and the
    step pass the scan's guards: n <= 60 and 0 < grid_step <= 1/10."""
    step = as_rat(grid_step)
    if n > 60:
        raise DomainError("scan guarded at n <= 60")
    if step > Rat(1, 10):
        raise DomainError("grid_step must be <= 1/10")
    if step <= 0:
        raise DomainError("grid_step must be > 0")
    return int(step.numerator), int(step.denominator)


def conjecture_scan(n: int, grid_step) -> ConjectureScanResult:
    """Exact exhaustive check of P(sum < n+1) >= tp(1, b, n) on a rational grid.

    alpha runs over {0, step, ...} in [0, 1); beta over {1+step, ...} up to
    n+2 (beyond beta = n+1 the tail is constant for alpha = 0).  b is taken
    from the two-point reduction.  Equality witnesses are recorded; they are
    expected exactly at alpha = 0 with (n+1)/beta an integer.

    With step = u/v, alpha = i u / v and beta = 1 + j u / v, so alpha < 1 is
    i u < v, beta <= n + 2 is j u <= (n+1) v, and :func:`_two_point_numerators`
    at a = i u, e = v + j u gives b and the tail T / r**n with r = v + (j-i) u.
    The reference is T_b / (n+1)**n (see :func:`verify_samuels`), and both
    denominators are positive, so the sign of T (n+1)**n - T_b r**n is the
    sign of tail minus reference: equal is a witness, less a violation.
    """
    u, v = conjecture_grid(n, grid_step)
    result = ConjectureScanResult()
    scale = (n + 1) ** n
    refs = [None] + [_tp_numerator(1, 1, b, n) for b in range(1, n + 1)]
    for i in range((v - 1) // u + 1):
        a = i * u
        for j in range(1, (n + 1) * v // u + 1):
            e = v + j * u
            b, t = _two_point_numerators(n, a, e, v)
            if t is None:
                # sum < n+1 is certain and the reference tail is 1 as well
                result.degenerate_points += 1
                continue
            r_n = (e - a) ** n
            lhs, rhs = t * scale, refs[b] * r_n
            if lhs < rhs:
                result.violations.append(ViolationReport.from_rationals(
                    "conjecture", b, n, Rat(t, r_n), Rat(refs[b], scale),
                    note=f"alpha={Rat(a, v)} beta={Rat(e, v)}"))
            elif lhs == rhs:
                result.equality_witnesses.append((Rat(a, v), Rat(e, v), b))
    return result


def tilde_p_monotonicity_scan(c, n_max: int):
    """Exact sign map of tp(c, b+1, n) - tp(c, b, n) for 1 <= b < n <= n_max.

    With c = u/v every tp(c, b, n) at one n is T_b / (n v + u)**n (see
    :func:`_tp_numerator`), so each sign is that of T_{b+1} - T_b.  The
    underlying monotonicity statement is open, so this records signs
    instead of asserting; decreases are returned separately for inspection.
    """
    if not 2 <= n_max <= 400:
        raise DomainError(f"scan needs 2 <= n_max <= 400, got {n_max}")
    u, v = _shift(c)
    signs = {}
    decreases = []
    for n in range(2, n_max + 1):
        row = [_tp_numerator(u, v, b, n) for b in range(1, n + 1)]
        for b, (prev, cur) in enumerate(zip(row, row[1:]), start=1):
            sign = (cur > prev) - (cur < prev)
            signs[(b, n)] = sign
            if sign < 0:
                scale = (n * v + u) ** n
                decreases.append(ViolationReport.from_rationals(
                    "tilde-p-monotone", b, n, Rat(cur, scale), Rat(prev, scale)))
    return signs, decreases
