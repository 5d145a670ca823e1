"""Exact rational binomial quantities.

Everything here is computed over Bin(n, b/n) in exact integer arithmetic:
probabilities are integers scaled by n**n, so no rounding occurs anywhere.
The central object is the Ramanujan-type ratio

    z(b, n) = (1/2 - P(X < b)) / P(X = b),      X ~ Bin(n, b/n),

whose monotonicity in b and n is what the certificate suites verify.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .backend import Rat

EXACT_CUTOFF = 2000  # the largest n of the exact scans; highprec.z_diff_sign is exact up to it


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


class BinomialSpec:
    """The pair (b, n) identifying X ~ Bin(n, b/n) with 1 <= b <= n."""

    __slots__ = ("b", "n")

    def __init__(self, b: int, n: int):
        if not (1 <= b <= n):
            raise DomainError(f"need 1 <= b <= n, got b={b}, n={n}")
        self.b = b
        self.n = n


class TailValue(NamedTuple):
    """Exact tail p = P(X < b), pmf at b, and the ratio z for one spec."""

    p: object
    pmf_at_b: object
    z: object


def tail_pmf_head(n: int, b: int, p: int, r: int) -> tuple:
    """Integers (A, t) with T = A s**(n-b) and N = t s**(n-b), s = r - p,
    for the numerators T, N of :func:`tail_pmf_numerators`:

        A = sum_{i<b} C(n, i) p**i s**(b-i),    t = C(n, b) p**b.

    Nested Horner, division-free in the loop.  With f_i = i! C(n, i) p**i,
    so f_0 = 1 and f_{i+1} = f_i (n-i) p, the steps P <- P (i s) + f_i,
    f <- f (n-i) p for i = 0..b-1, from P = 0, give

        P_m = sum_{i<m} f_i s**(m-1-i) (m-1)! / i!,    1 <= m <= b,

    by induction: P_1 = f_0, and P_{m+1} = m s P_m + f_m adds the factor
    m s to every earlier term.  So s P_b = (b-1)! A and f_b = b (b-1)! t, and
    the two divisions at the end are exact.  Each step is two big-by-small
    products; b = 0 has the empty sum, (0, 1).
    """
    if b == 0:
        return 0, 1
    s = r - p
    acc, f = 0, 1
    for i in range(b):
        acc = acc * (i * s) + f
        f *= (n - i) * p
    fact = math.factorial(b - 1)
    return acc * s // fact, f // (b * fact)


def _long_side(n: int, b: int, p: int, r: int) -> tuple:
    """(T, N) of :func:`tail_pmf_numerators` as the head from
    :func:`tail_pmf_head` times the one big power (r-p)**(n-b): b Horner steps."""
    head, t = tail_pmf_head(n, b, p, r)
    top = (r - p) ** (n - b)
    return head * top, t * top


def tail_pmf_numerators(n: int, b: int, p: int, r: int) -> tuple:
    """Integers (T, N) for X ~ Bin(n, p/r), with 0 <= p <= r and 0 <= b <= n:

        T = sum_{i<b} C(n, i) p**i (r-p)**(n-i),    N = C(n, b) p**b (r-p)**(n-b),

    so P(X < b) = T / r**n and P(X = b) = N / r**n, in min(b, n-b) Horner steps.

    For 2b <= n this is the long side, b steps.  For 2b > n it is the short
    side: Y = n - X ~ Bin(n, (r-p)/r), and the long side at (n, n-b, r-p, r)
    gives, with j = n - i,

        T_Y = sum_{j<n-b} C(n, j) (r-p)**j p**(n-j) = sum_{i>b} C(n, i) p**i (r-p)**(n-i),
        N_Y = C(n, n-b) (r-p)**(n-b) p**b = N,

    in n-b < b steps.  The binomial theorem sums all n+1 terms to r**n, so
    T = r**n - T_Y - N_Y: the same integers, for every 0 <= p <= r.
    """
    if 2 * b <= n:
        return _long_side(n, b, p, r)
    t_y, n_y = _long_side(n, n - b, r - p, r)
    return r**n - t_y - n_y, n_y


def tail_numerator(spec: BinomialSpec) -> int:
    """Integer T with P(X < b) = T / n**n."""
    return tail_pmf_numerators(spec.n, spec.b, spec.b, spec.n)[0]


def tail_value(spec: BinomialSpec) -> TailValue:
    """Tail, pmf at b and z for one spec, from one kernel call."""
    n = spec.n
    t, pmf = tail_pmf_numerators(n, spec.b, spec.b, n)
    scale = n**n
    return TailValue(p=Rat(t, scale), pmf_at_b=Rat(pmf, scale), z=Rat(scale - 2 * t, 2 * pmf))


def ramanujan_z(spec: BinomialSpec):
    """Exact z(b, n) = (1/2 - P(X < b)) / P(X = b)."""
    return tail_value(spec).z


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def tail_row(n: int, b_lo: int, b_hi: int) -> list:
    """Pairs (u_b, N_b), b = b_lo..b_hi: with (T_b, N_b) the numerators of
    P(X < b) and P(X = b) over s = n**n, u_b = s - 2 T_b, so z_b = u_b / (2 N_b).
    The one row that the tail- and z-difference signs and
    certificates.check_z_lowerbound read.

    Each long side (T_c, N_c) = _long_side(n, c, c, n) is computed at most
    once per call, for c = min(b, n-b), and b > n/2 takes the complement of
    its mirror c = n-b.  Proof: with j = n - i,

        T_c = sum_{j<c} C(n, j) c**j b**(n-j) = sum_{i>b} C(n, i) b**i c**(n-i),
        N_c = C(n, c) c**c b**b = C(n, b) b**b c**(n-b) = N_b,

    the terms i > b and i = b of the binomial sum (b + c)**n = s (the short
    side of :func:`tail_pmf_numerators`).  Its n+1 terms sum to s, so

        T_b = s - T_c - N_c,    u_b = s - 2 T_b = 2 N_c - u_c,

    the integers of tail_pmf_numerators(n, b, b, n).  At 2b = n, c = b is the
    long side itself (where u_b = N_b, so the complement would agree); at
    b = n, c = 0 gives (T_0, N_0) = (0, s), so T_n = 0.
    """
    scale = n**n
    sides, row = {}, []
    for b in range(b_lo, b_hi + 1):
        c = min(b, n - b)
        if c not in sides:
            t, pmf = _long_side(n, c, c, n)
            sides[c] = scale - 2 * t, pmf
        u, pmf = sides[c]
        row.append((u, pmf) if c == b else (2 * pmf - u, pmf))
    return row


def _p_signs(row: list) -> list:
    """Signs for consecutive entries of a tail_row: T_{b+1} - T_b has the sign
    of u_b - u_{b+1}."""
    return [_sign(u0 - u1) for (u0, _), (u1, _) in zip(row, row[1:])]


def _z_signs(row: list) -> list:
    """Signs for consecutive entries of a tail_row: as N_b > 0, z_{b+1} - z_b
    has the sign of u_{b+1} N_b - u_b N_{b+1}."""
    return [_sign(u1 * m0 - u0 * m1) for (u0, m0), (u1, m1) in zip(row, row[1:])]


def _check_pair(b: int, n: int) -> None:
    if not (1 <= b < n):
        raise DomainError(f"need 1 <= b < n, got b={b}, n={n}")


def p_diff_sign(b: int, n: int) -> int:
    """Exact sign of P(X' < b+1) - P(X < b) with X' ~ Bin(n, (b+1)/n).

    The sign flips at n = 3b + 2: +1 for n >= 3b+2, -1 for n <= 3b+1
    (verified exhaustively by the scan suites; this just computes the sign).
    """
    _check_pair(b, n)
    return _p_signs(tail_row(n, b, b + 1))[0]


def p_diff_signs(n: int) -> list:
    """[p_diff_sign(b, n) for b in 1..n-1] from one tail_row(n, 1, n): each
    long side c = 0..n/2 once, and every b > n/2 by the complement
    T_b = n**n - T_{n-b} - N_{n-b}, N_b = N_{n-b} (proof at :func:`tail_row`)."""
    _check_pair(1, n)
    return _p_signs(tail_row(n, 1, n))


def z_diff_sign_exact(b: int, n: int) -> int:
    """Exact sign of z(b+1, n) - z(b, n), by integer cross-multiplication."""
    _check_pair(b, n)
    return _z_signs(tail_row(n, b, b + 1))[0]


def z_diff_signs(n: int) -> list:
    """[z_diff_sign_exact(b, n) for b in 1..n-1] from one tail_row(n, 1, h+1),
    h = ceil(n/2): each long side c <= n/2 once, and b > n/2 by the complement
    T_b = n**n - T_{n-b} - N_{n-b}, N_b = N_{n-b} (proof at :func:`tail_row`).
    The cross-multiplications run only for b <= h.

    The rest mirror: sign(b) = sign(n-1-b) for h < b < n-1.  Proof: with
    Y = n - X ~ Bin(n, (n-b)/n), P(X < b) = 1 - P(Y < n-b) - P(Y = n-b) and
    P(X = b) = P(Y = n-b), so z(b) + z(n-b) = 1 for 1 <= b <= n-1.  For
    1 <= b <= n-2 both b and b+1 lie in that range, so

        z(b+1) - z(b) = (1 - z(n-1-b)) - (1 - z(n-b)) = z(n-b) - z(n-1-b),

    the difference at b' = n-1-b, and h < b < n-1 puts 1 <= b' < n/2 - 1 < h.
    The rule does not reach b = n-1, as z(n, n) lies outside the identity, but
    X ~ Bin(n, 1) is n surely, so z(n, n) = 1/2, and z(n-1) = 1 - z(1) gives

        z(n) - z(n-1) = z(1) - 1/2 = (u_1 - N_1) / (2 N_1),

    with the sign of u_1 - N_1.
    """
    _check_pair(1, n)
    h = (n + 1) // 2
    row = tail_row(n, 1, h + 1)
    head = _z_signs(row)
    if h >= n - 1:
        return head
    u_1, n_1 = row[0]
    return head + [head[n - 2 - b] for b in range(h + 1, n - 1)] + [_sign(u_1 - n_1)]


def z_symmetry_row(n: int) -> list:
    """[z(b, n) + z(n-b, n) == 1 for b in 1..n-1], exactly, from one row:
    with z_b = u_b / (2 N_b), the identity reads u_b N_{n-b} + u_{n-b} N_b
    = 2 N_b N_{n-b}.

    Every (u_b, N_b) comes from the long side, b Horner steps.  The short
    side is the complement identity itself, so reading it for b > n/2 would
    make the check hold by construction."""
    _check_pair(1, n)
    scale = n**n
    row = [(scale - 2 * t, m) for t, m in (_long_side(n, b, b, n) for b in range(1, n))]
    return [u * m_r + u_r * m == 2 * m * m_r for (u, m), (u_r, m_r) in zip(row, reversed(row))]
