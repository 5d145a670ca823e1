"""The integrand kernel (1-z)^(b-1) * z^(n-b) and its exact calculus.

Consecutive binomial tail differences reduce to exact integrals of this
kernel over the cell [1-(b+1)/n, 1-b/n].  This module provides:

* the closed form for the kernel and its derivative of any admissible
  order, evaluated in integers at z = k/N, together with an independent
  oracle used to cross-check it: the expanded integer polynomial,
  differentiated to any order in one coefficient-wise pass,
* exact polynomial integration,
* third-order Taylor bounds with fourth-derivative remainder brackets, an
  integer bracket on the cell's 5-point grid,
* the certificate polynomials P and R whose signs drive the finite-range
  inequality certificates,
* exact verification of the four tail/integral identities, each cleared of
  its denominators to an integer equation between tail numerators and
  integral sums.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .backend import Rat, as_rat
from .exactcore import BinomialSpec, DomainError, tail_pmf_numerators


class ResourceError(RuntimeError):
    """A cost guard was exceeded."""


ORACLE_MAX_N = 60  # cost guard for full polynomial expansion


class IntegerPolynomial(NamedTuple):
    """Dense polynomial sum(coeffs[k] * z**k) with integer coeffs."""

    coeffs: tuple


def _closed_form_inner_coeffs(spec: BinomialSpec, order: int) -> list:
    """Coefficients of z**(order-i), i = 0..order, in the derivative formula,
    for the admissible orders 0..min(b-1, n-b); order 0 gives [1]."""
    b, n = spec.b, spec.n
    if not (0 <= order <= min(b - 1, n - b)):
        raise DomainError(
            f"order {order} outside 0..min(b-1, n-b) = {min(b - 1, n - b)}"
        )
    out = []
    for i in range(order + 1):
        c = (
            math.comb(order, i)
            * (-1) ** (order - i)
            * math.perm(n - 1 - i, order - i)
            * math.perm(n - b, i)
        )
        out.append(c)
    return out


def derivative_closed_form(spec: BinomialSpec, order: int, k: int, big_n: int) -> int:
    """N**(n-1-order) * (d^order g)(k/N) for 0 <= k <= N = big_n, an integer.

    The closed form, for the admissible orders 0..min(b-1, n-b) (order 0 is
    g itself), is

        (d^l g)(z) = (1-z)**(b-1-l) * z**(n-b-l) * sum_i c_i z**(l-i)

    with c_i from _closed_form_inner_coeffs.  At z = k/N the three factors
    are (N-k)**(b-1-l) / N**(b-1-l), k**(n-b-l) / N**(n-b-l) and
    sum_i c_i k**(l-i) N**i / N**l.  The exponents of N add up to n-1-l,
    none is negative, so

        N**(n-1-l) (d^l g)(k/N) = (N-k)**(b-1-l) k**(n-b-l) sum_i c_i k**(l-i) N**i,

    an integer.
    """
    if not (0 <= k <= big_n):
        raise DomainError(f"z = {k}/{big_n} outside [0, 1]")
    b, n = spec.b, spec.n
    inner, n_pow = 0, 1  # Horner in k for sum_i c_i k**(l-i) N**i; n_pow = N**i
    for c in _closed_form_inner_coeffs(spec, order):
        inner = inner * k + c * n_pow
        n_pow *= big_n
    return (big_n - k) ** (b - 1 - order) * k ** (n - b - order) * inner


def kernel_polynomial(spec: BinomialSpec) -> IntegerPolynomial:
    """The kernel expanded as an integer polynomial in z."""
    b, n = spec.b, spec.n
    if n > ORACLE_MAX_N:
        raise ResourceError(f"polynomial expansion guarded at n <= {ORACLE_MAX_N}")
    coeffs = [0] * (n if b > 1 else n - b + 1)
    for j in range(b):
        coeffs[n - b + j] = (-1) ** j * math.comb(b - 1, j)
    return IntegerPolynomial(tuple(coeffs))


def derivative_oracle(spec: BinomialSpec, order: int) -> IntegerPolynomial:
    """Independent derivative: expand, then differentiate coefficient-wise in
    one pass, c_j z**j -> c_j j!/(j-order)! z**(j-order); (0,) past the degree."""
    if order < 0:
        raise DomainError("order must be >= 0")
    coeffs = kernel_polynomial(spec).coeffs
    return IntegerPolynomial(tuple(c * math.perm(j, order)
                                   for j, c in enumerate(coeffs[order:], order)) or (0,))


def derivative_closed_form_polynomial(spec: BinomialSpec, order: int) -> IntegerPolynomial:
    """The closed-form derivative expanded to coefficients, for exact comparison."""
    b, n = spec.b, spec.n
    inner = _closed_form_inner_coeffs(spec, order)  # coeff of z**(order-i)
    # multiply (1-z)**(b-1-order) * z**(n-b-order) * inner
    out = [0] * (n - order)
    for j in range(b - order):
        binom = (-1) ** j * math.comb(b - 1 - order, j)
        for i, c in enumerate(inner):
            out[(n - b - order) + j + (order - i)] += binom * c
    return IntegerPolynomial(tuple(out))


# -- exact integration ------------------------------------------------------


def integral_sum(b: int, n: int, p: int, q: int, lcm: int) -> int:
    """The integer sum_j c_j p**j q**(b-1-j), c_j = (-1)**j C(b-1, j) lcm/k,
    k = n-b+1+j, built by Horner in q, for lcm = lcm(n-b+1, ..., n).

    The kernel integral over [0, p/q] is this sum times p**(n-b+1) / (lcm q**n):
    termwise it is sum_j (-1)**j C(b-1, j) (p/q)**k / k.  Each term is
    homogeneous of degree 0 in (p, q), so p/q need not be in lowest terms.
    """
    acc, c, p_j = 0, 1, 1  # c = (-1)**j C(b-1, j), p_j = p**j
    for j in range(b):
        acc = acc * q + c * (lcm // (n - b + 1 + j)) * p_j
        c = -c * (b - 1 - j) // (j + 1)
        p_j *= p
    return acc


def integral_from_zero(spec: BinomialSpec, u):
    """Exact integral of the kernel over [0, u], from :func:`integral_sum`;
    only the final fraction is reduced."""
    u = as_rat(u)
    if not (0 <= u <= 1):
        raise DomainError("upper limit outside [0, 1]")
    b, n = spec.b, spec.n
    p, q = int(u.numerator), int(u.denominator)
    lcm = math.lcm(*range(n - b + 1, n + 1))
    return Rat(integral_sum(b, n, p, q, lcm) * p ** (n - b + 1), lcm * q**n)


def integrate_g_delta(spec: BinomialSpec):
    """Exact integral of the kernel over its cell [1-(b+1)/n, 1-b/n], of width 1/n."""
    b, n = spec.b, spec.n
    if b >= n:
        raise DomainError("cell degenerates for b = n")
    return integral_from_zero(spec, Rat(n - b, n)) - integral_from_zero(spec, Rat(n - b - 1, n))


# -- Taylor bounds ----------------------------------------------------------


def taylor_sandwich(spec: BinomialSpec) -> tuple:
    """Pointwise bounds on the kernel on its cell's 5-point grid, stated for
    5 <= b <= n/2, as integers over one denominator: (D, rows).

    The cell is [z_0, z_4] with z_j = (k0 + j) / N, k0 = 4(n-b-1), N = 4n.
    The bounds are the cubic Taylor polynomial at z_0 plus the fourth-order
    term (z - z_0)**4 d4 / 24, with d4 the fourth derivative at z_0 (lower)
    or at z_4 (upper).  With e(l, k) = derivative_closed_form(spec, l, k, N)
    = N**(n-1-l) (d^l g)(k/N) and z_j - z_0 = j/N, multiplying by
    D = 24 N**(n-1) turns the l-th Taylor term into (24/l!) e(l, k0) j**l,
    so rows[j] = (G, lower, upper) with

        G = 24 e(0, k0+j),   cubic = sum_{l<4} (24/l!) e(l, k0) j**l,
        lower = cubic + e(4, k0) j**4,   upper = cubic + e(4, k0+4) j**4

    are D times g(z_j) and its two bounds.

    The bracket relies on the fourth derivative increasing across the cell.
    That premise is exactly true for b >= 6 on the ranges exercised here, but
    fails at the boundary b = 5 once n >= 48: the fourth derivative dips
    slightly below its left-endpoint value, and from n = 56 the lower bound
    is violated by the kernel itself (relative error ~1e-9).  Callers needing
    a rigorous lower bound at b = 5 must use a different argument.
    """
    b, n = spec.b, spec.n
    if not (5 <= b and 2 * b <= n):
        raise DomainError("sandwich requires 5 <= b <= n/2")
    big_n, k0 = 4 * n, 4 * (n - b - 1)

    def e(order: int, k: int) -> int:
        return derivative_closed_form(spec, order, k, big_n)

    taylor = [24 // math.factorial(l) * e(l, k0) for l in range(4)]
    d4_minus, d4_plus = e(4, k0), e(4, k0 + 4)
    rows = []
    for j in range(5):
        cubic = sum(t * j**l for l, t in enumerate(taylor))
        rows.append((24 * e(0, k0 + j), cubic + d4_minus * j**4, cubic + d4_plus * j**4))
    return 24 * big_n ** (n - 1), rows


# -- certificate polynomials ------------------------------------------------


def eval_R(b: int, n: int) -> int:
    """Low-order part of P used in its positivity argument."""
    return 156 * b**2 + 12 * b * n**2 - 105 * b * n + 94 * b + 24 * n**2 - 48 * n + 24


def eval_P(b: int, n: int) -> int:
    """The quintic certificate polynomial P(b, n), exact integer value."""
    lead = (
        12 * b**5
        - 16 * b**4 * n
        + 64 * b**4
        + 4 * b**3 * n**2
        - 71 * b**3 * n
        + 138 * b**3
        + 16 * b**2 * n**2
        - 112 * b**2 * n
    )
    return lead + eval_R(b, n)


# -- integral identity suite -------------------------------------------------


def verify_claim1(spec: BinomialSpec) -> bool:
    """Exact verification of the four tail/integral identities for one (b, n):

    1. the tail as a ratio of kernel integrals,
    2. the consecutive tail difference via the cell integral,
    3. z as a normalized split integral,
    4. the consecutive z difference via split integrals.

    Each identity is checked as an integer equation, with its denominators
    cleared.  Write s = n**n, m = n-b, x = (b+1)/n and y = b/n.  The inputs
    are the tail numerators (T_b, N_b) and (T_{b+1}, N_{b+1}) of
    exactcore.tail_pmf_numerators at b and b+1 (P(X_c < c) = T_c / s and
    P(X_c = c) = N_c / s for X_c ~ Bin(n, c/n)), with u_c = s - 2 T_c, so
    z(c, n) = u_c / (2 N_c), and two integral_sum calls.  With
    L = lcm(n-b+1, ..., n), the kernel integrals over [0, 1-y] = [0, m/n]
    and [0, 1-x] = [0, (m-1)/n] are I_b / (L s) and I_b1 / (L s), where

        I_b = integral_sum(b, n, m, n, L) m**(m+1),
        I_b1 = integral_sum(b, n, m-1, n, L) (m-1)**(m+1),

    and the full integral is Fnum / Fden, Fnum = (b-1)! (n-b)!, Fden = n!.
    The split integrals full - 2 int are Sigma / (Fden L s), with
    Sigma = Fnum L s - 2 I Fden, for I = I_b (Sigma_b) and I = I_b1 (Sigma_b1).
    The powers are x**b (1-x)**(n-b) = (b+1)**b (m-1)**m / s and
    y**b (1-y)**(n-b) = b**b m**m / s.

    1. T_b / s = int_b / full, whose right side is I_b Fden / (L s Fnum).
       Times s L Fnum:

           T_b L Fnum = I_b Fden.

    2. (T_{b+1} - T_b) / s = (x**b (1-x)**(n-b) - b cell) / (b full), with
       cell = (I_b - I_b1) / (L s).  Times s L b Fnum:

           (T_{b+1} - T_b) L b Fnum = ((b+1)**b (m-1)**m L - b (I_b - I_b1)) Fden.

    3. u_b / (2 N_b) = b split_b / (2 y**b (1-y)**(n-b)), whose right side is
       b Sigma_b / (2 Fden L b**b m**m).  Times 2 N_b Fden L b**b m**m:

           u_b Fden L b**b m**m = N_b b Sigma_b.

    4. z(b+1, n) - z(b, n) = s / (2 m c) * bracket, with
       c = (b+1)**b (m-1)**(m-1) and

           bracket = -2 (b+1)**b (m-1)**m / s + b split_b1
                     - b (1 + 1/b)**b (1 - 1/m)**(m-1) split_b.

       (1 + 1/b)**b (1 - 1/m)**(m-1) = c / M with M = b**b m**(m-1), so with
       K = Fden L s, bracket = B / (K M) for the integer

           B = M (-2 (b+1)**b (m-1)**m Fden L + b Sigma_b1) - b c Sigma_b.

       The left side is (u_{b+1} N_b - u_b N_{b+1}) / (2 N_b N_{b+1}).
       Times 2 N_b N_{b+1} m c K M:

           (u_{b+1} N_b - u_b N_{b+1}) m c K M = N_b N_{b+1} s B.

    Every factor cleared is a positive integer: 1 <= b < n gives m >= 1, and
    at b = n-1 (m = 1) the powers read 0**0 = 1, so c >= 1 and M >= 1, while
    N_b and N_{b+1} are positive because 1 <= b < b+1 <= n.  So each integer
    equation holds exactly when its rational identity does.  No rational is
    built.
    """
    b, n = spec.b, spec.n
    if not (1 <= b < n):
        raise DomainError("identities need 1 <= b < n")
    s, m = n**n, n - b
    t_b, n_b = tail_pmf_numerators(n, b, b, n)
    t_b1, n_b1 = tail_pmf_numerators(n, b + 1, b + 1, n)
    u_b, u_b1 = s - 2 * t_b, s - 2 * t_b1
    f_num = math.factorial(b - 1) * math.factorial(m)
    f_den = math.factorial(n)
    lcm = math.lcm(*range(m + 1, n + 1))
    i_b = integral_sum(b, n, m, n, lcm) * m ** (m + 1)
    i_b1 = integral_sum(b, n, m - 1, n, lcm) * (m - 1) ** (m + 1)
    sigma_b = f_num * lcm * s - 2 * i_b * f_den
    sigma_b1 = f_num * lcm * s - 2 * i_b1 * f_den
    lead = (b + 1) ** b * (m - 1) ** m  # s x**b (1-x)**(n-b)

    ok_tail = t_b * lcm * f_num == i_b * f_den
    ok_diff = (t_b1 - t_b) * lcm * b * f_num == (lead * lcm - b * (i_b - i_b1)) * f_den
    ok_z = u_b * f_den * lcm * b**b * m**m == n_b * b * sigma_b

    big_k = f_den * lcm * s
    big_m = b**b * m ** (m - 1)
    c = (b + 1) ** b * (m - 1) ** (m - 1)
    bracket = big_m * (-2 * lead * f_den * lcm + b * sigma_b1) - b * c * sigma_b
    ok_zdiff = (u_b1 * n_b - u_b * n_b1) * m * c * big_k * big_m == n_b * n_b1 * s * bracket

    return ok_tail and ok_diff and ok_z and ok_zdiff
