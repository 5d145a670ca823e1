"""The integrand kernel (1-z)^(b-1) * z^(n-b) and its exact calculus.

Consecutive binomial tail differences reduce to exact integrals of this
kernel over the cell [1-(b+1)/n, 1-b/n].  This module provides:

* the closed form for the kernel and its derivative of any admissible
  order, evaluated in integers at z = k/N, together with an independent
  oracle (coefficient-wise differentiation of the expanded integer
  polynomial) used to cross-check it,
* exact polynomial integration,
* third-order Taylor bounds with fourth-derivative remainder brackets, an
  integer bracket on the cell's 5-point grid,
* the certificate polynomials P and R whose signs drive the finite-range
  inequality certificates,
* exact verification of the four tail/integral identities.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .backend import Rat, as_rat
from .exactcore import BinomialSpec, DomainError, tail_value


class ResourceError(RuntimeError):
    """A cost guard was exceeded."""


ORACLE_MAX_N = 60  # cost guard for full polynomial expansion


class IntegerPolynomial(NamedTuple):
    """Dense polynomial sum(coeffs[k] * z**k) with integer coeffs."""

    coeffs: tuple

    def __call__(self, z):
        z = as_rat(z)
        acc = Rat(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self) -> "IntegerPolynomial":
        if len(self.coeffs) <= 1:
            return IntegerPolynomial((0,))
        d = tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1)
        return IntegerPolynomial(d)


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
    """Independent derivative: expand, then differentiate coefficient-wise."""
    if order < 0:
        raise DomainError("order must be >= 0")
    poly = kernel_polynomial(spec)
    for _ in range(order):
        poly = poly.derivative()
    return poly


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


def full_integral(spec: BinomialSpec):
    """Exact integral over [0, 1]; equals (b-1)! (n-b)! / n!."""
    b, n = spec.b, spec.n
    return Rat(math.factorial(b - 1) * math.factorial(n - b), math.factorial(n))


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

    The tails and z come from one tail kernel call each at b and b+1, the
    integrals from one integral_sum each at 1-b/n and 1-(b+1)/n.
    """
    b, n = spec.b, spec.n
    if not (1 <= b < n):
        raise DomainError("identities need 1 <= b < n")
    tv, tv1 = tail_value(spec), tail_value(BinomialSpec(b + 1, n))
    full = full_integral(spec)
    x = Rat(b + 1, n)
    y = Rat(b, n)
    int_b, int_b1 = integral_from_zero(spec, 1 - y), integral_from_zero(spec, 1 - x)

    ok_tail = tv.p == int_b / full

    cell_int = int_b - int_b1
    ok_diff = tv1.p - tv.p == (x**b * (1 - x) ** (n - b) - b * cell_int) / (b * full)

    split_b = full - 2 * int_b
    ok_z = tv.z == Rat(1, 2) * b * split_b / (y**b * (1 - y) ** (n - b))

    split_b1 = full - 2 * int_b1
    prefactor = Rat(
        n**n, 2 * (n - b) * (b + 1) ** b * (n - b - 1) ** (n - b - 1)
    )
    bracket = (
        -2 * x**b * Rat(n - b - 1, n) ** (n - b)
        + b * split_b1
        - b
        * (1 + Rat(1, b)) ** b
        * (1 - Rat(1, n - b)) ** (n - b - 1)
        * split_b
    )
    ok_zdiff = tv1.z - tv.z == prefactor * bracket

    return ok_tail and ok_diff and ok_z and ok_zdiff
