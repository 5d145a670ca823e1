"""Kernel calculus: the integer closed form vs a Fraction reference, the
coefficient oracle and sympy, exact integrals, Taylor sandwich, the
certificate polynomials' defining identities, and the integer claim-1
identities vs their Fraction form."""

import math
from fractions import Fraction

import pytest
import sympy

from binram import certificates, kernel
from binram.backend import Rat, as_rat
from binram.exactcore import BinomialSpec, DomainError, tail_value
from binram.kernel import (
    IntegerPolynomial,
    ResourceError,
    derivative_closed_form,
    derivative_closed_form_polynomial,
    derivative_oracle,
    eval_P,
    integral_from_zero,
    integrate_g_delta,
    kernel_polynomial,
    taylor_sandwich,
    verify_claim1,
)

PAIRS = [(2, 5), (3, 8), (5, 12), (6, 20), (7, 15), (10, 25), (12, 40)]


def fraction_kernel(b, n, z):
    return (1 - z) ** (b - 1) * z ** (n - b)


def fraction_closed_form(b, n, order, z):
    """Reference: the closed-form derivative evaluated in Fractions at z,
    (1-z)**(b-1-l) z**(n-b-l) sum_i C(l, i) (-1)**(l-i) (n-1-i)_(l-i) (n-b)_i z**(l-i)."""
    if order == 0:
        return fraction_kernel(b, n, z)
    inner = sum(
        math.comb(order, i) * (-1) ** (order - i) * math.perm(n - 1 - i, order - i)
        * math.perm(n - b, i) * z ** (order - i)
        for i in range(order + 1)
    )
    return (1 - z) ** (b - 1 - order) * z ** (n - b - order) * inner


def closed_form_value(spec, order, k, big_n):
    """(d^order g)(k/N) from the package's integer closed form."""
    return Rat(derivative_closed_form(spec, order, k, big_n), big_n ** (spec.n - 1 - order))


def sympy_kernel(b, n):
    z = sympy.Symbol("z")
    return z, (1 - z) ** (b - 1) * z ** (n - b)


def evaluate(poly, z):
    """The polynomial's value at z, by Horner's rule in the backend's rationals."""
    z = as_rat(z)
    acc = Rat(0)
    for c in reversed(poly.coeffs):
        acc = acc * z + c
    return acc


def full_integral(spec):
    """Exact integral of the kernel over [0, 1]; equals (b-1)! (n-b)! / n!."""
    b, n = spec.b, spec.n
    return Rat(math.factorial(b - 1) * math.factorial(n - b), math.factorial(n))


def derivative(poly):
    """One coefficient-wise derivative; a constant's is (0,)."""
    if len(poly.coeffs) <= 1:
        return IntegerPolynomial((0,))
    return IntegerPolynomial(tuple(k * c for k, c in enumerate(poly.coeffs) if k >= 1))


# -- polynomial plumbing ------------------------------------------------------


def test_integer_polynomial_basics():
    p = IntegerPolynomial((1, -2, 3))  # 1 - 2z + 3z^2
    assert evaluate(p, Rat(1, 2)) == Rat(3, 4)
    d = derivative(p)
    assert evaluate(d, Rat(1, 2)) == Rat(1)  # -2 + 6z at 1/2


@pytest.mark.parametrize("b,n", PAIRS)
def test_kernel_polynomial_matches_pointwise(b, n):
    spec = BinomialSpec(b, n)
    poly = kernel_polynomial(spec)
    for k, big_n in ((0, 1), (1, 7), (2, 3), (1, 1)):
        assert evaluate(poly, Rat(k, big_n)) == closed_form_value(spec, 0, k, big_n)


def test_kernel_polynomial_cost_guard():
    with pytest.raises(ResourceError):
        kernel_polynomial(BinomialSpec(10, 61))


# -- derivatives --------------------------------------------------------------


@pytest.mark.parametrize("b,n", PAIRS)
def test_closed_form_equals_oracle_all_orders(b, n):
    spec = BinomialSpec(b, n)
    for order in range(1, min(b - 1, n - b) + 1):
        closed = derivative_closed_form_polynomial(spec, order)
        oracle = derivative_oracle(spec, order)
        for z in (Rat(1, 5), Rat(1, 2), Rat(9, 10)):
            assert evaluate(closed, z) == evaluate(oracle, z)


def test_one_pass_oracle_equals_repeated_differentiation():
    """derivative_oracle at every order 0..n+1 against the kernel polynomial
    differentiated one order at a time, n <= 40; past the degree both are (0,)."""
    for n in range(1, 41):
        for b in range(1, n + 1):
            spec = BinomialSpec(b, n)
            poly = kernel_polynomial(spec)
            for order in range(n + 2):
                assert derivative_oracle(spec, order) == poly, (b, n, order)
                poly = derivative(poly)
            assert poly == IntegerPolynomial((0,))
    with pytest.raises(DomainError):
        derivative_oracle(BinomialSpec(3, 8), -1)


def test_integer_closed_form_matches_fraction_reference():
    """N**(n-1-l) times the Fraction closed form, every admissible order l
    (0 included) at n <= 40: at both ends of [0, 1], inside the cell
    [1-(b+1)/n, 1-b/n] where there is one, and at two other points k/N."""
    for n in range(1, 41):
        for b in range(1, n + 1):
            spec = BinomialSpec(b, n)
            in_cell = (4 * (n - b) - 1, 4 * n) if b < n else (1, 2)
            for order in range(min(b - 1, n - b) + 1):
                for k, big_n in ((0, 1), (1, 1), in_cell, (1, 3), (5, 7)):
                    want = fraction_closed_form(b, n, order, Fraction(k, big_n))
                    got = derivative_closed_form(spec, order, k, big_n)
                    assert got == want * big_n ** (n - 1 - order), (b, n, order, k, big_n)


@pytest.mark.parametrize("b,n,order", [(3, 8, 1), (5, 12, 2), (6, 20, 3), (7, 15, 4)])
def test_derivative_matches_sympy(b, n, order):
    z, g = sympy_kernel(b, n)
    want = sympy.diff(g, z, order)
    pt = sympy.Rational(2, 7)
    spec = BinomialSpec(b, n)
    got = closed_form_value(spec, order, 2, 7)
    want_val = sympy.Rational(want.subs(z, pt))
    assert Fraction(int(got.numerator), int(got.denominator)) == Fraction(
        int(want_val.p), int(want_val.q)
    )


def test_derivative_order_guard():
    spec = BinomialSpec(3, 8)  # closed form admits orders 0..2
    for order in (-1, 3):
        with pytest.raises(DomainError):
            derivative_closed_form(spec, order, 1, 2)
    with pytest.raises(DomainError):
        derivative_closed_form_polynomial(spec, 3)
    for k in (-1, 3):  # z = k/2 outside [0, 1]
        with pytest.raises(DomainError):
            derivative_closed_form(spec, 1, k, 2)


# -- integration --------------------------------------------------------------


@pytest.mark.parametrize("b,n", PAIRS)
def test_full_integral_beta_value(b, n):
    spec = BinomialSpec(b, n)
    want = Fraction(math.factorial(b - 1) * math.factorial(n - b), math.factorial(n))
    got = full_integral(spec)
    assert Fraction(int(got.numerator), int(got.denominator)) == want
    assert integral_from_zero(spec, Rat(1)) == got


@pytest.mark.parametrize("b,n", [(3, 8), (5, 12), (7, 15)])
def test_integral_matches_sympy(b, n):
    z, g = sympy_kernel(b, n)
    spec = BinomialSpec(b, n)
    want = sympy.integrate(g, (z, sympy.Rational(n - b - 1, n), sympy.Rational(n - b, n)))
    want = sympy.Rational(want)
    got = integrate_g_delta(spec)
    assert Fraction(int(got.numerator), int(got.denominator)) == Fraction(
        int(want.p), int(want.q)
    )


def termwise_integral(b: int, n: int, u: Fraction) -> Fraction:
    """Integral of the kernel over [0, u], one Fraction term at a time."""
    return sum(
        Fraction((-1) ** j * math.comb(b - 1, j), n - b + j + 1) * u ** (n - b + j + 1)
        for j in range(b)
    )


def test_integral_matches_termwise_fraction_sum():
    for n in range(1, 61):
        for b in range(1, n + 1):
            spec = BinomialSpec(b, n)
            points = [Fraction(0), Fraction(1), Fraction(1, 3)]
            if b < n:
                points += [Fraction(n - b - 1, n), Fraction(n - b, n)]
            for u in points:
                got = integral_from_zero(spec, Rat(u.numerator, u.denominator))
                assert Fraction(int(got.numerator), int(got.denominator)) == \
                    termwise_integral(b, n, u)


def test_cell_and_grid():
    """integrate_g_delta integrates over [6/10, 7/10] at (b, n) = (3, 10), and
    the cell degenerates at b = n."""
    spec = BinomialSpec(3, 10)
    assert integrate_g_delta(spec) == \
        integral_from_zero(spec, Rat(7, 10)) - integral_from_zero(spec, Rat(6, 10))
    with pytest.raises(DomainError, match="cell degenerates"):
        integrate_g_delta(BinomialSpec(10, 10))


# -- Taylor sandwich ----------------------------------------------------------


def reference_sandwich(b, n):
    """[(g, lower, upper)] at z_j = z0 + j/(4n), j = 0..4, in Fractions: the
    cubic Taylor polynomial at the cell's left end z0 plus (z-z0)**4 d4 / 24,
    d4 the fourth derivative at z0 (lower) or at the right end (upper)."""
    z0 = Fraction(n - b - 1, n)
    cubic_coeffs = [fraction_closed_form(b, n, l, z0) / math.factorial(l) for l in range(4)]
    d4_minus = fraction_closed_form(b, n, 4, z0)
    d4_plus = fraction_closed_form(b, n, 4, Fraction(n - b, n))
    rows = []
    for j in range(5):
        dz = Fraction(j, 4 * n)
        cubic = sum(c * dz**l for l, c in enumerate(cubic_coeffs))
        rows.append((fraction_kernel(b, n, z0 + dz),
                     cubic + dz**4 * d4_minus / 24, cubic + dz**4 * d4_plus / 24))
    return rows


def test_taylor_sandwich_rows_equal_the_fraction_reference():
    for n in range(10, 61):
        for b in range(5, n // 2 + 1):
            den, rows = taylor_sandwich(BinomialSpec(b, n))
            assert den == 24 * (4 * n) ** (n - 1)
            assert [tuple(Fraction(v, den) for v in row) for row in rows] == \
                reference_sandwich(b, n), (b, n)
            for j, (g, _, _) in enumerate(rows):
                z = Fraction(4 * (n - b - 1) + j, 4 * n)
                assert Fraction(g, den) == (1 - z) ** (b - 1) * z ** (n - b)


@pytest.mark.parametrize("b,n", [(5, 12), (6, 20), (10, 25), (12, 40)])
def test_taylor_sandwich_brackets_kernel(b, n):
    _, rows = taylor_sandwich(BinomialSpec(b, n))
    assert len(rows) == 5
    for g, lower, upper in rows:
        assert lower <= g <= upper


def test_taylor_sandwich_known_edge_at_b5():
    """At b = 5 the fourth derivative is not monotone on the cell for large n
    (it dips below its left-endpoint value), so the stated lower bound fails
    there; pinned as an exact fact, cross-checked with sympy above."""
    spec = BinomialSpec(5, 56)
    d4_lo = closed_form_value(spec, 4, 200, 224)  # the cell's left end
    d4_dip = closed_form_value(spec, 4, 143, 160)  # interior point
    assert d4_dip < d4_lo  # non-monotone fourth derivative
    den, rows = taylor_sandwich(spec)
    g, lower, _ = rows[1]  # z = 201/224
    assert not lower <= g  # the stated bound breaks
    assert [j for j, (g, lower, _) in enumerate(rows) if not lower <= g] == [1]


def test_taylor_sandwich_domain_guard():
    with pytest.raises(DomainError):
        taylor_sandwich(BinomialSpec(4, 12))
    with pytest.raises(DomainError):
        taylor_sandwich(BinomialSpec(6, 11))


# -- certificate polynomials --------------------------------------------------


def test_eval_P_sample_value():
    # hand-expanded from the quintic: independent recomputation at (5, 17)
    b, n = 5, 17
    want = (
        12 * b**5 - 16 * b**4 * n + 64 * b**4 + 4 * b**3 * n**2 - 71 * b**3 * n
        + 138 * b**3 + 16 * b**2 * n**2 - 112 * b**2 * n + 156 * b**2
        + 12 * b * n**2 - 105 * b * n + 94 * b + 24 * n**2 - 48 * n + 24
    )
    assert eval_P(5, 17) == want


@pytest.mark.parametrize("b,n", [(6, 20), (7, 22), (8, 26), (10, 33), (12, 40)])
def test_P_defining_identity(b, n):
    """P is defined so that, with x = (b+1)/n,

        P / (24 n^6) = x^(b-4) (1-x)^(n-b-2)
            * [x^b (1-x)^(n-b) - b * sum_{l=0..3} d^l g(1-x) / ((l+1)! n^(l+1))]

    checked exactly against the independent derivative path."""
    spec = BinomialSpec(b, n)
    x = Rat(b + 1, n)
    s = Rat(0)
    for l in range(4):
        s += closed_form_value(spec, l, n - b - 1, n) / (math.factorial(l + 1) * n ** (l + 1))
    lead = x**b * (1 - x) ** (n - b)
    rhs = 24 * n**6 * x ** (4 - b) * (1 - x) ** (b + 2 - n) * (lead - b * s)
    assert Rat(eval_P(b, n)) == rhs


def eval_Q(spec: BinomialSpec):
    """The normalized fourth derivative at the cell's left endpoint:

        d4 g(1 - (b+1)/n) = x**(b-5) * (1-x)**(n-b-4) * Q,   x = (b+1)/n.
    """
    b, n = spec.b, spec.n
    x = Rat(b + 1, n)
    w = 1 - x
    return (
        3 * (n - b - 1) ** 2 * x**2
        - 2 * (n - b - 1) * x * (23 * w**2 + 7 * w - 1)
        + 96 * w**3
        + 24 * w**4
    )


@pytest.mark.parametrize("b,n", [(6, 20), (8, 26), (10, 33), (12, 40), (15, 60)])
def test_Q_identity(b, n):
    spec = BinomialSpec(b, n)
    x = Rat(b + 1, n)
    assert closed_form_value(spec, 4, n - b - 1, n) == x ** (b - 5) * (1 - x) ** (
        n - b - 4
    ) * eval_Q(spec)


@pytest.mark.parametrize("b_lo,b_hi,n_cap", [(6, 9, 40), (39, 39, 157)])
def test_small_b_rhs_equals_the_fraction_formula(monkeypatch, b_lo, b_hi, n_cap):
    """With P forced below every right-hand side, each direct point of the
    small-b certificate is a witness carrying its exact right-hand side
    b n d4 / (5 x**(b-4) (1-x)**(n-b-2)), x = (b+1)/n, d4 the fourth
    derivative at 1 - b/n, here from the Fraction closed form."""
    monkeypatch.setattr(certificates.kernel, "eval_P", lambda b, n: -10**1000)
    cert = certificates.check_small_b(b_lo, b_hi, n_cap, tail_b_hi=b_hi)
    direct = [(w.b, w.n, Fraction(w.raw_rhs)) for w in cert.witnesses if w.note == "direct"]
    want = []
    for b in range(b_lo, b_hi + 1):
        for n in range(3 * b + 2, n_cap + 1):
            x = Fraction(b + 1, n)
            d4 = fraction_closed_form(b, n, 4, Fraction(n - b, n))
            want.append((b, n, b * n * d4 / (5 * x ** (b - 4) * (1 - x) ** (n - b - 2))))
    assert direct == want


# -- integral identity suite --------------------------------------------------


def fraction_claim1(spec):
    """The four identities in Fractions, as verify_claim1 checked them before
    they were cleared to integer equations."""
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


def test_verify_claim1_matches_the_fraction_identities():
    for n in range(2, 61):
        for b in range(1, n):
            spec = BinomialSpec(b, n)
            assert (verify_claim1(spec), fraction_claim1(spec)) == (True, True), (b, n)


# (input, the identities that read it): T, N from tail_pmf_numerators at b and
# b+1, and integral_sum at p = m and p = m-1, m = n-b
CLAIM1_INPUTS = [("T_b", "1 2 3 4"), ("N_b", "3 4"), ("T_b1", "2 4"), ("N_b1", "4"),
                 ("I_b", "1 2 3 4"), ("I_b1", "2 4")]
# at b = n-1 the integral over [0, (m-1)/n] = [0, 0] is multiplied by 0**(m+1) = 0
CLAIM1_PERTURBATIONS = [(b, n, name, identities)
                        for b, n in ((1, 2), (3, 8), (7, 15), (12, 13))
                        for name, identities in CLAIM1_INPUTS
                        if not (name == "I_b1" and b == n - 1)]


@pytest.mark.parametrize("b,n,name,identities", CLAIM1_PERTURBATIONS)
@pytest.mark.parametrize("delta", [-1, 1])
def test_verify_claim1_rejects_a_perturbed_input(monkeypatch, b, n, name, identities, delta):
    """One input off by one makes verify_claim1 false, so no identity holds
    whatever its inputs; N_{b+1} is read by identity 4 alone."""
    tails, integrals = kernel.tail_pmf_numerators, kernel.integral_sum
    m = n - b

    def numerators(n_, b_, p, r):
        t, pmf = tails(n_, b_, p, r)
        if (name, b_) in (("T_b", b), ("T_b1", b + 1)):
            t += delta
        if (name, b_) in (("N_b", b), ("N_b1", b + 1)):
            pmf += delta
        return t, pmf

    def integral(b_, n_, p, q, lcm):
        return integrals(b_, n_, p, q, lcm) + delta * ((name, p) in (("I_b", m), ("I_b1", m - 1)))

    spec = BinomialSpec(b, n)
    assert verify_claim1(spec)
    monkeypatch.setattr(kernel, "tail_pmf_numerators", numerators)
    monkeypatch.setattr(kernel, "integral_sum", integral)
    assert not verify_claim1(spec), f"{name} feeds identities {identities}"


def test_verify_claim1_small_sweep():
    for n in range(2, 26):
        for b in range(1, n):
            assert verify_claim1(BinomialSpec(b, n)), (b, n)


def test_verify_claim1_edge_b_equals_n_minus_1():
    assert verify_claim1(BinomialSpec(9, 10))
    with pytest.raises(DomainError):
        verify_claim1(BinomialSpec(10, 10))
