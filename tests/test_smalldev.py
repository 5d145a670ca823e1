"""Small-deviations reduction: the two-point sum tail against brute-force
enumeration, the floor property of the shifted tails, and the grid scan's
equality structure."""

import itertools
import math
from fractions import Fraction

import pytest

from binram.backend import Rat
from binram.exactcore import DomainError
from binram.smalldev import (
    SmallDevSpec,
    TwoPointDist,
    binomial_tail_below,
    conjecture_scan,
    tilde_p,
    tilde_p_monotonicity_scan,
    two_point_tail,
    verify_samuels,
)


def brute_force_sum_tail(alpha: Fraction, beta: Fraction, n: int) -> Fraction:
    """P(X1+...+Xn < n+1) by summing over the count of beta-draws."""
    p = (1 - alpha) / (beta - alpha)
    total = Fraction(0)
    for k in range(n + 1):
        if k * beta + (n - k) * alpha < n + 1:
            total += Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k)
    return total


def literal_enumeration_tail(alpha: Fraction, beta: Fraction, n: int) -> Fraction:
    """P(X1+...+Xn < n+1) over all 2**n outcome tuples (tiny n only)."""
    p = (1 - alpha) / (beta - alpha)
    total = Fraction(0)
    for outcome in itertools.product((alpha, beta), repeat=n):
        if sum(outcome) < n + 1:
            weight = Fraction(1)
            for x in outcome:
                weight *= p if x == beta else 1 - p
            total += weight
    return total


def to_frac(r) -> Fraction:
    return Fraction(int(r.numerator), int(r.denominator))


CASES = [
    (Fraction(0), Fraction(3, 2), 6),
    (Fraction(0), Fraction(7, 3), 9),
    (Fraction(1, 4), Fraction(2), 8),
    (Fraction(1, 2), Fraction(5), 11),
    (Fraction(9, 10), Fraction(11, 10), 14),
]


@pytest.mark.parametrize("alpha,beta,n", CASES)
def test_two_point_tail_vs_count_aggregated_brute_force(alpha, beta, n):
    dist = TwoPointDist(Rat(alpha), Rat(beta))
    b, p = two_point_tail(dist, n)
    assert to_frac(p) == brute_force_sum_tail(alpha, beta, n)


@pytest.mark.parametrize("alpha,beta,n", [
    (Fraction(0), Fraction(3, 2), 5),
    (Fraction(1, 3), Fraction(3), 7),
    (Fraction(1, 2), Fraction(2), 9),
])
def test_two_point_tail_vs_literal_enumeration(alpha, beta, n):
    dist = TwoPointDist(Rat(alpha), Rat(beta))
    _, p = two_point_tail(dist, n)
    assert to_frac(p) == literal_enumeration_tail(alpha, beta, n)


def test_two_point_dist_validation():
    with pytest.raises(DomainError):
        TwoPointDist(Rat(1), Rat(2))  # alpha must be < 1
    with pytest.raises(DomainError):
        TwoPointDist(Rat(1, 2), Rat(1))  # beta must be > 1
    with pytest.raises(DomainError):
        TwoPointDist(Rat(-1, 2), Rat(2))


def test_binomial_tail_below_edges():
    assert binomial_tail_below(5, Rat(1, 3), 0) == 0
    assert binomial_tail_below(5, Rat(1, 3), 6) == 1
    assert binomial_tail_below(5, Rat(1), 3) == 0
    assert binomial_tail_below(4, Rat(0), 1) == 1
    # against a fractions oracle
    q = Fraction(2, 7)
    want = sum(
        Fraction(math.comb(9, i)) * q**i * (1 - q) ** (9 - i) for i in range(4)
    )
    assert to_frac(binomial_tail_below(9, Rat(2, 7), 4)) == want


def test_binomial_tail_below_matches_comb_sum():
    for n in range(0, 41):
        for q in (Fraction(0), Fraction(1, 2), Fraction(3, 7), Fraction(n, n + 1), Fraction(1)):
            for b in range(-1, n + 3):
                want = sum(
                    (Fraction(math.comb(n, i)) * q**i * (1 - q) ** (n - i)
                     for i in range(min(max(b, 0), n + 1))),
                    Fraction(0),
                )
                got = binomial_tail_below(n, Rat(q.numerator, q.denominator), b)
                assert to_frac(got) == want, (n, q, b)


def test_tilde_p_values():
    # tp(1, 1, n) = P(Bin(n, 1/(n+1)) = 0) = (n/(n+1))**n
    for n in (2, 5, 10):
        assert to_frac(tilde_p(SmallDevSpec(1, 1, n))) == Fraction(n, n + 1) ** n
    with pytest.raises(DomainError):
        SmallDevSpec(0, 1, 5)
    with pytest.raises(DomainError):
        SmallDevSpec(1, 6, 5)


def test_verify_samuels_no_violations():
    assert verify_samuels(60) == []
    with pytest.raises(DomainError):
        verify_samuels(3)


def test_conjecture_scan_small():
    res = conjecture_scan(8, Rat(1, 10))
    assert res.violations == []
    # equality holds exactly at alpha = 0 with (n+1)/beta integral
    expected = set()
    step = Rat(1, 10)
    beta = 1 + step
    while beta <= 10:
        if (Rat(9) / beta).denominator == 1:
            expected.add((Rat(0), beta))
        beta += step
    got = {(a, be) for (a, be, _b) in res.equality_witnesses}
    assert got == expected
    assert res.degenerate_points > 0


def test_conjecture_scan_guards():
    with pytest.raises(DomainError):
        conjecture_scan(61, Rat(1, 10))
    with pytest.raises(DomainError):
        conjecture_scan(10, Rat(1, 5))


def test_tilde_p_monotonicity_scan_records_signs():
    signs, decreases = tilde_p_monotonicity_scan(1, 30)
    assert set(signs) == {(b, n) for n in range(2, 31) for b in range(1, n)}
    # the monotonicity statement is open but holds on this small range
    assert decreases == []
    with pytest.raises(DomainError):
        tilde_p_monotonicity_scan(1, 401)
