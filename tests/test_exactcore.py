"""Exact binomial tail core: cross-checked against an independent
fractions/comb oracle."""

import math
from fractions import Fraction

import pytest

from binram.backend import Rat
from binram.exactcore import (
    BinomialSpec,
    DomainError,
    exact_pmf,
    median_binomial,
    p_diff_sign,
    p_diff_signs,
    ramanujan_z,
    tail_p,
    tail_value,
    z_diff_sign_exact,
    z_diff_signs,
    z_symmetry_row,
)


def oracle_tail(b: int, n: int) -> Fraction:
    """P(Bin(n, b/n) < b) via fractions, independent of the package."""
    p = Fraction(b, n)
    return sum(
        Fraction(math.comb(n, i)) * p**i * (1 - p) ** (n - i) for i in range(b)
    )


def oracle_pmf(b: int, n: int, i: int) -> Fraction:
    p = Fraction(b, n)
    return Fraction(math.comb(n, i)) * p**i * (1 - p) ** (n - i)


@pytest.mark.parametrize("b,n", [(1, 2), (1, 5), (3, 7), (5, 12), (7, 15), (10, 31)])
def test_tail_matches_fraction_oracle(b, n):
    got = tail_p(BinomialSpec(b, n))
    want = oracle_tail(b, n)
    assert Fraction(int(got.numerator), int(got.denominator)) == want


@pytest.mark.parametrize("b,n", [(2, 6), (4, 9), (6, 13)])
def test_pmf_matches_oracle_and_sums_to_one(b, n):
    spec = BinomialSpec(b, n)
    total = Rat(0)
    for i in range(n + 1):
        val = exact_pmf(spec, i)
        assert Fraction(int(val.numerator), int(val.denominator)) == oracle_pmf(b, n, i)
        total += val
    assert total == 1


@pytest.mark.parametrize("b,n", [(1, 2), (3, 6), (7, 14), (25, 50)])
def test_z_is_half_at_n_equals_2b(b, n):
    assert ramanujan_z(BinomialSpec(b, n)) == Rat(1, 2)


def test_z_is_half_on_diagonal():
    # Bin(n, 1) has all mass at n, so the tail vanishes and the ratio is 1/2
    for b in (1, 4, 17):
        assert ramanujan_z(BinomialSpec(b, b)) == Rat(1, 2)


@pytest.mark.parametrize("b,n", [(1, 3), (2, 5), (4, 11), (9, 20)])
def test_z_matches_definition(b, n):
    z = ramanujan_z(BinomialSpec(b, n))
    tail = oracle_tail(b, n)
    pmf = oracle_pmf(b, n, b)
    want = (Fraction(1, 2) - tail) / pmf
    assert Fraction(int(z.numerator), int(z.denominator)) == want


def test_tail_value_consistency():
    tv = tail_value(BinomialSpec(4, 10))
    assert tv.p == tail_p(BinomialSpec(4, 10))
    assert tv.z == ramanujan_z(BinomialSpec(4, 10))


def test_median_equals_b():
    # |median - b| <= ln 2 forces equality for the integer-mean binomial
    for b, n in [(1, 2), (2, 7), (5, 11), (8, 30), (13, 13)]:
        assert median_binomial(BinomialSpec(b, n)) == b


def test_p_diff_sign_matches_oracle():
    for n in range(2, 26):
        for b in range(1, n):
            lhs = oracle_tail(b + 1, n) if b + 1 <= n else Fraction(1)
            rhs = oracle_tail(b, n)
            want = (lhs > rhs) - (lhs < rhs)
            assert p_diff_sign(b, n) == want


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def test_per_n_rows_match_oracle_signs():
    for n in range(2, 61):
        tails = [oracle_tail(b, n) for b in range(1, n + 1)]
        zs = [(Fraction(1, 2) - t) / oracle_pmf(b, n, b) for b, t in enumerate(tails, 1)]
        assert p_diff_signs(n) == [_sign(hi - lo) for lo, hi in zip(tails, tails[1:])]
        assert z_diff_signs(n) == [_sign(hi - lo) for lo, hi in zip(zs, zs[1:])]


def test_per_pair_wrappers_match_rows():
    for n in (2, 9, 17):
        assert [p_diff_sign(b, n) for b in range(1, n)] == p_diff_signs(n)
        assert [z_diff_sign_exact(b, n) for b in range(1, n)] == z_diff_signs(n)
    for fn in (p_diff_signs, z_diff_signs):
        with pytest.raises(DomainError):
            fn(1)
    with pytest.raises(DomainError):
        z_diff_sign_exact(3, 3)


def test_p_diff_boundary_examples():
    # the sign flips exactly at n = 3b + 2
    assert p_diff_sign(2, 7) == -1
    assert p_diff_sign(2, 8) == 1
    assert p_diff_sign(5, 16) == -1
    assert p_diff_sign(5, 17) == 1


def test_symmetry_identity():
    for n in range(2, 40):
        assert z_symmetry_row(n) == [True] * (n - 1)


def test_domain_validation():
    with pytest.raises(DomainError):
        BinomialSpec(0, 5)
    with pytest.raises(DomainError):
        BinomialSpec(6, 5)
    with pytest.raises(DomainError):
        p_diff_sign(5, 5)
