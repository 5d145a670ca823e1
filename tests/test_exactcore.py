"""Exact binomial tail core: cross-checked against an independent
fractions/comb oracle."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from binram import exactcore
from binram.backend import Rat
from binram.exactcore import (
    BinomialSpec,
    DomainError,
    p_diff_sign,
    p_diff_signs,
    ramanujan_z,
    tail_numerator,
    tail_pmf_head,
    tail_pmf_numerators,
    tail_row,
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


def tail_p(spec: BinomialSpec):
    """Exact P(X < b) from the package's integer kernel."""
    return Rat(tail_numerator(spec), spec.n**spec.n)


def exact_pmf(spec: BinomialSpec, i: int):
    """Exact P(X = i) as one rational over n**n."""
    b, n = spec.b, spec.n
    return Rat(math.comb(n, i) * b**i * (n - b) ** (n - i), n**n)


def median_binomial(spec: BinomialSpec) -> int:
    """Smallest m with P(X <= m) >= 1/2, by an exact cdf walk over n**n."""
    b, n = spec.b, spec.n
    s = n - b
    if s == 0:
        return n  # X = n surely
    scale = n**n
    acc, term = 0, s**n  # term = C(n, i) b**i s**(n-i), advanced exactly
    for i in range(n + 1):
        acc += term
        if 2 * acc >= scale:
            return i
        term = term * (n - i) * b // ((i + 1) * s)
    raise AssertionError("cdf never reached 1/2")


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
    for n in (2, 3, 4, 9, 17, 18):
        assert [p_diff_sign(b, n) for b in range(1, n)] == p_diff_signs(n)
        assert [z_diff_sign_exact(b, n) for b in range(1, n)] == z_diff_signs(n)
    for fn in (p_diff_signs, z_diff_signs):
        with pytest.raises(DomainError):
            fn(1)
    with pytest.raises(DomainError):
        z_diff_sign_exact(3, 3)


def _comb_numerators(n, b, p, r, top=None):
    """(sum_{i<b} C(n, i) p**i (r-p)**(top-i), C(n, b) p**b (r-p)**(top-b)):
    the numerators (T, N) at top = n, the default, and the head (A, t) at top = b."""
    top = n if top is None else top
    return (sum(math.comb(n, i) * p**i * (r - p) ** (top - i) for i in range(b)),
            math.comb(n, b) * p**b * (r - p) ** (top - b))


def test_tail_pmf_numerators_match_comb_oracle():
    # 2b > n takes the short side; p = 0, p = r, b = 0 and b = n are all here
    for n in range(41):
        for b in range(n + 1):
            ratios = [(0, 1), (1, 1), (1, 3), (7, 10)] + ([(b, n)] if n else [])
            for p, r in ratios:
                assert tail_pmf_numerators(n, b, p, r) == _comb_numerators(n, b, p, r), (n, b, p, r)


def test_tail_pmf_head_matches_comb_oracle():
    # every b, b > n/2 included (z_highprec and z_symmetry_row read those heads)
    for n in range(61):
        for b in range(n + 1):
            ratios = [(0, 1), (1, 1), (1, 3), (7, 10)] + ([(b, n)] if n else [])
            for p, r in ratios:
                assert tail_pmf_head(n, b, p, r) == _comb_numerators(n, b, p, r, top=b), (n, b, p, r)


def _long_side_row(n, b_lo, b_hi):
    """(T_b, N_b) for b = b_lo..b_hi, each the long-side head times (n-b)**(n-b)."""
    row = []
    for b in range(b_lo, b_hi + 1):
        head, t = tail_pmf_head(n, b, b, n)
        top = (n - b) ** (n - b)
        row.append((head * top, t * top))
    return row


def _long_side_signs(n, b_lo, b_hi):
    """p and z signs for b = b_lo..b_hi from the long side: P(X < b) = T_b / n**n
    and z_b = (n**n - 2 T_b) / (2 N_b)."""
    scale, row = n**n, _long_side_row(n, b_lo, b_hi + 1)
    p = [_sign(t1 - t0) for (t0, _), (t1, _) in zip(row, row[1:])]
    z = [_sign((scale - 2 * t1) * m0 - (scale - 2 * t0) * m1)
         for (t0, m0), (t1, m1) in zip(row, row[1:])]
    return p, z


def test_rows_match_long_side_rows():
    for n in range(2, 121):
        p, z = _long_side_signs(n, 1, n - 1)
        assert p_diff_signs(n) == p, n
        assert z_diff_signs(n) == z, n


def test_per_pair_signs_at_n_2000_match_long_side():
    n = 2000
    for b in (1, 999, 1000, 1001, 1500, 1998, 1999):
        (p,), (z,) = _long_side_signs(n, b, b)
        assert (p_diff_sign(b, n), z_diff_sign_exact(b, n)) == (p, z), b


def test_tail_row_equals_per_b_numerators_on_every_window():
    # windows below, straddling and wholly above n/2, with 2b = n and b = n
    for n in range(1, 31):
        scale = n**n
        want = [(scale - 2 * t, pmf)
                for t, pmf in (tail_pmf_numerators(n, b, b, n) for b in range(1, n + 1))]
        for b_lo in range(1, n + 1):
            for b_hi in range(b_lo, n + 1):
                assert tail_row(n, b_lo, b_hi) == want[b_lo - 1:b_hi], (n, b_lo, b_hi)


def _heads_per_c(monkeypatch, fn, *args):
    """Counter of the b argument of every exactcore.tail_pmf_head call that fn makes."""
    real, calls = exactcore.tail_pmf_head, Counter()

    def spy(n, b, p, r):
        calls[b] += 1
        return real(n, b, p, r)

    monkeypatch.setattr(exactcore, "tail_pmf_head", spy)
    fn(*args)
    monkeypatch.undo()
    return calls


def test_rows_compute_each_long_side_once(monkeypatch):
    # c = min(b, n-b) runs over 0..n//2 on the row b = 1..n; c = 0 is b = n,
    # which the z row reaches only at n <= 3
    for n in (2, 3, 4, 5, 9, 10, 17, 30, 31, 120):
        assert _heads_per_c(monkeypatch, p_diff_signs, n) == Counter(range(n // 2 + 1)), n
        calls = _heads_per_c(monkeypatch, z_diff_signs, n)
        assert set(calls.values()) == {1}, n
        assert set(range(1, n // 2 + 1)) <= set(calls) <= set(range(n // 2 + 1)), n
    for n in (3, 9, 31):  # the diagonal b + 1 = n - b shares one long side
        b = (n - 1) // 2
        assert _heads_per_c(monkeypatch, p_diff_sign, b, n) == Counter([b]), n
        assert _heads_per_c(monkeypatch, z_diff_sign_exact, b, n) == Counter([b]), n


def test_symmetry_row_fails_on_a_faulty_long_side(monkeypatch):
    # the short side is the complement identity, so a row read from it would
    # hold by construction; a fault in the long side at any b must show
    real = exactcore.tail_pmf_head
    for n in (9, 10):
        for bad in range(1, n):
            def faulty(m, b, p, r, bad=bad):
                head, t = real(m, b, p, r)
                return (head + 1 if b == bad else head), t

            monkeypatch.setattr(exactcore, "tail_pmf_head", faulty)
            row = z_symmetry_row(n)
            assert [b for b, ok in enumerate(row, 1) if not ok] == sorted({bad, n - bad}), (n, bad)
    monkeypatch.undo()
    assert z_symmetry_row(10) == [True] * 9


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
