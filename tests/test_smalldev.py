"""Small-deviations reduction: the two-point sum tail against brute-force
enumeration, the floor property of the shifted tails, the grid scan's
equality structure, and the integer-numerator scans against their
`Fraction` forms."""

import itertools
import math
from fractions import Fraction

import pytest

from binram import smalldev
from binram.backend import Rat
from binram.exactcore import DomainError
from binram.report import ViolationReport
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


def oracle_tail_below(n: int, q: Fraction, b: int) -> Fraction:
    """P(Bin(n, q) < b) as a Fraction sum of pmf terms."""
    return sum((Fraction(math.comb(n, i)) * q**i * (1 - q) ** (n - i)
                for i in range(min(max(b, 0), n + 1))), Fraction(0))


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
    assert to_frac(binomial_tail_below(9, Rat(2, 7), 4)) == oracle_tail_below(9, Fraction(2, 7), 4)


def test_binomial_tail_below_matches_comb_sum():
    for n in range(0, 41):
        for q in (Fraction(0), Fraction(1, 2), Fraction(3, 7), Fraction(n, n + 1), Fraction(1)):
            for b in range(-1, n + 3):
                got = binomial_tail_below(n, Rat(q.numerator, q.denominator), b)
                assert to_frac(got) == oracle_tail_below(n, q, b), (n, q, b)


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
    for step in (Rat(0), Rat(-1, 10)):
        with pytest.raises(DomainError, match="grid_step must be > 0"):
            conjecture_scan(10, step)


def test_tilde_p_monotonicity_scan_records_signs():
    signs, decreases = tilde_p_monotonicity_scan(1, 30)
    assert set(signs) == {(b, n) for n in range(2, 31) for b in range(1, n)}
    # the monotonicity statement is open but holds on this small range
    assert decreases == []
    with pytest.raises(DomainError):
        tilde_p_monotonicity_scan(1, 401)


# -- the scans in Fractions: oracles for the integer-numerator scans ----------


def oracle_tilde_p(c, b: int, n: int) -> Fraction:
    """tp(c, b, n) = P(Bin(n, b/(n+c)) < b)."""
    return oracle_tail_below(n, b / (n + Fraction(c)), b)


def oracle_two_point_tail(alpha: Fraction, beta: Fraction, n: int) -> tuple:
    b = math.ceil((n + 1 - n * alpha) / (beta - alpha))
    return b, oracle_tail_below(n, (1 - alpha) / (beta - alpha), b)


def oracle_verify_samuels(n_max: int, floor_factor: int = 1) -> list:
    """verify_samuels with every floor tp(1, 1, n) multiplied by floor_factor."""
    violations = []
    for n in range(4, n_max + 1):
        floor_val = floor_factor * oracle_tilde_p(1, 1, n)
        for b in range(2, n // 2 + 1):
            val = oracle_tilde_p(1, b, n)
            if not (floor_val <= val):
                violations.append(
                    ViolationReport.from_rationals("samuels", b, n, val, floor_val))
    return violations


def oracle_conjecture_scan(n: int, step: Fraction, bump: Fraction = Fraction(0)) -> tuple:
    """(violations, witnesses, degenerate points) of conjecture_scan, with
    bump added to every reference tail."""
    violations, witnesses, degenerate = [], [], 0
    refs = {b: oracle_tilde_p(1, b, n) + bump for b in range(1, n + 1)}
    alpha = Fraction(0)
    while alpha < 1:
        beta = 1 + step
        while beta <= n + 2:
            b, p = oracle_two_point_tail(alpha, beta, n)
            if b > n:
                degenerate += 1
            elif p < refs[b]:
                violations.append(ViolationReport.from_rationals(
                    "conjecture", b, n, p, refs[b], note=f"alpha={alpha} beta={beta}"))
            elif p == refs[b]:
                witnesses.append((alpha, beta, b))
            beta += step
        alpha += step
    return violations, witnesses, degenerate


def oracle_monotonicity_scan(c, n_max: int) -> tuple:
    signs, decreases = {}, []
    for n in range(2, n_max + 1):
        prev = oracle_tilde_p(c, 1, n)
        for b in range(1, n):
            cur = oracle_tilde_p(c, b + 1, n)
            sign = (cur > prev) - (cur < prev)
            signs[(b, n)] = sign
            if sign < 0:
                decreases.append(ViolationReport.from_rationals(
                    "tilde-p-monotone", b, n, cur, prev))
            prev = cur
    return signs, decreases


def scan_as_fractions(res) -> tuple:
    witnesses = [(to_frac(a), to_frac(be), b) for a, be, b in res.equality_witnesses]
    return res.violations, witnesses, res.degenerate_points


STEPS = [Fraction(1, 10), Fraction(1, 20), Fraction(3, 40), Fraction(2, 21)]


@pytest.mark.parametrize("step", STEPS)
def test_conjecture_scan_matches_fraction_oracle(step):
    for n in range(2, 11):
        got = scan_as_fractions(conjecture_scan(n, Rat(step.numerator, step.denominator)))
        assert got == oracle_conjecture_scan(n, step), (n, step)


@pytest.mark.parametrize("step", [Fraction(1, 10), Fraction(2, 21)])
def test_conjecture_violation_branch_matches_fraction_oracle(step, monkeypatch):
    """Raise every reference numerator by 1, i.e. every reference tail by
    1/(n+1)**n: the equality witnesses turn into violations, which must match
    the oracle's reports, notes included."""
    exact = smalldev._tp_numerator
    monkeypatch.setattr(smalldev, "_tp_numerator", lambda u, v, b, n: exact(u, v, b, n) + 1)
    forced = 0
    for n in range(2, 11):
        got = scan_as_fractions(conjecture_scan(n, Rat(step.numerator, step.denominator)))
        want = oracle_conjecture_scan(n, step, bump=Fraction(1, (n + 1) ** n))
        assert got == want, (n, step)
        assert want[1] == []
        assert all(v.note.startswith("alpha=") and " beta=" in v.note for v in want[0])
        forced += len(want[0])
    assert forced > 0


def test_verify_samuels_matches_fraction_oracle(monkeypatch):
    assert verify_samuels(10) == oracle_verify_samuels(10) == []
    # doubling the floor forces the violation branch
    exact = smalldev._tp_numerator
    monkeypatch.setattr(smalldev, "_tp_numerator",
                        lambda u, v, b, n: exact(u, v, b, n) * (2 if b == 1 else 1))
    want = oracle_verify_samuels(10, floor_factor=2)
    assert want and verify_samuels(10) == want


@pytest.mark.parametrize("c", [Fraction(1), Fraction(3, 2), Fraction(1, 7)])
def test_monotonicity_scan_matches_fraction_oracle(c):
    got = tilde_p_monotonicity_scan(Rat(c.numerator, c.denominator), 10)
    assert got == oracle_monotonicity_scan(c, 10)


def test_tilde_p_and_two_point_tail_match_fraction_oracle():
    for n in range(1, 11):
        for c in (Fraction(1), Fraction(3, 2), Fraction(1, 7)):
            for b in range(1, n + 1):
                got = tilde_p(SmallDevSpec(Rat(c.numerator, c.denominator), b, n))
                assert to_frac(got) == oracle_tilde_p(c, b, n)
        for alpha, beta in [(Fraction(0), Fraction(11, 10)), (Fraction(3, 7), Fraction(5, 2)),
                            (Fraction(2, 3), Fraction(4, 3)), (Fraction(1, 5), Fraction(n + 2))]:
            b, p = two_point_tail(TwoPointDist(Rat(alpha), Rat(beta)), n)
            assert (b, to_frac(p)) == oracle_two_point_tail(alpha, beta, n)
