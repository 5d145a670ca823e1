"""Certified enclosure path: every z enclosure contains the exact z within its
documented width, its signs equal the exact signs, and the guard contracts of
the expansion residual and threshold scan hold."""

import math
from fractions import Fraction

import mpmath
import pytest

from binram import highprec
from binram.backend import Rat
from binram.exactcore import BinomialSpec, DomainError, ramanujan_z, tail_value, z_diff_signs
from binram.highprec import (
    EXACT_CUTOFF,
    INCONCLUSIVE,
    _enclosed_signs,
    claim5_residual,
    theorem2_threshold,
    z_diff_sign,
    z_highprec,
)
from binram.precision import PrecisionError, PrecisionPolicy
from interval_chain import chain

POLICY = PrecisionPolicy(digits=30, max_escalations=3)


def assert_encloses_exact(b, n):
    enclosure = z_highprec(BinomialSpec(b, n), POLICY)
    exact = tail_value(BinomialSpec(b, n))
    assert enclosure.lo <= exact.z <= enclosure.hi
    width = enclosure.hi - enclosure.lo
    assert width < Rat(1, 10**20)
    # the width z_highprec documents: below 10**-digits / (8 (n-b+1) P(X = b))
    assert width < 1 / (8 * (n - b + 1) * exact.pmf_at_b * 10**POLICY.digits)


@pytest.mark.parametrize("b,n", [(1, 3), (5, 17), (20, 100), (40, 120), (13, 13)])
def test_z_highprec_within_error_of_exact(b, n):
    assert_encloses_exact(b, n)


@pytest.mark.parametrize("n", [500, 2000])
def test_z_highprec_encloses_exact_at_larger_n(n):
    for b in sorted({1, 2, n // 7, n // 3, n // 2, n - 200, n - 1, n}):
        assert_encloses_exact(b, n)


@pytest.mark.parametrize("b", [1, 37, 73, 146, 292])
def test_z_highprec_encloses_exact_above_the_cutoff(b):
    assert_encloses_exact(b, 10**4)


def test_z_diff_sign_exact_below_cutoff():
    assert EXACT_CUTOFF >= 2000
    for n in (50, 200):
        for b in range(1, n, 7):
            got = z_diff_sign(b, n, POLICY)
            hi = ramanujan_z(BinomialSpec(b + 1, n))
            lo = ramanujan_z(BinomialSpec(b, n))
            assert got == (hi > lo) - (hi < lo)


def test_z_diff_sign_float_path_agrees_with_exact():
    # the enclosure row, which z_diff_sign uses above the cutoff, against the exact rows
    for n in [*range(2, 121), 150, 2000]:
        assert _enclosed_signs(n, 1, n - 1, POLICY) == z_diff_signs(n), n


@pytest.mark.parametrize("slope", [1, -1])
def test_overlapping_enclosures_escalate_then_stay_inconclusive(monkeypatch, slope):
    digits = []

    def overlapping(n, b, d):  # the midpoints move by slope/100, yet no sign is certain
        digits.append(d)
        return slope * b, slope * b + 100, 100

    monkeypatch.setattr(highprec, "_z_numerators", overlapping)
    assert _enclosed_signs(100, 5, 5, POLICY) == [INCONCLUSIVE]
    assert digits == [30, 30, 60, 60, 120, 120, 240, 240]


def test_threshold_scan_builds_no_fraction(monkeypatch):
    """The scan decides every sign on integers: with Fraction construction
    made to raise, its report at n = 10**4 is unchanged."""
    want = theorem2_threshold(10**4)

    def boom(*args, **kwargs):
        raise AssertionError("the scan must not build a Fraction")

    monkeypatch.setattr(Fraction, "__new__", boom)
    assert theorem2_threshold(10**4) == want


def test_z_diff_sign_domain_guard():
    with pytest.raises(DomainError):
        z_diff_sign(5, 5)
    with pytest.raises(DomainError):
        z_diff_sign(0, 10)


def test_claim5_residual_regime_guard():
    with pytest.raises(DomainError):
        claim5_residual(10, 999)  # n < 10 b**2


def chain_claim5_residual(b, n, policy):
    """claim5_residual as the interval chain it replaces: z's enclosure minus
    the expansion, its midpoint and width read off the difference."""
    expansion = Rat(1, 3) + Rat(4, 135 * b) + Rat(b, 3 * n)
    for digits in policy.escalation_digits():
        residual = chain(z_highprec(BinomialSpec(b, n), PrecisionPolicy(digits=digits))) - expansion
        mid = residual.midpoint()
        if 10 * residual.width() < abs(mid):
            return mid
    raise PrecisionError(f"residual at (b={b}, n={n}) stayed below the enclosure width")


def test_claim5_residual_magnitude():
    # residual ~ -4/(135 b) * (something O(1/b^0.5)): check the pinned scale
    r = claim5_residual(30, 9000, POLICY)
    scaled = abs(r) * mpmath.mpf(30) ** 1.5
    assert mpmath.mpf("0.0005") < scaled < mpmath.mpf("0.0012")
    assert r == chain_claim5_residual(30, 9000, POLICY)


@pytest.mark.parametrize("b", [30, 60, 120])
def test_claim5_residual_matches_the_interval_chain_at_criterion_8(b):
    policy = PrecisionPolicy(digits=60, max_escalations=3)
    assert claim5_residual(b, 10 * b * b, policy) == chain_claim5_residual(b, 10 * b * b, policy)


@pytest.mark.parametrize("n", [10**4, 12345, 20001, 4 * 10**4, 77777, 10**5,
                               25 * 10**4, 999_983, 10**6, 3_141_592, 10**7])
def test_predicted_is_the_correctly_rounded_sqrt(n):
    # 77 n is exact in a float below 2**53, and both sides round / and sqrt correctly
    assert math.sqrt(77 * n / 360) == float(mpmath.sqrt(mpmath.mpf(77) * n / 360))


def test_threshold_scan_size_guard():
    with pytest.raises(DomainError):
        theorem2_threshold(9999)


@pytest.mark.slow
def test_threshold_scan_structure():
    rep = theorem2_threshold(10**4, POLICY)
    assert rep.predicted == float(mpmath.sqrt(mpmath.mpf(77) * 10**4 / 360))
    assert rep.inconclusive_points == []
    assert rep.b_star_low > 0
    # single -/+ flip in the scanned window
    ups = [c for c in rep.sign_changes if c[1] == -1 and c[2] == 1]
    assert len(ups) == 1
    assert rep.b_star_high == rep.n - 1 - rep.b_star_low
    # the flip and the exact path agree across the flip point
    b = rep.b_star_low
    assert z_diff_sign(b - 1, rep.n, POLICY) == -1
    assert z_diff_sign(b, rep.n, POLICY) == 1
