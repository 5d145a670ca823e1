"""Inequality certificates on reduced ranges: statuses, the known corner
violations of the medium-band sufficient inequality, sharpness probes, and the
derivative-sign tail argument."""

import pytest

from binram import certificates
from binram.backend import Rat
from binram.certificates import (
    VERIFIED,
    VIOLATED,
    _tail_positive,
    above_half_bracket,
    check_above_half,
    check_boundary_cases,
    check_exp_bounds,
    check_medium,
    check_r_positivity,
    check_root_bounds,
    check_small_b,
    check_z_lowerbound,
    thm3_sign_suite,
    z_diff_lower_bound,
)
from binram.exactcore import BinomialSpec, DomainError, ramanujan_z
from binram.kernel import eval_P
from binram.report import Report


def test_tail_positive():
    assert _tail_positive([1, 2, 1], 1)  # (1 + x)^2 right of 1
    assert _tail_positive([-39, 77, 20], 10**4)
    assert not _tail_positive([1, -1], 5)  # negative leading coefficient
    assert not _tail_positive([-100, 1], 5)  # negative value at 5
    assert not _tail_positive([1, 0, 1], 0)  # zero derivative at 0 is rejected


def test_small_b_verified():
    # the sufficient quadratic form first holds at b = 39, so the direct
    # scan must cover b <= 39 before the tail argument takes over
    cert = check_small_b(b_lo=6, b_hi=39, n_cap=157, tail_b_hi=400)
    assert cert.status == VERIFIED
    assert cert.witnesses == []
    assert cert.extra["sufficient_form_failures"] == []


def test_r_positivity_verified():
    assert check_r_positivity(150).status == VERIFIED


def test_medium_has_exactly_the_three_corner_violations():
    """The sufficient inequality 5P < bn(3bn + 46b - 57n) genuinely fails at
    three corner points with n = 3b + 1; hand check: P(6, 19) = -8094, so
    5P = -40470 is not below 6*19*(3*6*19 + 46*6 - 57*19) = -53010."""
    assert eval_P(6, 19) == -8094
    assert 6 * 19 * (3 * 6 * 19 + 46 * 6 - 57 * 19) == -53010
    cert = check_medium(b_lo=6, b_hi=19, tail_b_hi=300)
    assert cert.status == VIOLATED
    assert {(w.b, w.n) for w in cert.witnesses} == {(6, 19), (7, 22), (8, 25)}
    assert all(w.note == "direct" for w in cert.witnesses)


def test_above_half_verified_and_bracket_negative():
    cert = check_above_half(bt_lo=5, bt_hi=120, spot_stride=11)
    assert cert.status == VERIFIED
    assert cert.extra["direct_spots"] > 0
    # the unreduced bracket is negative at the medium corner points, so the
    # theorem's conclusion survives the sufficient-inequality failures there
    for bt, n in [(6, 19), (7, 22), (8, 25)]:
        assert above_half_bracket(bt, n) < 0


def test_exp_bounds_verified_small():
    cert = check_exp_bounds(120)
    assert cert.status == VERIFIED


def test_exp_bounds_equality_edge():
    # at (b, m) = (b, b+1) the two sides coincide: (b+1)^b b^b = b^b (b+1)^b;
    # the scanned bands exclude it, so it must not appear as a violation
    cert = check_exp_bounds(24)
    assert cert.status == VERIFIED
    from binram.backend import Int
    b = 10
    assert Int(b + 1) ** b * Int(b) ** b == Int(b) ** b * Int(b + 1) ** b


def test_z_lowerbound_thresholds_at_range_start():
    cert = check_z_lowerbound(b_lo=6, b_hi=12, n_max=80, diag_n_max=81)
    assert cert.status == VERIFIED
    for b, thr in cert.extra["thresholds"].items():
        assert thr == 2 * b + 2
    assert all(cert.extra["diagonal_holds"].values())


def test_z_lowerbound_is_a_true_lower_bound():
    for b, n in [(6, 14), (8, 40), (10, 60)]:
        bound = z_diff_lower_bound(b, n)
        diff = ramanujan_z(BinomialSpec(b + 1, n)) - ramanujan_z(BinomialSpec(b, n))
        assert bound <= diff


def test_z_lowerbound_domain_guards():
    with pytest.raises(DomainError):
        z_diff_lower_bound(10, 20)  # b > (n-1)/2
    with pytest.raises(DomainError):
        check_z_lowerbound(n_max=2001)
    with pytest.raises(DomainError):
        check_z_lowerbound(b_lo=30, b_hi=40, n_max=50)


def test_sign_suite_witness_reaches_the_boundary_certificate(monkeypatch):
    report = Report(meta={}, header=[])
    thm3_sign_suite(report, [(5, [1, 1, -1, -1])])  # at n = 5 only b = 1 is positive
    assert [(v.claim_id, v.b, v.n) for v in report.violations] == [("thm3", 2, 5)]
    assert [row[-1] for row in report.results] == [True, False, True, True]
    real = certificates.p_diff_sign
    flipped = {(2, 20), (16, 21)}  # b <= 5, and b = n-5 below n = 28
    monkeypatch.setattr(certificates, "p_diff_sign",
                        lambda b, n: -real(b, n) if (b, n) in flipped else real(b, n))
    cert = check_boundary_cases(n_scan=40)
    assert cert.status == VIOLATED
    assert [(w.claim_id, w.b, w.n, w.note) for w in cert.witnesses] == [
        ("appB-boundary", 2, 20, "sign-vs-boundary"), ("appB-boundary", 16, 21, "sign-vs-boundary")]


def test_boundary_cases_verified():
    cert = check_boundary_cases(n_scan=80)
    assert cert.status == VERIFIED
    assert cert.extra["e_bracket_digits"] == 40


def test_root_bounds_verified_with_sharpness():
    cert = check_root_bounds(b_hi=500)
    assert cert.status == VERIFIED
    probes = cert.extra["sharpness_probes"]
    # one step below the stated ranges the products really go negative
    assert probes["appC-root-bound-39"] == -3081144864
    assert probes["appC-root-bound-19"] == -42693300
