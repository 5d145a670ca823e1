"""Inequality certificates on reduced ranges: statuses, the known corner
violations of the medium-band sufficient inequality, the root products'
sharpness, the derivative-sign tail argument, the forward-difference
proofs of the Appendix C families against their direct scans, and the
boundary-case bounds at the ends of the e bracket against the interval
chain."""

import math
import random
from fractions import Fraction

import pytest

from binram import certificates
from binram.backend import Rat
from binram.certificates import (
    MEDIUM_FAMILIES,
    R_DEGREE,
    ROOT_FAMILIES,
    SMALL_B_FAMILIES,
    VERIFIED,
    VIOLATED,
    _ROOT_PRODUCTS,
    _above_half_cleared,
    _ineq1,
    _ineq2,
    _positive_from,
    _root_product,
    _tail_positive,
    _top_boundary_coeffs,
    _z_bound_gap,
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
from binram.exactcore import BinomialSpec, DomainError, ramanujan_z, tail_pmf_numerators
from binram.intervals import IntervalValue, e_enclosure, terms_for_digits
from binram.kernel import derivative_closed_form, eval_P, eval_R
from binram.report import Report
from interval_chain import chain


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


def test_the_verdict_follows_the_witnesses():
    """A certificate reads violated as soon as it holds a witness, whether
    recorded or appended, with no further call; verified while it holds none."""
    rng = certificates.RangeSpec("test", 1, 2, 3, 4)
    cert = certificates.InequalityCertificate("test-claim", rng)
    assert cert.status == VERIFIED
    cert.record_violation(1, 3, Rat(1), Rat(0), note="recorded")
    assert cert.status == VIOLATED
    appended = certificates.InequalityCertificate("test-claim", rng)
    appended.witnesses.extend(cert.witnesses)
    assert appended.status == VIOLATED


def test_r_positivity_verified():
    assert check_r_positivity(150).status == VERIFIED


@pytest.mark.parametrize("n_max,b_top", [(150, 49), (151, 49), (152, 50), (500, 166)])
def test_r_positivity_states_the_range_it_scans(n_max, b_top):
    """The stated b range ends at (n_max-2)//3, the largest b the scan reaches."""
    cert = check_r_positivity(n_max)
    assert cert.range.describe() == f"small-b-band: b in [6, {b_top}], n in [20, {n_max}]"
    assert max((n - 2) // 3 for n in range(20, n_max + 1)) == b_top


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
    # at n = 2b+1, m = b+1, the low-side comparison is f(b) < f(b): its two
    # sides are equal, which is why the low band stops at b <= (n-2)/2
    cert = check_exp_bounds(24)
    assert cert.status == VERIFIED
    down_pow = [1] + [k ** (k - 1) for k in range(1, 25)]
    for b in range(1, 12):
        lhs, rhs = certificates._low_side(b, 2 * b + 1, down_pow)
        assert lhs == rhs == (b + 1) ** b * b**b
        lhs, rhs = certificates._low_side(b, 2 * b + 2, down_pow)
        assert lhs < rhs  # the band's own last point stays strict


def _failing_link(monkeypatch, bad_k=2):
    """Make link k = bad_k of the monotone chain fail; return the list that
    counts the comparisons the direct scan then hands out."""
    real_links, real_sides = certificates._chain_links, certificates._exp_bounds_sides
    handed_out = []

    def links(k_hi):
        for k, lhs, rhs in real_links(k_hi):
            yield (k, rhs, lhs) if k == bad_k else (k, lhs, rhs)

    def sides(n_max):
        for side in real_sides(n_max):
            handed_out.append(side[:2])
            yield side

    monkeypatch.setattr(certificates, "_chain_links", links)
    monkeypatch.setattr(certificates, "_exp_bounds_sides", sides)
    return handed_out


def _summary(cert):
    return cert.status, cert.range.describe(), [w.as_row() for w in cert.witnesses]


def test_exp_bounds_chain_matches_the_direct_scan():
    sizes = list(range(4, 121)) + [300]
    chain = {n: _summary(check_exp_bounds(n)) for n in sizes}
    with pytest.MonkeyPatch.context() as mp:
        _failing_link(mp, bad_k=1)  # k = 1 is in every chain, so every size falls back
        direct = {n: _summary(check_exp_bounds(n)) for n in sizes}
    assert chain == direct
    assert chain[300] == (VERIFIED, "exp-bounds: b in [1, 298], n in [4, 300]", [])


def test_chain_links_compare_consecutive_f():
    # lhs/rhs of link k is f(k)/f(k+1) for f(k) = (1 + 1/k)^k, so lhs < rhs
    # says exactly f(k) < f(k+1)
    links = list(certificates._chain_links(60))
    assert [k for k, _, _ in links] == list(range(1, 61))
    for k, lhs, rhs in links:
        assert Rat(lhs, rhs) == Rat(k + 1, k) ** k / Rat(k + 2, k + 1) ** (k + 1)


def test_exp_bounds_failing_link_falls_back_to_the_direct_scan(monkeypatch):
    handed_out = _failing_link(monkeypatch, bad_k=17)
    check_exp_bounds(19)  # its chain ends at k = 16, so it never reaches the bad link
    assert handed_out == []
    cert = check_exp_bounds(40)
    assert cert.status == VERIFIED  # every direct comparison holds
    # the scan ran in full: 361 low-side and 341 high-side comparisons
    assert len(set(handed_out)) == len(handed_out) == 361 + 341
    assert {n for _, n in handed_out} == set(range(4, 41))
    handed_out.clear()
    check_exp_bounds(20)  # its last link is k = n_max - 3 = 17
    assert handed_out


def test_exp_bounds_fallback_witnesses_reach_the_certificate(monkeypatch):
    _failing_link(monkeypatch)
    real_low_side = certificates._low_side
    falsified = {(3, 10), (7, 10)}  # (3, 10) is on the low band, (7, 10) on the high band

    def low_side(b, n, down_pow):
        lhs, rhs = real_low_side(b, n, down_pow)
        return (rhs, lhs) if (b, n) in falsified else (lhs, rhs)

    monkeypatch.setattr(certificates, "_low_side", low_side)
    cert = check_exp_bounds(12)
    assert cert.status == VIOLATED
    assert [(w.claim_id, w.b, w.n, w.note) for w in cert.witnesses] == [
        ("eq-negative_appendix", 3, 10, "low-side"),
        ("eq-negative_appendix", 7, 10, "high-side"),
    ]
    low, high = cert.witnesses
    # both rows carry the exact, swapped sides: (b+1)^b (m-1)^(m-1) vs b^b m^(m-1)
    assert (low.raw_lhs, low.raw_rhs) == (f"{3**3 * 7**6}/1", f"{4**3 * 6**6}/1")
    assert (high.raw_lhs, high.raw_rhs) == (f"{8**7 * 2**2}/1", f"{7**7 * 3**2}/1")


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


def _gap_at(b, n):
    """certificates._z_bound_gap(b, n) with its inputs built directly from the
    tail numerators (T_b, N_b) and (_, N_{b+1}), and the positive factor
    2 N_b N_{b+1} (m+1) F_den that clears the denominators of its proof."""
    (t, n_b), (_, n_b1) = (tail_pmf_numerators(n, c, c, n) for c in (b, b + 1))
    m = n - b - 1
    f_den = 18 * (b + 1) ** 2 * m**2
    return _z_bound_gap(b, n, n**n - 2 * t, n_b, n_b1), 2 * n_b * n_b1 * (m + 1) * f_den


def test_z_bound_gap_is_the_cleared_rational_gap():
    """The integer gap is (bound - difference) times a positive factor, so its
    sign decides bound <= difference exactly: at every point with n <= 80, at
    300 seeded points with 6 <= b <= 40, n <= 400, at 20 seeded points with
    1000 <= n <= 2000, and on the diagonal b = (n-1)/2 at a few odd n <= 1001."""
    rng = random.Random(8)
    points = [(b, n) for n in range(3, 81) for b in range(1, (n - 1) // 2 + 1)]
    points += [(b, n) for n in (rng.randint(14, 400) for _ in range(300))
               for b in [rng.randint(6, min(40, (n - 1) // 2))]]
    points += [(b, n) for n in (rng.randint(1000, 2000) for _ in range(20))
               for b in [rng.randint(6, 40)]]
    points += [((n - 1) // 2, n) for n in (201, 401, 601, 1001)]
    for b, n in points:
        bound = z_diff_lower_bound(b, n)
        diff = ramanujan_z(BinomialSpec(b + 1, n)) - ramanujan_z(BinomialSpec(b, n))
        gap, scale = _gap_at(b, n)
        assert (gap <= 0) == (bound <= diff), (b, n)
        assert Rat(gap, scale) == bound - diff, (b, n)


def test_z_lowerbound_needs_only_the_tail_kernel(monkeypatch):
    """The scan decides every point from the tail rows: with the integral
    kernel and lcm made to raise, its thresholds and diagonal are unchanged."""
    want = check_z_lowerbound(n_max=60)

    def boom(*args):
        raise AssertionError("the scan must not call the integral kernel")

    monkeypatch.setattr(certificates.kernel, "integral_sum", boom)
    monkeypatch.setattr(math, "lcm", boom)
    got = check_z_lowerbound(n_max=60)
    assert got.extra == want.extra
    assert got.status == want.status == VERIFIED


def _z_diff(b, n):
    return ramanujan_z(BinomialSpec(b + 1, n)) - ramanujan_z(BinomialSpec(b, n))


def _rat_scan(b_lo, b_hi, n_max, diag_n_max):
    """The per-point Rat comparison that check_z_lowerbound replaced, as its oracle."""
    b_hi = min(b_hi, (n_max - 2) // 2)
    diag_n_max = min(diag_n_max, n_max + 1)
    rng = certificates.RangeSpec("z-lowerbound", b_lo, b_hi, 2 * b_lo + 2, n_max)
    cert = certificates.InequalityCertificate("eq-diff_z_bn_lowerbound", rng)

    def holds(b, n):
        return z_diff_lower_bound(b, n) <= _z_diff(b, n)

    thresholds = {}
    for b in range(b_lo, b_hi + 1):
        first_good = None
        for n in range(2 * b + 2, n_max + 1):
            if holds(b, n):
                if first_good is None:
                    first_good = n
            else:
                first_good = None
        thresholds[b] = first_good
        if first_good is None:
            cert.record_violation(b, n_max, z_diff_lower_bound(b, n_max), _z_diff(b, n_max),
                                  note="no threshold within range")
    cert.extra["thresholds"] = thresholds
    cert.extra["diagonal_holds"] = {n: holds((n - 1) // 2, n)
                                    for n in range(2 * b_lo + 3, diag_n_max + 1, 2)}
    return cert


@pytest.mark.parametrize("n_max", [14, 15, 41, 80, 200])
def test_z_lowerbound_matches_the_rat_scan(n_max):
    got, want = check_z_lowerbound(n_max=n_max), _rat_scan(6, 40, n_max, 201)
    assert got.status == want.status == VERIFIED
    assert got.range.describe() == want.range.describe()
    assert got.extra["thresholds"] == want.extra["thresholds"]
    assert got.extra["diagonal_holds"] == want.extra["diagonal_holds"]
    assert [w.as_row() for w in got.witnesses] == [w.as_row() for w in want.witnesses]


def test_z_lowerbound_scan_feeds_each_point_its_own_inputs(monkeypatch):
    """The scan reads each point's entries from a row shared by all b at one n;
    every point it decides, diagonal included, must get the gap built from its
    own entries at b and b+1."""
    real, calls = certificates._z_bound_gap, []

    def spy(b, n, *rest):
        calls.append((b, n, real(b, n, *rest)))
        return calls[-1][2]

    monkeypatch.setattr(certificates, "_z_bound_gap", spy)
    check_z_lowerbound(n_max=60)
    scan = {(b, n) for n in range(14, 61) for b in range(6, (n - 2) // 2 + 1)}
    diagonal = {((n - 1) // 2, n) for n in range(15, 62, 2)}
    assert sorted((b, n) for b, n, _ in calls) == sorted(scan | diagonal)
    for b, n, gap in calls:
        assert gap == _gap_at(b, n)[0], (b, n)


def test_z_lowerbound_failing_points_set_thresholds_and_witnesses(monkeypatch):
    """A failure at (7, 50) moves b = 7's threshold to 51; a failure at
    (9, n_max) leaves b = 9 without one, witnessed by the exact bound against
    the exact difference z(10, n_max) - z(9, n_max)."""
    real = certificates._z_bound_gap
    failing = {(7, 50), (9, 60)}
    monkeypatch.setattr(certificates, "_z_bound_gap",
                        lambda b, n, *rest: 1 if (b, n) in failing else real(b, n, *rest))
    cert = check_z_lowerbound(n_max=60)
    assert cert.status == VIOLATED
    assert cert.extra["thresholds"] == {b: {7: 51, 9: None}.get(b, 2 * b + 2) for b in range(6, 30)}
    (witness,) = cert.witnesses
    assert (witness.claim_id, witness.b, witness.n, witness.note) == (
        "eq-diff_z_bn_lowerbound", 9, 60, "no threshold within range")
    bound, diff = z_diff_lower_bound(9, 60), _z_diff(9, 60)
    assert witness.raw_lhs == f"{bound.numerator}/{bound.denominator}"
    assert witness.raw_rhs == f"{diff.numerator}/{diff.denominator}"
    assert bound <= diff  # the true bound holds at (9, 60); only the forced gap failed


def test_z_lowerbound_reads_one_tail_row_per_n_and_per_diagonal_point(monkeypatch):
    """The scan takes one row b_lo..top+1 per n and one row b..b+1 per
    near-diagonal point, and decides the same thresholds and diagonal."""
    want = check_z_lowerbound(n_max=60)
    real, calls = certificates.tail_row, []

    def spy(n, b_lo, b_hi, *rest):
        calls.append((n, b_lo, b_hi))
        return real(n, b_lo, b_hi, *rest)

    monkeypatch.setattr(certificates, "tail_row", spy)
    got = check_z_lowerbound(n_max=60)
    scan = [(n, 6, (n - 2) // 2 + 1) for n in range(14, 61)]
    diagonal = [(n, (n - 1) // 2, (n + 1) // 2) for n in range(15, 62, 2)]
    assert calls == scan + diagonal
    assert got.extra == want.extra
    assert got.status == want.status == VERIFIED


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


E40 = e_enclosure(terms_for_digits(40))  # the bracket check_boundary_cases uses
E_BRACKETS = {
    "40 digits": E40,
    "e_lo + 1/100": IntervalValue(E40.lo, E40.lo + Rat(1, 100)),
    "e_lo - 1/100": IntervalValue(E40.lo - Rat(1, 100), E40.hi),
    "from 23/10": IntervalValue(Rat(23, 10), E40.hi),  # c_3 = 832/3 - 5225/(8e) < 0 at 23/10
    "up to 3": IntervalValue(E40.lo, Rat(3)),  # c_1 = 18649/(24e) - 824/3 < 0 at 3
}
TOP_POWERS = [Rat(1, (28 - 4) ** k) for k in range(6)]


def chain_boundary_bounds(e):
    """The split bounds at n = 20, 40, ..., 200, the top-boundary coefficients
    and their sum at n = 28, as interval chains over the bracket e."""
    e = chain(e)
    coeffs = _top_boundary_coeffs(e)
    return ({(fn, n): fn(n, e) for fn in (_ineq1, _ineq2) for n in range(20, 201, 20)},
            coeffs, sum(c * p for c, p in zip(coeffs, TOP_POWERS)))


@pytest.mark.parametrize("bracket", E_BRACKETS)
def test_boundary_bounds_at_the_bracket_ends_match_the_chain(bracket):
    """_ineq1 and each top coefficient equal their chains endpoint for
    endpoint; _ineq2, with e in three terms, and the sum at n = 28 lie
    inside theirs."""
    e = E_BRACKETS[bracket]
    bounds, coeffs, top = chain_boundary_bounds(e)
    for (fn, n), want in bounds.items():
        lo, hi = sorted((fn(n, e.lo), fn(n, e.hi)))
        if fn is _ineq1:
            assert (lo, hi) == (want.lo, want.hi), n
        else:
            assert want.lo <= lo <= hi <= want.hi, n
    ends = _top_boundary_coeffs(e.lo), _top_boundary_coeffs(e.hi)
    for k, (pair, want) in enumerate(zip(zip(*ends), coeffs)):
        assert (min(pair), max(pair)) == (want.lo, want.hi), k
    sums = [sum(c * p for c, p in zip(cs, TOP_POWERS)) for cs in ends]
    assert top.lo <= min(sums) <= max(sums) <= top.hi


def growth(label, ns):
    return [(5, n, f"{label}-growth") for n in ns]


# (b, n, note) of each witness on a wrong bracket: the lists the interval chain gave too
FORCED_WITNESSES = {
    "e_lo + 1/100": [(5, 20, "ineq1-positivity")] + growth("ineq1", range(60, 201, 20)),
    "e_lo - 1/100": growth("ineq1", range(40, 201, 20)) + [(23, 28, "top-bound-n28")],
    "from 23/10": (growth("ineq1", range(40, 201, 20)) + growth("ineq2", range(40, 201, 20))
                   + [(23, 28, "top-bound-n28"), (23, 28, "top-coeff-3")]),
    "up to 3": ([(5, 20, "ineq1-positivity")] + growth("ineq1", range(40, 201, 20))
                + [(5, 20, "ineq2-positivity")] + growth("ineq2", range(40, 201, 20))
                + [(23, 28, "top-coeff-1")]),
}


@pytest.mark.parametrize("bracket", FORCED_WITNESSES)
def test_boundary_bound_witnesses_on_a_wrong_e_bracket(monkeypatch, bracket):
    """Parts (iv) and (v) fail on a bracket that is too wide or misplaced.
    Where the chain is exact (_ineq1, the coefficients), each witness holds
    the chain's endpoints; the _ineq2 and n = 28 witnesses lie inside it."""
    e = E_BRACKETS[bracket]
    monkeypatch.setattr(certificates, "e_enclosure", lambda terms: e)
    cert = check_boundary_cases(n_scan=30)
    assert cert.status == VIOLATED
    assert [(w.b, w.n, w.note) for w in cert.witnesses] == FORCED_WITNESSES[bracket]
    bounds, coeffs, top = chain_boundary_bounds(e)
    for w in cert.witnesses:
        lhs, rhs = Fraction(w.raw_lhs), Fraction(w.raw_rhs)
        if w.note == "top-bound-n28":
            assert top.lo <= lhs <= top.hi and rhs == 0
        elif w.note.startswith("top-coeff-"):
            assert (lhs, rhs) == (coeffs[int(w.note[-1])].lo, 0)
        elif w.note.startswith("ineq1-"):  # lhs = val.lo, rhs = the previous val.hi or 0
            prev = 0 if w.note.endswith("positivity") else bounds[_ineq1, w.n - 20].hi
            assert (lhs, rhs) == (bounds[_ineq1, w.n].lo, prev)
        else:
            val = bounds[_ineq2, w.n]
            assert val.lo <= lhs <= val.hi
            if w.note.endswith("positivity"):
                assert rhs == 0
            else:
                prev = bounds[_ineq2, w.n - 20]
                assert prev.lo <= rhs <= prev.hi


def test_root_bounds_verified_with_sharpness():
    cert = check_root_bounds(b_hi=500)
    assert cert.status == VERIFIED
    # one step below the stated ranges the products really go negative
    probes = {claim: _root_product(factors, b_lo - 1)
              for claim, (b_lo, factors) in _ROOT_PRODUCTS.items()}
    assert probes == {"appC-root-bound-39": -3081144864, "appC-root-bound-19": -42693300}


# -- forward-difference proofs of the Appendix C families ----------------------


def test_positive_from_cases():
    assert _positive_from(lambda x: (1 + x) ** 2, 2, 0)
    assert _positive_from(lambda x: 7, 0, -5)  # a positive constant
    assert not _positive_from(lambda x: x * (x + 3), 2, 0)  # f(lo) = 0
    assert not _positive_from(lambda x: (x - 10) ** 2 + 1, 2, 0)  # positive, first difference < 0
    # f(lo) > 0 and the first difference too: only the last, -2, is negative
    assert not _positive_from(lambda x: 1 + 100 * x - x**2, 2, 0)
    assert not _positive_from(lambda x: 5 - x, 1, 0)


def _differences(values):
    """The heads D^0, D^1, ... of the forward-difference table of `values`."""
    heads = []
    while values:
        heads.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return heads


def _families():
    """(label, degree, f) for every family a check proves, R at sampled n."""
    out = [(name, degree, f) for name, degree, f in SMALL_B_FAMILIES + MEDIUM_FAMILIES + ROOT_FAMILIES]
    out += [(f"R(b, {n})", R_DEGREE, lambda b, n=n: eval_R(b, n)) for n in (20, 77, 500)]
    return out


@pytest.mark.parametrize("name,degree,f", _families(), ids=[fam[0] for fam in _families()])
def test_family_degree_is_exact(name, degree, f):
    """The (degree+1)-th difference vanishes and the degree-th does not, so the
    stated degree is the family's degree in b; a lower claim would make
    _positive_from read too few points."""
    for lo in (-3, 6, 19, 39, 1000, 10**4):
        heads = _differences([f(lo + t) for t in range(degree + 2)])
        assert heads[degree + 1] == 0, (name, lo)
        assert heads[degree] != 0, (name, lo)


def _force_fallback(monkeypatch):
    monkeypatch.setattr(certificates, "_positive_from", lambda f, degree, lo: False)


def _full(cert):
    return (cert.status, cert.range.describe(), [w.as_row() for w in cert.witnesses], cert.extra)


@pytest.mark.parametrize("check", [check_small_b, check_medium, check_r_positivity,
                                   check_root_bounds], ids=lambda c: c.__name__)
def test_proofs_match_the_direct_scans_at_the_cli_defaults(monkeypatch, check):
    """At the CLI's ranges (b <= 10^4, n <= 500) every proof holds, and the
    direct scan it replaces, forced here, reports the same certificate."""
    proved = _full(check())
    with pytest.MonkeyPatch.context() as mp:
        _force_fallback(mp)
        scanned = _full(check())
    assert proved == scanned


def test_above_half_integer_sign_matches_the_bracket_scan(monkeypatch):
    """At the CLI's range (bt <= 10^3), deciding the spots by the rational
    bracket itself reports the same certificate."""
    proved = _full(check_above_half())
    monkeypatch.setattr(certificates, "_above_half_cleared", above_half_bracket)
    assert _full(check_above_half()) == proved


def test_above_half_cleared_is_the_bracket_times_its_positive_factor():
    """Exactly at every 5 <= bt <= 200 and 2bt+2 <= n <= 3bt+1, the band's spots."""
    for bt in range(5, 201):
        for n in range(2 * bt + 2, 3 * bt + 2):
            m = n - bt - 1
            scale = 120 * n**6 * (bt + 1) ** bt * m ** (m + 1)
            assert Rat(_above_half_cleared(bt, n), scale) == above_half_bracket(bt, n), (bt, n)


def _medium_reference(b_lo, b_hi, tail_b_hi):
    """check_medium's per-point loops, as they stood before the proofs."""
    cert = certificates.InequalityCertificate(
        "eq-medium_b_ineq",
        certificates.RangeSpec("medium-band", b_lo, tail_b_hi, 2 * b_lo, 3 * tail_b_hi + 1))

    def q(b, n):
        return 5 * eval_P(b, n) - b * n * (3 * b * n + 46 * b - 57 * n)

    for b in range(b_lo, b_hi + 1):
        for n in range(2 * b, 3 * b + 1 + 1):
            val = q(b, n)
            if not val < 0:
                cert.record_violation(b, n, val, 0, note="direct")
    for b in range(b_hi, tail_b_hi + 1):
        lead = 20 * b**3 + 77 * b**2 + 117 * b + 120
        lo_val, hi_val = q(b, 2 * b), q(b, 3 * b + 1)
        if not (lead > 0 and lo_val < 0 and hi_val < 0):
            cert.record_violation(b, 2 * b, lo_val, 0, note="convexity-endpoints")
    return cert


def test_medium_falls_back_when_its_proof_fails():
    """From b_hi = 8 the family -q(b, 3b+1) starts at -q(8, 25) = -7280 < 0,
    so its proof fails and the per-b scan finds the endpoint witness at b = 8."""
    assert -certificates._medium_q(8, 25) == -7280
    assert not _positive_from(MEDIUM_FAMILIES[2][2], MEDIUM_FAMILIES[2][1], 8)
    got = check_medium(6, 8, 300)
    want = _medium_reference(6, 8, 300)
    assert _full(got) == _full(want)
    assert [(w.b, w.n, w.note) for w in got.witnesses][-1] == (8, 16, "convexity-endpoints")


def test_small_b_falls_back_when_its_proof_fails():
    """The sufficient form first holds at b = 39, so from b_hi = 20 its proof
    fails and the per-b scan lists b = 20..38."""
    cert = check_small_b(6, 20, 70, 300)
    assert cert.extra["sufficient_form_failures"] == list(range(20, 39))
    assert [(w.b, w.n, w.note) for w in cert.witnesses] == [
        (b, 3 * b + 2, "sufficient-form") for b in range(20, 39)]
    with pytest.MonkeyPatch.context() as mp:
        _force_fallback(mp)
        assert _full(check_small_b(6, 20, 70, 300)) == _full(cert)


@pytest.mark.parametrize("offset,witnessed", [(0, True), (1, False)])
def test_small_b_direct_compare_is_the_rational_compare(monkeypatch, offset, witnessed):
    """With P set to floor(rhs) + offset at each direct point, P > rhs fails
    at offset 0 and holds at offset 1, rhs = b d4 / den the exact rational."""
    def rhs(b, n):
        d4 = derivative_closed_form(BinomialSpec(b, n), 4, n - b, n)
        return Rat(b * d4, 5 * (b + 1) ** (b - 4) * (n - b - 1) ** (n - b - 2))

    monkeypatch.setattr(certificates.kernel, "eval_P",
                        lambda b, n: math.floor(rhs(b, n)) + offset)
    cert = check_small_b(6, 9, 40, 9)
    points = [(b, n) for b in range(6, 10) for n in range(3 * b + 2, 41)]
    assert [(w.b, w.n) for w in cert.witnesses if w.note == "direct"] == (points if witnessed else [])


def _count_calls(monkeypatch, owner, name):
    real, calls = getattr(owner, name), []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_proofs_replace_the_tail_scans(monkeypatch):
    """At the defaults: check_medium evaluates P at the 203 direct points and
    at most 12 proof points, check_root_bounds each product at its 6 proof
    points, and check_r_positivity R at 3 points per n."""
    p_calls = _count_calls(monkeypatch, certificates.kernel, "eval_P")
    assert check_medium().status == VIOLATED
    assert len(p_calls) <= 203 + 12
    root_calls = _count_calls(monkeypatch, certificates, "_root_product")
    assert check_root_bounds().status == VERIFIED
    assert len(root_calls) <= 12
    r_calls = _count_calls(monkeypatch, certificates.kernel, "eval_R")
    assert check_r_positivity().status == VERIFIED
    per_n = {}
    for _, n in r_calls:
        per_n[n] = per_n.get(n, 0) + 1
    assert set(per_n) == set(range(20, 501)) and max(per_n.values()) <= 3
