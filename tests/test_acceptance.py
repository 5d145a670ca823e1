"""Acceptance suite: eleven criteria, one pass/fail line each.

Each criterion runs at its stated range and tolerance.  Criteria 1 and 4-7
call the same claim suites as the CLI (binram.certificates), at the ranges
stated here, and count the witnesses the suite records.  Three criteria
encode claims that are known not to hold as stated and are expected to fail
honestly:

* criterion 5: the Taylor-sandwich lower bound relies on the fourth
  derivative increasing across the cell; that premise fails at the stated
  boundary b = 5 once n >= 48, and the bound itself breaks for b = 5,
  n >= 56 (confirmed exactly and via sympy; every b >= 6 passes).
* criterion 9: the measured sign-flip location scales like sqrt(4n/45), not
  sqrt(77n/360); the ratio tends to sqrt(32/77) ~ 0.645, far outside the
  0.3 tolerance band around 1.
* criterion 10: the medium-band sufficient inequality 5P < bn(3bn+46b-57n)
  genuinely fails at the three corner points (6,19), (7,22), (8,25) with
  n = 3b+1 (hand check: P(6,19) = -8094, 5P = -40470, rhs = -53010).
"""

import math

import mpmath
import pytest

from binram.backend import Rat
from binram.certificates import (
    VERIFIED,
    check_above_half,
    check_exp_bounds,
    check_medium,
    check_root_bounds,
    check_small_b,
    claim1_suite,
    claim2_suite,
    claim3_suite,
    lemma1_suite,
    poisson_suite,
    printed_brackets_suite,
    thm3_sign_suite,
)
from binram.exactcore import BinomialSpec, p_diff_signs, ramanujan_z, z_symmetry_row
from binram.highprec import claim5_residual, theorem2_threshold
from binram.precision import PrecisionPolicy
from binram.report import Report
from binram.smalldev import (
    SmallDevSpec,
    TwoPointDist,
    conjecture_scan,
    tilde_p,
    two_point_tail,
    verify_samuels,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


def suite_report() -> Report:
    return Report(meta={}, header=[])


def test_criterion_01_tail_difference_boundary():
    """sign(p_{b+1} - p_b) = +1 iff n >= 3b+2, -1 iff n <= 3b+1, exactly,
    for all 1 <= b < n <= 300."""
    rep = suite_report()
    thm3_sign_suite(rep, ((n, p_diff_signs(n)) for n in range(2, 301)))
    report(1, "tail-difference boundary", not rep.violations,
           f"{len(rep.violations)} mismatches")


def test_criterion_02_z_range_and_monotonicity():
    """For b <= 80, n <= 320: z in (1/3,1/2) for n > 2b; z in (1/2,2/3) for
    b < n < 2b; z(b,b) = z(b,2b) = 1/2; z decreasing in n for n >= 2b."""
    bad = []
    third, half, two_thirds = Rat(1, 3), Rat(1, 2), Rat(2, 3)
    for b in range(1, 81):
        if ramanujan_z(BinomialSpec(b, b)) != half:
            bad.append(("diag", b, b))
        if ramanujan_z(BinomialSpec(b, 2 * b)) != half:
            bad.append(("double", b, 2 * b))
        prev = None
        for n in range(b + 1, 321):
            z = ramanujan_z(BinomialSpec(b, n))
            if n > 2 * b and not (third < z < half):
                bad.append(("low-range", b, n))
            if b < n < 2 * b and not (half < z < two_thirds):
                bad.append(("high-range", b, n))
            if n >= 2 * b:
                if prev is not None and not z < prev:
                    bad.append(("monotone", b, n))
                prev = z
    report(2, "z range/monotonicity suite", not bad, f"{len(bad)} failures")


def test_criterion_03_symmetry():
    """z(b,n) + z(n-b,n) = 1 exactly for all 1 <= b < n <= 300."""
    bad = sum(not ok for n in range(2, 301) for ok in z_symmetry_row(n))
    report(3, "z symmetry identity", bad == 0, f"{bad} failures")


def test_criterion_04_printed_brackets():
    """The printed big-integer tail brackets at n = 16..19, bit-exact after
    scaling by n^n."""
    rep = suite_report()
    printed_brackets_suite(rep)
    report(4, "printed tail brackets", not rep.violations)


def test_criterion_05_kernel_identity_suite():
    """Integral identities for n <= 60; closed-form derivative == oracle for
    all valid orders at n <= 30; Taylor sandwich on the 5-point grid for all
    5 <= b <= n/2, n <= 200.

    Expected to FAIL: the sandwich's lower bound is genuinely violated for
    b = 5, n >= 56 (non-monotone fourth derivative on the cell); all other
    parts pass."""
    rep = suite_report()
    claim1_suite(rep, 60)
    claim2_suite(rep, 30)
    claim3_suite(rep, range(10, 201))
    part = {"claim1": "identities", "claim2": "derivative", "claim3": "sandwich"}
    parts = sorted({part[v.claim_id] for v in rep.violations})
    sandwich_bs = sorted({v.b for v in rep.violations if v.claim_id == "claim3"})
    report(5, "kernel identity suite", not rep.violations,
           f"{len(rep.violations)} failures in parts {parts or 'none'}; "
           f"sandwich b values {sandwich_bs}")


def test_criterion_06_factorial_moment_identity():
    """Truncated factorial-moment identity exact for 1 <= s <= b <= 200;
    falling-factorial alternating sums vanish for s < k <= 30."""
    rep = suite_report()
    lemma1_suite(rep, 200, 30)
    report(6, "factorial-moment identities", not rep.violations,
           f"{len(rep.violations)} failures")


def test_criterion_07_poisson_enclosures():
    """For b = 1..300 with escalation capped at 200 digits: y in (1/3, 1/2)
    strictly decreasing, alpha in [2/21, 8/45] strictly decreasing, beta in
    (-1/3, -1 + 4/sqrt(21(368-135e))], zero inconclusive results."""
    rep = suite_report()
    poisson_suite(rep, 300, PrecisionPolicy(digits=50, max_escalations=2),  # 50 -> 100 -> 200
                  bound_digits=60)
    report(7, "poisson enclosure suite", not rep.violations,
           f"{len(rep.violations)} failures")


def test_criterion_08_expansion_residual():
    """b^1.5 |z - (1/3 + 4/135b + b/3n)| <= K at n = 10 b^2 for
    b in {30, 60, 120}; K pinned at 1.2x the calibrated maximum 0.0007997
    (observed at b = 30)."""
    K = mpmath.mpf("0.00096")
    policy = PrecisionPolicy(digits=60, max_escalations=3)
    worst = mpmath.mpf(0)
    for b in (30, 60, 120):
        r = claim5_residual(b, 10 * b * b, policy)
        worst = max(worst, abs(r) * mpmath.mpf(b) ** mpmath.mpf("1.5"))
    report(8, "expansion residual bound", worst <= K, f"max scaled residual {mpmath.nstr(worst, 6)}")


@pytest.mark.slow
def test_criterion_09_threshold_scaling():
    """Property substitute for the asymptotic flip location: b* within 30% of
    sqrt(77n/360) at n in {1e4, 4e4, 25e4} and ratios moving toward 1.

    Expected to FAIL: the true flip scales like sqrt(4n/45), so the ratio
    tends to sqrt(32/77) ~ 0.645."""
    policy = PrecisionPolicy(digits=60, max_escalations=3)
    ratios = []
    for n in (10**4, 4 * 10**4, 25 * 10**4):
        rep = theorem2_threshold(n, policy)
        ratios.append(rep.ratio_low)
    within = all(abs(r - 1) <= 0.3 for r in ratios)
    toward_1 = all(
        abs(ratios[i + 1] - 1) <= abs(ratios[i] - 1) for i in range(len(ratios) - 1)
    )
    detail = "ratios " + ", ".join(f"{r:.4f}" for r in ratios)
    report(9, "threshold scaling property", within and toward_1, detail)


@pytest.mark.slow
def test_criterion_10_inequality_certificates():
    """Appendix-style certificates at their full stated ranges.

    Expected to FAIL: the medium-band sufficient inequality is violated at
    exactly (6,19), (7,22), (8,25); every other certificate verifies."""
    small = check_small_b(6, 39, 157, 10**4)
    medium = check_medium(6, 19, 10**4)
    roots = check_root_bounds(10**4)
    above = check_above_half(5, 10**3)
    exp = check_exp_bounds(2000)
    statuses = {
        "small": small.status,
        "medium": medium.status,
        "roots": roots.status,
        "above-half": above.status,
        "exp-bounds": exp.status,
    }
    ok = all(s == VERIFIED for s in statuses.values())
    medium_pts = sorted((w.b, w.n) for w in medium.witnesses)
    report(10, "inequality certificates", ok,
           f"statuses {statuses}; medium witnesses {medium_pts}")


@pytest.mark.slow
def test_criterion_11_small_deviations():
    """Shifted-tail floor exact to n = 200; grid scan at n <= 20, step 1/20,
    zero violations with equality exactly on the alpha = 0, (n+1)/beta integer
    family; two-point sum tails match brute-force enumeration for n <= 20."""
    bad = []
    if verify_samuels(200):
        bad.append("floor-violations")
    step = Rat(1, 20)
    for n in range(2, 21):
        res = conjecture_scan(n, step)
        if res.violations:
            bad.append(("violations", n))
        expected = set()
        beta = 1 + step
        while beta <= n + 2:
            if (Rat(n + 1) / beta).denominator == 1:
                expected.add((Rat(0), beta))
            beta += step
        got = {(a, be) for (a, be, _b) in res.equality_witnesses}
        if got != expected:
            bad.append(("witnesses", n))
    # brute force: aggregate the 2^n outcomes by their count of beta-draws
    for n in (7, 13, 20):
        for alpha, beta in [(Rat(0), Rat(3, 2)), (Rat(1, 4), Rat(2)),
                            (Rat(1, 2), Rat(21, 10)), (Rat(9, 10), Rat(4))]:
            dist = TwoPointDist(alpha, beta)
            _, p = two_point_tail(dist, n)
            pb = dist.p_beta
            brute = Rat(0)
            for k in range(n + 1):
                if k * beta + (n - k) * alpha < n + 1:
                    brute += math.comb(n, k) * pb**k * (1 - pb) ** (n - k)
            if p != brute:
                bad.append(("brute-force", n, str(alpha), str(beta)))
    report(11, "small-deviation reductions", not bad, f"{len(bad)} failures")
