"""Acceptance suite: eleven criteria, one pass/fail line each.

Each criterion is implemented exactly as stated, at its stated range and
tolerance.  Three criteria encode claims that are known not to hold as stated
and are expected to fail honestly:

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
)
from binram.exactcore import BinomialSpec, p_diff_signs, ramanujan_z, tail_numerator
from binram.highprec import claim5_residual, theorem2_threshold
from binram.kernel import (
    DeltaCell,
    derivative_closed_form_polynomial,
    derivative_oracle,
    eval_g,
    taylor_sandwich,
    verify_claim1,
)
from binram.poisson import (
    alpha_beta,
    beta_meets_upper_bound,
    beta_upper_bound,
    factorial_moment_identity,
    falling_factorial_sum,
    y_poisson,
)
from binram.precision import PrecisionPolicy
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


def test_criterion_01_tail_difference_boundary():
    """sign(p_{b+1} - p_b) = +1 iff n >= 3b+2, -1 iff n <= 3b+1, exactly,
    for all 1 <= b < n <= 300."""
    bad = []
    for n in range(2, 301):
        for b, got in enumerate(p_diff_signs(n), start=1):
            want = 1 if n >= 3 * b + 2 else -1
            if got != want:
                bad.append((b, n))
    report(1, "tail-difference boundary", not bad, f"{len(bad)} mismatches")


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
    bad = 0
    for n in range(2, 301):
        zs = {b: ramanujan_z(BinomialSpec(b, n)) for b in range(1, n)}
        for b in range(1, n):
            if zs[b] + zs[n - b] != 1:
                bad += 1
    report(3, "z symmetry identity", bad == 0, f"{bad} failures")


def test_criterion_04_printed_brackets():
    """The printed big-integer tail brackets at n = 16..19, bit-exact after
    scaling by n^n."""
    ok = True
    chains = {
        17: (3387 * 10**17, 3389 * 10**17),
        18: (1619 * 10**19, 1622 * 10**19),
        19: (8176 * 10**20, 8199 * 10**20),
    }
    for n, (lo, hi) in chains.items():
        t5 = tail_numerator(BinomialSpec(5, n))
        t6 = tail_numerator(BinomialSpec(6, n))
        ok = ok and (t5 < lo < hi < t6)
    t5 = tail_numerator(BinomialSpec(5, 16))
    t6 = tail_numerator(BinomialSpec(6, 16))
    ok = ok and (t5 > 7505 * 10**15 > 7503 * 10**15 > t6)
    report(4, "printed tail brackets", ok)


def test_criterion_05_kernel_identity_suite():
    """Integral identities for n <= 60; closed-form derivative == oracle for
    all valid orders at n <= 30; Taylor sandwich on the 5-point grid for all
    5 <= b <= n/2, n <= 200.

    Expected to FAIL: the sandwich's lower bound is genuinely violated for
    b = 5, n >= 56 (non-monotone fourth derivative on the cell); all other
    parts pass."""
    bad = []
    for n in range(2, 61):
        for b in range(1, n):
            if not verify_claim1(BinomialSpec(b, n)):
                bad.append(("identities", b, n))
    for n in range(2, 31):
        for b in range(1, n):
            spec = BinomialSpec(b, n)
            for order in range(1, min(b - 1, n - b) + 1):
                closed = derivative_closed_form_polynomial(spec, order)
                oracle = derivative_oracle(spec, order)
                if closed.coeffs != oracle.coeffs or closed.scale != oracle.scale:
                    bad.append(("derivative", b, n, order))
    for n in range(10, 201):
        for b in range(5, n // 2 + 1):
            spec = BinomialSpec(b, n)
            sw = taylor_sandwich(spec)
            for z in DeltaCell.of(spec).grid(5):
                g = eval_g(spec, z)
                if not (sw.lower(z) <= g <= sw.upper(z)):
                    bad.append(("sandwich", b, n))
    parts = sorted({item[0] for item in bad})
    sandwich_bs = sorted({item[1] for item in bad if item[0] == "sandwich"})
    report(5, "kernel identity suite", not bad,
           f"{len(bad)} failures in parts {parts or 'none'}; sandwich b values {sandwich_bs}")


def test_criterion_06_factorial_moment_identity():
    """Truncated factorial-moment identity exact for 1 <= s <= b <= 200;
    falling-factorial alternating sums vanish for s < k <= 30."""
    bad = []
    for b in range(1, 201):
        for s in range(1, b + 1):
            if not factorial_moment_identity(b, s):
                bad.append((s, b))
    for k in range(1, 31):
        for s in range(0, k):
            if falling_factorial_sum(k, s) != 0:
                bad.append(("ffs", s, k))
    report(6, "factorial-moment identities", not bad, f"{len(bad)} failures")


def test_criterion_07_poisson_enclosures():
    """For b = 1..300 with escalation capped at 200 digits: y in (1/3, 1/2)
    strictly decreasing, alpha in [2/21, 8/45] strictly decreasing, beta in
    (-1/3, -1 + 4/sqrt(21(368-135e))], zero inconclusive results."""
    policy = PrecisionPolicy(digits=50, max_escalations=2)  # 50 -> 100 -> 200
    ub = beta_upper_bound(60)
    bad = []
    prev_y = prev_a = None
    for b in range(1, 301):
        y = y_poisson(b, policy)
        alpha, beta = alpha_beta(b, policy)
        if not (Rat(1, 3) < y.lo and y.hi < Rat(1, 2)):
            bad.append(("y-range", b))
        if prev_y is not None and not y.hi < prev_y.lo:
            bad.append(("y-monotone", b))
        if not (Rat(2, 21) <= alpha.lo and alpha.hi <= Rat(8, 45)):
            bad.append(("alpha-range", b))
        if prev_a is not None and not alpha.hi < prev_a.lo:
            bad.append(("alpha-monotone", b))
        if not beta.lo > Rat(-1, 3):
            bad.append(("beta-low", b))
        if not beta_meets_upper_bound(b, beta, ub):
            bad.append(("beta-high", b))
        prev_y, prev_a = y, alpha
    report(7, "poisson enclosure suite", not bad, f"{len(bad)} failures")


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
