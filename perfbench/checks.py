"""Output checks for the benchmark's operations.

Every check recomputes what it compares against apart from the program: exact
integers and ``fractions.Fraction`` with ``math.comb``, or ``mpmath`` at twice
the working digits, or it tests a property the method must have.  None of
them imports ``binram``.  A check raises ``CheckError`` on the first mismatch;
``rng`` picks the sampled points.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from fractions import Fraction

import mpmath


class CheckError(Exception):
    """An operation's output disagrees with the independent computation."""


def expect(cond, message):
    if not cond:
        raise CheckError(message)


# -- independent exact arithmetic ---------------------------------------------


def tail_num(b, n, k=None, scale=None):
    """sum_{i<b} C(n, i) k**i (scale-k)**(n-i): P(Bin(n, k/scale) < b) * scale**n.

    With the defaults k = b and scale = n it is P(X < b) * n**n, X ~ Bin(n, b/n).
    """
    k = b if k is None else k
    scale = n if scale is None else scale
    return sum(math.comb(n, i) * k**i * (scale - k) ** (n - i) for i in range(b))


def z_exact(b, n):
    """z(b, n) = (1/2 - P(X < b)) / P(X = b) as a Fraction."""
    pmf = math.comb(n, b) * b**b * (n - b) ** (n - b)
    return Fraction(n**n - 2 * tail_num(b, n), 2 * pmf)


def sign(x):
    return (x > 0) - (x < 0)


def kernel_cell_integral(b, n):
    """Integral of (1-z)**(b-1) z**(n-b) over [1-(b+1)/n, 1-b/n], by the Beta
    identity  int_0^u z**(a-1) (1-z)**(c-1) dz = B(a, c) P(Bin(a+c-1, u) >= a)."""
    a = n - b + 1
    beta = Fraction(math.factorial(b - 1) * math.factorial(n - b), math.factorial(n))

    def upper_tail(k):  # P(Bin(n, k/n) >= a) * n**n
        return sum(math.comb(n, j) * k**j * (n - k) ** (n - j) for j in range(a, n + 1))

    return beta * Fraction(upper_tail(n - b) - upper_tail(n - b - 1), n**n)


def z_diff_bound(b, n):
    """The paper's all-rational lower bound for z(b+1, n) - z(b, n)."""
    x = Fraction(b + 1, n)
    m = n - b - 1
    factor = (1 - Fraction(1, 6 * (b + 1)) - Fraction(1, 18 * (b + 1) ** 2)
              + Fraction(1, 6 * m) + Fraction(1, 6 * m**2))
    bracket = b * kernel_cell_integral(b, n) - x**b * Fraction(m, n) ** (n - b) * factor
    return Fraction(n**n, (n - b) * (b + 1) ** b * m**m) * bracket


# -- report parsing ----------------------------------------------------------------


def parse_csv(text):
    """(header, rows, violations) of a CSV report."""
    lines = list(csv.reader(io.StringIO(text)))
    expect(lines, "empty CSV report")
    header, rows, violations = lines[0], [], []
    for line in lines[1:]:
        if line and line[0] == "violation":
            if line[1] != "claim_id":  # the section's own header row
                violations.append(line)
        elif line:
            rows.append(line)
    return header, rows, violations


def _status_rows(text, code, want_code, claims):
    expect(code == want_code, f"exit code {code}, expected {want_code}")
    _, rows, violations = parse_csv(text)
    got = {row[0]: row[3] for row in rows}
    expect(got == claims, f"statuses {got}, expected {claims}")
    return rows, violations


# -- grid ----------------------------------------------------------------------------


def check_scan_p(text, code, n_max, rng):
    expect(code == 0, f"exit code {code}")
    header, rows, violations = parse_csv(text)
    expect(header == ["claim_id", "b", "n", "sign", "boundary_ok"], f"header {header}")
    expect(not violations, "violations reported")
    expect(len(rows) == n_max * (n_max - 1) // 2, f"{len(rows)} rows for n_max={n_max}")
    want_order = [(b, n) for n in range(2, n_max + 1) for b in range(1, n)]
    got_order = [(int(r[1]), int(r[2])) for r in rows]
    expect(got_order == want_order, "rows not in (n, b) order over the full grid")
    for row in rows:
        b, n, s = int(row[1]), int(row[2]), int(row[3])
        expect(s == (1 if n >= 3 * b + 2 else -1), f"sign {s} at (b={b}, n={n})")
        expect(row[4] == "True", f"boundary_ok {row[4]} at (b={b}, n={n})")
    for row in rng.sample(rows, 12):
        b, n, s = int(row[1]), int(row[2]), int(row[3])
        # both tails share the denominator n**n
        want = sign(tail_num(b + 1, n) - tail_num(b, n))
        expect(s == want, f"recomputed sign {want} != {s} at (b={b}, n={n})")


def check_same_bytes(text, reference, what):
    expect(text == reference, f"output differs from {what}")


def check_scan_z(text, code, n_max, rng):
    expect(code == 0, f"exit code {code}")
    doc = json.loads(text)
    expect(doc["inconclusive"] == 0 and not doc["violations"], "inconclusive or violations")
    signs = {(r["b"], r["n"]): r["sign"] for r in doc["results"]}
    expect(len(signs) == len(doc["results"]) == n_max * (n_max - 1) // 2,
           f"{len(doc['results'])} rows for n_max={n_max}")
    for (b, n), s in signs.items():
        expect(s in (-1, 0, 1), f"sign {s!r} at (b={b}, n={n})")
        # z(b) + z(n-b) = 1 gives z(n-b) - z(n-1-b) = z(b+1) - z(b): the map is
        # symmetric under b -> n-1-b (not antisymmetric; b = (n-1)/2 is its own image)
        if b <= n - 2:
            expect(signs[(n - 1 - b, n)] == s, f"symmetry fails at (b={b}, n={n})")
    for (b, n) in rng.sample(sorted(signs), 12):
        want = sign(z_exact(b + 1, n) - z_exact(b, n))
        expect(signs[(b, n)] == want, f"recomputed sign {want} at (b={b}, n={n})")


def check_z_lowerbound(text, code, n_max, rng):
    rows, _ = _status_rows(text, code, 0, {"eq-diff_z_bn_lowerbound": "verified"})
    b_hi = min(40, (n_max - 2) // 2)
    want = f"z-lowerbound: b in [6, {b_hi}], n in [14, {n_max}]"
    expect(rows[0][4] == want, f"range {rows[0][4]!r}")
    # 'verified' means every b has a threshold holding up to n_max, so the
    # bound must lie below the exact difference at n = n_max itself
    for b in rng.sample(range(6, b_hi + 1), 3):
        diff = z_exact(b + 1, n_max) - z_exact(b, n_max)
        expect(z_diff_bound(b, n_max) <= diff, f"bound above difference at b={b}")


# -- certify ------------------------------------------------------------------------


def check_exp_bounds(text, code, n_max):
    rows, _ = _status_rows(text, code, 0, {"eq-negative_appendix": "verified"})
    expect(rows[0][4] == f"exp-bounds: b in [1, {n_max - 2}], n in [4, {n_max}]",
           f"range {rows[0][4]!r}")
    # With f(k) = (1+1/k)**k and m = n-b, the low side is f(b) < f(m-1) for
    # b < m-1 and the high side f(m-1) < f(b) for m-1 < b, so strict growth
    # of f on 1..n_max-2 implies the whole scan.  f(k) < f(k+1) is
    # (k+1)**(2k+1) < k**k (k+2)**(k+1) in integers.
    for k in range(1, n_max - 2):
        expect((k + 1) ** (2 * k + 1) < k**k * (k + 2) ** (k + 1), f"chain breaks at k={k}")


def check_appendix_b(text, code, rng):
    _status_rows(text, code, 0, {"appB-boundary": "verified"})
    # part (i): the tail-difference sign matches the 3b+2 boundary for b <= 5
    for _ in range(8):
        b = rng.randint(1, 5)
        n = rng.randint(b + 1, 160)
        got = sign(tail_num(b + 1, n) - tail_num(b, n))
        expect(got == (1 if n >= 3 * b + 2 else -1), f"boundary sign at (b={b}, n={n})")


def check_appendix_c(text, code):
    _, violations = _status_rows(text, code, 1, {
        "eq-small_b_ineq": "verified", "eq-medium_b_ineq": "violated",
        "eq-above_n_over_2_b_ineq": "verified", "appC-R-positivity": "verified"})
    got = {(v[1], int(v[2]), int(v[3])) for v in violations}
    want = {("eq-medium_b_ineq", 6, 19), ("eq-medium_b_ineq", 7, 22), ("eq-medium_b_ineq", 8, 25)}
    expect(got == want and len(violations) == 3, f"appendix-c witnesses {sorted(got)}")


# Appendix C's root-location products: from b_lo on, the product of these
# polynomials in b (coefficients lowest first) is positive
ROOT_PRODUCTS = {
    39: [(-39, 77, 20), (-156, -1280, -1047, 28)],
    19: [(129, 77, 20), (-129, -1075, -160, 12)],
}


def check_root_bounds(text, code, rng):
    rows, violations = _status_rows(text, code, 0, {"appC-root-bounds": "verified"})
    expect(not violations and rows[0][4] == "root-bounds: b in [19, 10000], n in [0, 0]",
           f"root-bounds range {rows[0][4]!r}")
    for b_lo, factors in ROOT_PRODUCTS.items():
        # a factor with a positive leading coefficient is positive beyond its
        # largest real root, so every real root below b_lo proves the claim
        # for all b >= b_lo, the scanned range and the tail beyond it alike
        for coeffs in factors:
            with mpmath.workdps(30):
                roots = mpmath.polyroots(list(reversed(coeffs)), extraprec=60)
            real = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < 1e-20]
            expect(coeffs[-1] > 0 and all(r < b_lo for r in real),
                   f"root of {coeffs} at or above b = {b_lo}")
        b = rng.randint(b_lo, 10_000)
        expect(math.prod(sum(c * b**k for k, c in enumerate(f)) for f in factors) > 0,
               f"root-bound product not positive at b = {b}")


def check_verify_shard(text, code, claim):
    expect(code == (1 if claim == "3" else 0), f"verify shard {claim}: exit code {code}")
    doc = json.loads(text)
    if claim in ("1", "2", "lemma1"):
        bad = [r for r in doc["results"] if r["status"] != "ok"]
        expect(doc["results"] and not bad, f"claim {claim}: {len(bad)} rows not ok")
    if claim == "1":
        n_max = doc["meta"]["n_max"]
        expect(len(doc["results"]) == n_max * (n_max - 1) // 2, "claim 1 rows")


def _rows_and_violations(doc):
    rows = Counter(json.dumps(r, sort_keys=True) for r in doc["results"])
    violations = {json.dumps(v, sort_keys=True) for v in doc["violations"]}
    return rows, violations


def check_verify_merged(text, code, reference, claim1):
    """The merge of all shards against the unsharded run of claims 2, 3, lemma1
    and moments plus the claim-1 shard (run at its own n_max)."""
    expect(code == 1, f"report-merge exit code {code}, expected 1")
    doc = json.loads(text)
    claim3 = [(v["b"], v["n"]) for v in doc["violations"] if v["claim_id"] == "claim3"]
    expect(claim3 and all(b == 5 and n >= 56 for b, n in claim3),
           f"claim3 violations at {claim3}, expected b = 5 with n >= 56")
    expect({v["claim_id"] for v in doc["violations"]} == {"claim3"},
           "violations outside claim3")
    rows, violations = _rows_and_violations(json.loads(reference))
    rows_1, violations_1 = _rows_and_violations(json.loads(claim1))
    expect(_rows_and_violations(doc) == (rows + rows_1, violations | violations_1),
           "merged shards differ from the unsharded run")


def check_samuels(text, code, n_max, rng):
    rows, violations = _status_rows(text, code, 0, {"samuels": "scanned"})
    expect(not violations and rows[0][2] == str(n_max), "samuels scan incomplete")
    # tp(1, b, n) = P(Bin(n, b/(n+1)) < b); the scaled tails share (n+1)**n
    for _ in range(10):
        n = rng.randint(4, n_max)
        b = rng.randint(2, n // 2)
        expect(tail_num(1, n, 1, n + 1) <= tail_num(b, n, b, n + 1),
               f"Samuels fails at (b={b}, n={n})")


def check_conjecture(text, code, n_max, step):
    _, rows, violations = parse_csv(text)
    expect(code == 0 and not violations, f"exit code {code}, {len(violations)} violations")
    expect([int(r[2]) for r in rows] == list(range(2, n_max + 1)), "conjecture rows")
    for row in rows:
        n = int(row[2])
        # equality holds exactly on alpha = 0 with (n+1)/beta = k an integer;
        # beta = (n+1)/k lies on the grid when beta - 1 is a multiple of step
        family = sum(1 for k in range(1, n + 1)
                     if (Fraction(n + 1 - k, k) / step).denominator == 1)
        expect(row[3] == f"witnesses={family}", f"n={n}: {row[3]}, expected {family}")
        degenerate = 0
        alpha = Fraction(0)
        while alpha < 1:
            beta = 1 + step
            while beta <= n + 2:
                x = (n + 1 - n * alpha) / (beta - alpha)
                degenerate += -(-x.numerator // x.denominator) > n
                beta += step
            alpha += step
        expect(row[4] == f"degenerate={degenerate}", f"n={n}: {row[4]}, expected {degenerate}")


def check_monotonicity(text, code, n_max):
    _, rows, _ = parse_csv(text)
    expect(code == 0 and len(rows) == 1, f"exit code {code}")
    increases = decreases = 0
    for n in range(2, n_max + 1):
        combs = [math.comb(n, i) for i in range(n)]
        prev = None
        for b in range(1, n + 1):
            # tp(1, b, n) * (n+1)**n
            cur = sum(combs[i] * b**i * (n + 1 - b) ** (n - i) for i in range(b))
            if prev is not None:
                increases += cur > prev
                decreases += cur < prev
            prev = cur
    points = n_max * (n_max - 1) // 2
    want = ["tilde-p-monotone", "1", str(n_max), f"increases={increases}",
            f"decreases={decreases}", f"points={points}"]
    expect(rows[0][:6] == want, f"monotonicity row {rows[0][:6]}, expected {want}")


# -- enclosure ---------------------------------------------------------------------


DISPLAY_ULP = Fraction(1, 10**24)  # reports round decimals toward zero at 24 digits


def y_poisson_mp(b, dps):
    """y(b) = (e**b/2 - sum_{i<b} b**i/i!) * b!/b**b in mpmath at dps digits."""
    with mpmath.workdps(dps):
        s = mpmath.fsum(mpmath.mpf(b) ** i / mpmath.factorial(i) for i in range(b))
        return (mpmath.exp(b) / 2 - s) * mpmath.factorial(b) / mpmath.mpf(b) ** b


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def check_poisson(text, code, b_max, digits, rng):
    expect(code == 0, f"exit code {code}")
    _, rows, violations = parse_csv(text)
    expect(not violations and [int(r[1]) for r in rows] == list(range(1, b_max + 1)),
           "poisson rows")
    ys = [(Fraction(r[2]), Fraction(r[3])) for r in rows]
    for b, (lo, hi) in enumerate(ys, start=1):
        expect(Fraction(1, 3) < lo <= hi < Fraction(1, 2), f"y({b}) outside (1/3, 1/2)")
        if b > 1:
            expect(hi < ys[b - 2][0], f"y not strictly decreasing at b={b}")
    for b in rng.sample(range(1, b_max + 1), 6):
        lo, hi = ys[b - 1]
        y = y_poisson_mp(b, 2 * digits)
        with mpmath.workdps(2 * digits):
            inside = _mp(lo) <= y <= _mp(hi + DISPLAY_ULP)
        expect(inside, f"mpmath y({b}) = {y} outside the enclosure")


def z_mp(b, n):
    p = mpmath.mpf(b) / n
    tail = mpmath.fsum(mpmath.binomial(n, i) * p**i * (1 - p) ** (n - i) for i in range(b))
    return (mpmath.mpf(1) / 2 - tail) / (mpmath.binomial(n, b) * p**b * (1 - p) ** (n - b))


def z_mp_upper(b, n):
    """z(b, n) for b near n, summing the short upper tail: P(X < b) = 1 - P(X >= b)."""
    p = mpmath.mpf(b) / n
    upper = mpmath.fsum(mpmath.binomial(n, i) * p**i * (1 - p) ** (n - i)
                        for i in range(b, n + 1))
    return (upper - mpmath.mpf(1) / 2) / (mpmath.binomial(n, b) * p**b * (1 - p) ** (n - b))


def check_threshold(text, code, n, digits):
    expect(code == 0, f"exit code {code}")
    doc = json.loads(text)
    expect(doc["inconclusive"] == 0, "inconclusive points")
    row = doc["results"][0]
    b_star, b_high = row["b_star_low"], row["b_star_high"]
    expect(row["n"] == n and 1 < b_star < b_high < n - 2, f"threshold row {row}")
    with mpmath.workdps(2 * digits):
        # the lower flip: z(b+1) - z(b) turns from negative to positive at b*
        before = z_mp(b_star, n) - z_mp(b_star - 1, n)
        after = z_mp(b_star + 1, n) - z_mp(b_star, n)
        # the upper flip, evaluated on its own from the upper tail: the
        # difference is positive at b*_high and negative one step later
        high = z_mp_upper(b_high + 1, n) - z_mp_upper(b_high, n)
        beyond = z_mp_upper(b_high + 2, n) - z_mp_upper(b_high + 1, n)
    expect(before < 0 < after, f"mpmath signs {before}, {after} around b*={b_star}")
    expect(beyond < 0 < high, f"mpmath signs {high}, {beyond} around b*_high={b_high}")
