"""Finite-range checks: claim suites and inequality certificates.

A claim suite checks one claim over the range its caller passes, appending
result rows and :class:`ViolationReport` witnesses to a :class:`Report`; the
CLI and the acceptance criteria call the same suites at their own ranges.

Each certificate checker verifies one labeled inequality family over an
explicit range in exact integer/rational arithmetic and returns an
:class:`InequalityCertificate`: verified (no witnesses) or violated
(witnesses listed with both sides exact).  Their only non-rational
ingredient is the certified bracket around e, which enters three
boundary-case bounds (_ineq1, _ineq2 and _top_boundary_coeffs), each
evaluated at the two ends of the bracket.

The Appendix C polynomial families are proved positive from their first
few points by :func:`_positive_from` (Newton's forward-difference formula);
each check keeps its point-by-point scan, with the same witnesses, as the
fallback for a proof that fails.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernel, poisson
from .backend import Rat, decimal_str
from .exactcore import (EXACT_CUTOFF, BinomialSpec, DomainError, p_diff_sign, ramanujan_z,
                        tail_numerator, tail_row)
from .intervals import e_enclosure, terms_for_digits
from .report import Report, ViolationReport

VERIFIED = "verified"
VIOLATED = "violated"


class RangeSpec(NamedTuple):
    """A scanned (b, n) range; `kind` names the band constraint used."""

    kind: str
    b_lo: int
    b_hi: int
    n_lo: int
    n_hi: int

    def describe(self) -> str:
        return f"{self.kind}: b in [{self.b_lo}, {self.b_hi}], n in [{self.n_lo}, {self.n_hi}]"


class InequalityCertificate:
    """One claim over one range: violated while it holds a witness, else
    verified; ``extra`` holds a check's side results, such as per-b thresholds."""

    __slots__ = ("claim_id", "range", "witnesses", "extra")

    def __init__(self, claim_id: str, range: RangeSpec):
        self.claim_id = claim_id
        self.range = range
        self.witnesses = []
        self.extra = {}

    @property
    def status(self) -> str:
        return VIOLATED if self.witnesses else VERIFIED

    def record_violation(self, b: int, n: int, lhs, rhs, note: str = "") -> None:
        self.witnesses.append(
            ViolationReport.from_rationals(self.claim_id, b, n, lhs, rhs, note=note)
        )


def _tail_positive(coeffs: list, at: int) -> bool:
    """True if the integer polynomial (lowest degree first) is provably
    positive for every integer argument >= `at`: its value and all derivative
    values at `at` are positive and the leading coefficient is positive."""
    if coeffs[-1] <= 0:
        return False
    poly = list(coeffs)
    while poly:
        value = sum(c * at**k for k, c in enumerate(poly))
        if value <= 0:
            return False
        poly = [k * c for k, c in enumerate(poly)][1:]
    return True


def _positive_from(f, degree: int, lo: int) -> bool:
    """True only if the integer polynomial f, of degree <= `degree`, is
    positive at every integer >= lo; from f(lo), ..., f(lo + degree).

    Proof.  Let D^k f(lo) be the forward differences at lo (D f(x) =
    f(x+1) - f(x)), read off the table of those degree+1 values.  Each D
    lowers the degree by one, so D^(degree+1) f = 0, and Newton's forward
    formula is exact for every integer t >= 0:

        f(lo + t) = sum_{k=0..degree} C(t, k) D^k f(lo).

    (Induction on t: C(t+1, k) = C(t, k) + C(t, k-1) turns the sum at t+1
    into the sum at t plus the same sum for D f, which is D f(lo + t).)
    Every C(t, k) >= 0 and C(t, 0) = 1, so f(lo) > 0 and D^k f(lo) >= 0 for
    k >= 1 give f(lo + t) >= f(lo) > 0.  False means only that this proof
    does not apply; the caller's direct scan then decides.
    """
    row = [f(lo + t) for t in range(degree + 1)]
    heads = []
    while row:
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return heads[0] > 0 and all(d >= 0 for d in heads[1:])


# -- fourth-derivative certificate for small b --------------------------------


def _small_b_forms(b: int) -> tuple:
    """(c2, value, slope, h2, hv, hs) at b, all at n = 3b+2: the sufficient
    quadratic f(n) = c2 n^2 + c1 n + c0 = 5b (inner) - 3 n^2 (b+13), inner
    the reduced quintic part, with its value and slope; and the side
    condition (b+1)^2 (n-b-1)^2 - (b^2+8)(n-b)^2 = h2 n^2 + h1 n + h0 used by
    the reduction, with its value and slope."""
    c2 = 20 * b**2 + 77 * b - 39
    c1 = -80 * b**3 - 355 * b**2 - 560 * b
    c0 = 60 * b**4 + 320 * b**3 + 690 * b**2
    h2 = (b + 1) ** 2 - (b**2 + 8)
    h1 = -2 * (b + 1) ** 3 + 2 * b * (b**2 + 8)
    h0 = (b + 1) ** 4 - b**2 * (b**2 + 8)
    at = 3 * b + 2
    return (c2, c2 * at**2 + c1 * at + c0, 2 * c2 * at + c1,
            h2, h2 * at**2 + h1 * at + h0, 2 * h2 * at + h1)


# (family, degree in b, f(b)) of every family a check proves by _positive_from;
# the b^4 terms of value and h0 cancel, so each degree is exact
SMALL_B_FAMILIES = tuple(
    (name, degree, lambda b, k=k: _small_b_forms(b)[k])
    for k, (name, degree) in enumerate((("c2", 2), ("value", 3), ("slope", 3),
                                        ("h2", 1), ("hv", 3), ("hs", 2))))


def check_small_b(
    b_lo: int = 6,
    b_hi: int = 39,
    n_cap: int = 157,
    tail_b_hi: int = 10**4,
) -> InequalityCertificate:
    """The small-b inequality: direct exact check on the finite range
    (b <= b_hi, 3b+2 <= n <= n_cap), then its sufficient polynomial form for
    every b from b_hi up to tail_b_hi.

    The sufficient form holds at b when f(n) is convex with positive value
    and slope at n = 3b+2, and so is positive for every n >= 3b+2; likewise
    the side condition.  The six b-families of SMALL_B_FAMILIES (c2, value,
    slope, h2, hv, hs, of degree 2, 3, 3, 1, 3, 2) are proved positive for
    every b >= b_hi by _positive_from; if any proof fails, the per-b scan up
    to tail_b_hi decides.  Each direct point compares P * den > b d4 in
    integers and builds the rational right-hand side only for a witness.
    """
    rng = RangeSpec("small-b-band", b_lo, tail_b_hi, 3 * b_lo + 2, n_cap)
    cert = InequalityCertificate("eq-small_b_ineq", rng)

    for b in range(b_lo, b_hi + 1):
        for n in range(3 * b + 2, n_cap + 1):
            # the rhs b n d4 / (5 x**(b-4) (1-x)**(n-b-2)) at x = (b+1)/n, d4 the
            # fourth derivative at 1 - b/n, is b d4' / den with d4' = n**(n-5) d4
            # from the integer closed form and den > 0
            d4 = kernel.derivative_closed_form(BinomialSpec(b, n), 4, n - b, n)
            den = 5 * (b + 1) ** (b - 4) * (n - b - 1) ** (n - b - 2)
            lhs = kernel.eval_P(b, n)
            if not lhs * den > b * d4:
                cert.record_violation(b, n, lhs, Rat(b * d4, den), note="direct")

    poly_fail = []
    if not all(_positive_from(f, degree, b_hi) for _, degree, f in SMALL_B_FAMILIES):
        for b in range(b_hi, tail_b_hi + 1):
            c2, value, slope, h2, hv, hs = _small_b_forms(b)
            if not (c2 > 0 and value > 0 and slope > 0):
                poly_fail.append(b)
                cert.record_violation(b, 3 * b + 2, value, 0, note="sufficient-form")
            if not (h2 > 0 and hv > 0 and hs > 0):
                cert.record_violation(b, 3 * b + 2, hv, 0, note="side-condition")
    cert.extra["sufficient_form_failures"] = poly_fail
    return cert


R_DEGREE = 2  # kernel.eval_R(b, n) is a quadratic in b at each n


def check_r_positivity(n_max: int = 500) -> InequalityCertificate:
    """Exact positivity of the R-part of P on 6 <= b <= (n-2)/3, 20 <= n <= n_max.

    At each n, R(b, n), a quadratic in b (R_DEGREE), is proved positive for
    every b >= 6 by _positive_from, from b = 6, 7, 8; if the proof fails at
    some n, that n's b are scanned directly.
    """
    rng = RangeSpec("small-b-band", 6, (n_max - 2) // 3, 20, n_max)
    cert = InequalityCertificate("appC-R-positivity", rng)
    for n in range(20, n_max + 1):
        if _positive_from(lambda b: kernel.eval_R(b, n), R_DEGREE, 6):
            continue
        for b in range(6, (n - 2) // 3 + 1):
            r = kernel.eval_R(b, n)
            if not r > 0:
                cert.record_violation(b, n, r, 0)
    return cert


# -- medium b ------------------------------------------------------------------


def _medium_q(b: int, n: int) -> int:
    """5P - bn(3bn + 46b - 57n), negative where the medium-b inequality holds."""
    return 5 * kernel.eval_P(b, n) - b * n * (3 * b * n + 46 * b - 57 * n)


def _medium_lead(b: int) -> int:
    """The n^2 coefficient of _medium_q (P is quadratic in n)."""
    return 20 * b**3 + 77 * b**2 + 117 * b + 120


# the degree-5 terms of q(b, 3b+1) cancel
MEDIUM_FAMILIES = (
    ("lead", 3, _medium_lead),
    ("-q(b, 2b)", 5, lambda b: -_medium_q(b, 2 * b)),
    ("-q(b, 3b+1)", 4, lambda b: -_medium_q(b, 3 * b + 1)),
)


def check_medium(
    b_lo: int = 6, b_hi: int = 19, tail_b_hi: int = 10**4
) -> InequalityCertificate:
    """The medium-b inequality 5P < bn(3bn + 46b - 57n): direct on the finite
    leftover band, then certified over [2b, 3b+1] for all larger b via
    convexity (negative at both endpoints of the band).

    The convexity step needs lead > 0, q(b, 2b) < 0 and q(b, 3b+1) < 0 at b;
    the three b-families of MEDIUM_FAMILIES (lead, -q(b, 2b), -q(b, 3b+1), of
    degree 3, 5, 4) are proved positive for every b >= b_hi by
    _positive_from.  If any proof fails, the per-b scan up to tail_b_hi
    decides.
    """
    rng = RangeSpec("medium-band", b_lo, tail_b_hi, 2 * b_lo, 3 * tail_b_hi + 1)
    cert = InequalityCertificate("eq-medium_b_ineq", rng)

    for b in range(b_lo, b_hi + 1):
        for n in range(2 * b, 3 * b + 1 + 1):
            val = _medium_q(b, n)
            if not val < 0:
                cert.record_violation(b, n, val, 0, note="direct")

    if not all(_positive_from(f, degree, b_hi) for _, degree, f in MEDIUM_FAMILIES):
        for b in range(b_hi, tail_b_hi + 1):
            lo_val, hi_val = _medium_q(b, 2 * b), _medium_q(b, 3 * b + 1)
            if not (_medium_lead(b) > 0 and lo_val < 0 and hi_val < 0):
                cert.record_violation(b, 2 * b, lo_val, 0, note="convexity-endpoints")
    return cert


# -- above n/2 -----------------------------------------------------------------


def _above_half_quadratic(bt: int):
    """A, B, C with the reduction's quadratic A n^2 + B n + C in n."""
    t = bt + 1
    a = -40 * t**3 + 27 * t**2 + 3 * t + 70
    bb = 100 * t**4 - 35 * t**3 - 21 * t**2 - 78 * t - 26
    c = -60 * t**5 + 80 * t**4 + 10 * t**3 + 30 * t**2
    return a, bb, c


def above_half_bracket(bt: int, n: int):
    """The exact bracket whose negativity gives the above-n/2 case: evaluated
    directly from its definition (no reduction), all rational."""
    x = Rat(bt + 1, n)
    u = Rat(n - bt, n - bt - 1)
    correction = u - Rat(bt, bt + 1) ** bt * u ** (n - bt)
    return (
        Rat(kernel.eval_P(bt, n), 24 * n**6)
        - Rat(bt, 120 * n**5) * (3 * bt * n + 46 * bt - 57 * n + 46)
        + correction * x**4 * (1 - x) ** 2
    )


def _above_half_cleared(bt: int, n: int) -> int:
    """above_half_bracket(bt, n) times D = 120 n**6 (bt+1)**bt m**(m+1),
    m = n-bt-1 >= 1: an integer with the bracket's sign, as D > 0.

    With x = (bt+1)/n, u = (m+1)/m and K = (bt+1)**bt m**(m+1), the three
    bracket terms times D are 5 P K, bt n (3 bt n + 46 bt - 57 n + 46) K and
    120 (bt+1)**4 m**2 ((m+1) (bt+1)**bt m**m - bt**bt (m+1)**(m+1)), as
    x**4 (1-x)**2 = (bt+1)**4 m**2 / n**6 and the correction
    u - (bt/(bt+1))**bt u**(m+1) times K is the last factor.
    """
    m = n - bt - 1
    t_pow, m_pow = (bt + 1) ** bt, m**m
    poly = 5 * kernel.eval_P(bt, n) - bt * n * (3 * bt * n + 46 * bt - 57 * n + 46)
    correction = (m + 1) * t_pow * m_pow - bt**bt * (m + 1) ** (m + 1)
    return poly * t_pow * m_pow * m + 120 * (bt + 1) ** 4 * m**2 * correction


def check_above_half(bt_lo: int = 5, bt_hi: int = 10**3, spot_stride: int = 37) -> InequalityCertificate:
    """The above-n/2 reduction: 9 A bt^2 + 3 bt B + C < 0 for every bt in
    range, plus direct negativity of the unreduced bracket at strided spots,
    decided by the sign of the integer _above_half_cleared; a witness carries
    the rational above_half_bracket."""
    rng = RangeSpec("above-half-band", bt_lo, bt_hi, 2 * bt_lo, 3 * bt_hi + 1)
    cert = InequalityCertificate("eq-above_n_over_2_b_ineq", rng)
    for bt in range(bt_lo, bt_hi + 1):
        a, bb, c = _above_half_quadratic(bt)
        val = 9 * a * bt**2 + 3 * bt * bb + c
        if not val < 0:
            cert.record_violation(bt, 3 * bt, val, 0, note="reduced-quadratic")
    spots = 0
    for bt in range(bt_lo, bt_hi + 1, spot_stride):
        for n in (2 * bt + 2, 3 * bt, 3 * bt + 1):
            if n <= bt + 1:
                continue
            spots += 1
            if not _above_half_cleared(bt, n) < 0:
                cert.record_violation(bt, n, above_half_bracket(bt, n), 0, note="direct-spot")
    cert.extra["direct_spots"] = spots
    return cert


# -- rational-power exponential bounds ----------------------------------------


def _chain_links(k_hi: int):
    """Yield (k, lhs, rhs), k = 1..k_hi: lhs < rhs is the link f(k) < f(k+1),
    i.e. (k+1)^(2k+1) < k^k (k+2)^(k+1), times (k+1)(k+2): with s_j = j^j it
    reads (k+2) s_{k+1}^2 < (k+1) s_k s_{k+2}, and each s_j is computed once."""
    s_k, s_k1 = 1, 4
    for k in range(1, k_hi + 1):
        s_k2 = (k + 2) ** (k + 2)
        yield k, (k + 2) * s_k1 * s_k1, (k + 1) * s_k * s_k2
        s_k, s_k1 = s_k1, s_k2


def _low_side(b: int, n: int, down_pow: list) -> tuple:
    """Sides of the low-side comparison (b+1)^b (m-1)^(m-1) < b^b m^(m-1), m = n-b,
    from down_pow[k] = k^(k-1); the high-side comparison is the pair reversed."""
    return down_pow[b + 1] * down_pow[n - b - 1] * (n - b - 1), down_pow[b] * b * down_pow[n - b]


def _exp_bounds_sides(n_max: int):
    """Yield (b, n, lhs, rhs, note) for every comparison lhs < rhs of the
    direct O(n_max^2) scan, with k^(k-1) tabled once."""
    down_pow = [1] + [k ** (k - 1) for k in range(1, n_max + 1)]
    for n in range(4, n_max + 1):
        for b in range(1, (n - 2) // 2 + 1):
            yield (b, n, *_low_side(b, n, down_pow), "low-side")
    for n in range(6, n_max + 1):
        for b in range((n + 2) // 2, n - 1):
            yield (b, n, *_low_side(b, n, down_pow)[::-1], "high-side")


def check_exp_bounds(n_max: int = EXACT_CUTOFF) -> InequalityCertificate:
    """Transcendental-free forms of the two log bounds, exact big-integer
    comparisons:

      (1 + 1/b)^b (1 - 1/(n-b))^(n-b-1) < 1      for 1 <= b <= (n-2)/2,
      (1 - 1/(b+1))^b (1 + 1/(n-b-1))^(n-b-1) < 1 for (n+1)/2 <= b <= n-2, n >= 6.

    Proof by a monotone chain.  Write f(k) = (1 + 1/k)^k and m = n - b.  The
    low side, cleared of denominators, is (b+1)^b (m-1)^(m-1) < b^b m^(m-1),
    exactly f(b) < f(m-1), and its band 2b <= n-2 gives b < m-1.  The high
    side is b^b m^(m-1) < (b+1)^b (m-1)^(m-1), exactly f(m-1) < f(b), and its
    band 2b >= n+1 gives m-1 < b.  As 1 <= b <= n-2, both indices lie in
    1..n_max-2, so every comparison holds once f is strictly increasing there:
    the n_max-3 links f(k) < f(k+1), k = 1..n_max-3, checked exactly.  If a
    link fails, the direct scan decides and lists the exact witnesses.
    """
    if n_max < 4:
        raise DomainError(f"exp-bounds needs n_max >= 4, got {n_max}")
    rng = RangeSpec("exp-bounds", 1, n_max - 2, 4, n_max)
    cert = InequalityCertificate("eq-negative_appendix", rng)
    if not all(lhs < rhs for _, lhs, rhs in _chain_links(n_max - 3)):
        for b, n, lhs, rhs, note in _exp_bounds_sides(n_max):
            if not lhs < rhs:
                cert.record_violation(b, n, lhs, rhs, note=note)
    return cert


# -- z difference lower bound --------------------------------------------------


def z_diff_lower_bound(b: int, n: int):
    """The explicit all-rational lower-bound expression for z(b+1,n) - z(b,n)."""
    if not (1 <= b <= (n - 1) // 2):
        raise DomainError("bound stated for b <= (n-1)/2")
    g_cell = kernel.integrate_g_delta(BinomialSpec(b, n))
    x = Rat(b + 1, n)
    m = n - b - 1
    factor = (
        1
        - Rat(1, 6 * (b + 1))
        - Rat(1, 18 * (b + 1) ** 2)
        + Rat(1, 6 * m)
        + Rat(1, 6 * m**2)
    )
    bracket = b * g_cell - x**b * Rat(m, n) ** (n - b) * factor
    return Rat(n**n, (n - b) * (b + 1) ** b * m ** (m)) * bracket


def _z_bound_gap(b: int, n: int, u: int, n_b: int, n_b1: int) -> int:
    """An integer with the sign of z_diff_lower_bound(b, n) - (z(b+1, n) - z(b, n)),
    for 1 <= b <= (n-1)/2: the bound holds at (b, n) iff it is <= 0.  The
    inputs are the entries (u, n_b), (_, n_b1) of exactcore.tail_row(n, b, b+1):
    with s = n**n and X_c ~ Bin(n, c/n), P(X_c < c) = T_c / s, P(X_c = c) = N_c / s,
    u = s - 2 T_b and z(c, n) = (s - 2 T_c) / (2 N_c).

    Proof.  Write m = n-b-1; the domain gives m >= b >= 1, so every factor
    cleared below is positive.  The kernel g(y) = y**(n-b) (1-y)**(b-1)
    integrates to a binomial tail,

        int_0^y g = B P(Bin(n, 1-y) < b),    B = (b-1)! (n-b)! / n!,

    as both sides vanish at y = 0 and the right side's derivative telescopes
    to B n C(n-1, b-1) y**(n-b) (1-y)**(b-1) = g(y): b-1 integrations by parts
    of the beta integral, read backwards (claim 1's identity 1, which
    kernel.verify_claim1 checks).  The tail is T_b / s at y = (m+1)/n; at
    y = m/n it is T_{b+1} / s less the mass of X_{b+1} at b, m/(m+1) times its
    mass N_{b+1} / s at b+1.  So the cell integral is
    G = B (T_b - T_{b+1} + m N_{b+1} / (m+1)) / s.

    As N_{b+1} = C(n, b) (m+1) (b+1)**b m**m and b B = 1 / C(n, b), the bound's
    prefactor s / ((m+1) (b+1)**b m**m) = s C(n, b) / N_{b+1} turns b G into
    (T_b - T_{b+1}) / N_{b+1} + m / (m+1), and x**b (m/n)**(n-b) F into
    m F / (m+1), with F = F_num / F_den the bracketed factor over
    F_den = 18 (b+1)**2 m**2.  T_{b+1} cancels against the difference:

        bound - difference = u (N_{b+1} - N_b) / (2 N_b N_{b+1}) + m (1 - F) / (m+1).

    Times 2 N_b N_{b+1} (m+1) F_den > 0, that is the integer returned,

        (m+1) F_den u (N_{b+1} - N_b) + 2 m (F_den - F_num) N_b N_{b+1}.
    """
    m = n - b - 1
    f_den = 18 * (b + 1) ** 2 * m**2
    f_num = f_den - 3 * (b + 1) * m**2 - m**2 + 3 * (b + 1) ** 2 * m + 3 * (b + 1) ** 2
    return (m + 1) * f_den * u * (n_b1 - n_b) + 2 * m * (f_den - f_num) * n_b * n_b1


def check_z_lowerbound(
    b_lo: int = 6, b_hi: int = 40, n_max: int = 200, diag_n_max: int = 201
) -> InequalityCertificate:
    """Records, per b, the smallest n from which the explicit lower bound
    stays below the exact difference z(b+1,n) - z(b,n) through n_max.

    The underlying claim is asymptotic ('n large enough'), so small-n failures
    are recorded as thresholds, not as violations, and the status is decided
    at n = n_max: a b lacks a threshold exactly when the bound fails there, and
    is then a witness, the exact bound against the exact difference at n_max.
    Each point is the sign of :func:`_z_bound_gap` on one exactcore.tail_row
    per n (and one per diagonal point).  The thresholds and the diagonal map
    stay in `extra`; the report carries only the status and the witnesses.
    """
    if n_max > EXACT_CUTOFF:
        raise DomainError(f"exact scan guarded at n <= {EXACT_CUTOFF}")
    b_hi = min(b_hi, (n_max - 2) // 2)  # keep 2b+2 <= n_max
    diag_n_max = min(diag_n_max, n_max + 1)
    if b_hi < b_lo:
        raise DomainError("n_max too small for the scanned b range")
    rng = RangeSpec("z-lowerbound", b_lo, b_hi, 2 * b_lo + 2, n_max)
    cert = InequalityCertificate("eq-diff_z_bn_lowerbound", rng)
    last_fail = {b: 2 * b + 1 for b in range(b_lo, b_hi + 1)}  # last n that fails; 2b+1 if none
    for n in range(2 * b_lo + 2, n_max + 1):
        top = min(b_hi, (n - 2) // 2)
        row = tail_row(n, b_lo, top + 1)
        for b, (u, n_b), (_, n_b1) in zip(range(b_lo, top + 1), row, row[1:]):
            if _z_bound_gap(b, n, u, n_b, n_b1) > 0:
                last_fail[b] = n  # must hold contiguously up to n_max
    thresholds = {b: n + 1 if n < n_max else None for b, n in last_fail.items()}
    for b, first_good in thresholds.items():
        if first_good is None:
            diff = ramanujan_z(BinomialSpec(b + 1, n_max)) - ramanujan_z(BinomialSpec(b, n_max))
            cert.record_violation(b, n_max, z_diff_lower_bound(b, n_max), diff,
                                  note="no threshold within range")
    # the near-diagonal regime b = (n-1)//2
    diag = {}
    for n in range(2 * b_lo + 3, diag_n_max + 1, 2):
        b = (n - 1) // 2
        (u, n_b), (_, n_b1) = tail_row(n, b, b + 1)
        diag[n] = _z_bound_gap(b, n, u, n_b, n_b1) <= 0
    cert.extra["thresholds"] = thresholds
    cert.extra["diagonal_holds"] = diag
    return cert


# -- boundary cases (b <= 5 and b >= n-5) ---------------------------------------


def _ineq1(n: int, e):
    return (
        Rat(899, 5)
        - e * Rat(523, 8)
        + (Rat(20531 * 6 - 2300) - e * Rat(9025 * 5)) * Rat(1, 60 * (n - 5))
    )


def _ineq2(n: int, e):
    m = n - 5
    return (
        Rat(2300)  # the split constant C
        + (Rat(3 * 80527 * 4) - e * Rat(3 * 24625 * 5)) * Rat(1, 2 * m)
        + (Rat(5 * 11009 * 12) - e * Rat(5 * 63125)) * Rat(1, m**2)
        - (Rat(12 * 20529) - e * Rat(12 * 3125 * 5)) * Rat(1, m**3)
        - Rat(6 * 217291, m**4)
        - Rat(6 * 156627, m**5)
        - Rat(60 * 3125, m**6)
    )


def _top_boundary_coeffs(e) -> list:
    """Coefficients c_0..c_5 of the upper bound sum_k c_k / (n-4)**k for the
    scaled difference of tails at b = n-5."""
    inv_e = 1 / e
    return [
        inv_e * Rat(1097, 12) - Rat(103, 3),
        inv_e * Rat(18649, 24) - Rat(824, 3),
        inv_e * Rat(4705, 2) - Rat(2240, 3),
        Rat(832, 3) - inv_e * Rat(5225, 8),
        inv_e * Rat(24625, 12) - Rat(256),
        inv_e * Rat(625),
    ]


def check_boundary_cases(n_scan: int = 160) -> InequalityCertificate:
    """The b <= 5 and b >= n-5 boundary cases of the tail-difference theorem:

    (i) exact sign of the tail difference matches the 3b+2 boundary for
        b <= 5, n <= n_scan, and for every b < n <= 27 (so b >= n-5 there);
    (ii/iii) the printed big-integer brackets at n = 16..19 for b = 5;
    (iv) positivity and growth, at n = 20, 40, ..., 200, of the two split
        bounds at the C = 2300 split, via the certified e bracket;
    (v) negativity of the top-boundary bound at n = 28, hence for all n >= 28.

    The split bounds are affine in e, and each top-boundary coefficient, so
    also their sum at n = 28, is affine in 1/e.  Each is therefore monotone
    on the e bracket, and the least and greatest of its values at the two
    ends of the bracket are the ends of its exact image.
    """
    rng = RangeSpec("boundary-cases", 1, 5, 2, n_scan)
    cert = InequalityCertificate("appB-boundary", rng)
    part = Report(meta={}, header=[])
    thm3_sign_suite(part, ((n, [p_diff_sign(b, n) for b in range(1, n if n <= 27 else 6)])
                           for n in range(2, n_scan + 1)), cert.claim_id, note="sign-vs-boundary")
    printed_brackets_suite(part)
    cert.witnesses.extend(part.violations)

    e = e_enclosure(terms_for_digits(40))
    for label, fn in (("ineq1", _ineq1), ("ineq2", _ineq2)):
        prev = None
        for n in range(20, 201, 20):
            lo, hi = sorted((fn(n, e.lo), fn(n, e.hi)))
            if n == 20 and not lo > 0:
                cert.record_violation(5, n, lo, 0, note=f"{label}-positivity")
            if prev is not None and not prev < lo:
                cert.record_violation(5, n, lo, prev, note=f"{label}-growth")
            prev = hi

    ends = _top_boundary_coeffs(e.lo), _top_boundary_coeffs(e.hi)
    top = max(sum(c * Rat(1, (28 - 4) ** k) for k, c in enumerate(coeffs)) for coeffs in ends)
    if not top < 0:
        cert.record_violation(23, 28, top, 0, note="top-bound-n28")
    # every non-constant coefficient is positive, so the bound decreases in n
    # and its negativity at n = 28 extends to all n >= 28
    for k, pair in enumerate(zip(*ends)):
        if k and not min(pair) > 0:
            cert.record_violation(23, 28, min(pair), 0, note=f"top-coeff-{k}")
    return cert


# -- root-location products ------------------------------------------------------


_ROOT_PRODUCTS = {
    "appC-root-bound-39": (
        39,
        [(-39, 77, 20), (-156, -1280, -1047, 28)],  # coefficients, lowest first
    ),
    "appC-root-bound-19": (
        19,
        [(129, 77, 20), (-129, -1075, -160, 12)],
    ),
}


def _root_product(factors: list, b: int) -> int:
    """4 times the product of the factor polynomials (coefficients lowest first) at b."""
    prod = 4
    for coeffs in factors:
        prod *= sum(c * b**k for k, c in enumerate(coeffs))
    return prod


# (claim, degree in b, f(b)): each product 4 f1 f2 has degree 2 + 3
ROOT_FAMILIES = tuple(
    (claim, sum(len(c) - 1 for c in factors), lambda b, factors=factors: _root_product(factors, b))
    for claim, (_, factors) in _ROOT_PRODUCTS.items())


def check_root_bounds(b_hi: int = 10**4) -> InequalityCertificate:
    """Positivity of the two root-location products from their stated b on.

    Each product (ROOT_FAMILIES, degree 5) is proved positive for every
    b >= its stated b_lo by _positive_from.  If a proof fails, that product
    is scanned exactly to b_hi and certified beyond by the derivative-sign
    tail of each factor."""
    rng = RangeSpec("root-bounds", 19, b_hi, 0, 0)
    cert = InequalityCertificate("appC-root-bounds", rng)
    for claim, degree, f in ROOT_FAMILIES:
        b_lo, factors = _ROOT_PRODUCTS[claim]
        if _positive_from(f, degree, b_lo):
            continue
        for b in range(b_lo, b_hi + 1):
            prod = _root_product(factors, b)
            if not prod > 0:
                cert.record_violation(b, 0, prod, 0, note=claim)
        tail_ok = all(_tail_positive(list(coeffs), b_hi) for coeffs in factors)
        if not tail_ok:
            cert.record_violation(b_hi, 0, 0, 0, note=f"{claim}-tail")
    return cert


# -- claim suites --------------------------------------------------------------


def thm3_sign_suite(report: Report, rows, claim_id: str = "thm3", note: str = "") -> None:
    """Theorem 3: sign(p_{b+1} - p_b) = +1 iff n >= 3b+2, else -1, on rows (n, signs)
    with signs[b-1] the exact sign at b (exactcore.p_diff_signs(n) or a prefix)."""
    for n, signs in rows:
        for b, sign in enumerate(signs, start=1):
            want = 1 if n >= 3 * b + 2 else -1
            report.results.append([claim_id, b, n, sign, sign == want])
            if sign != want:
                report.violations.append(
                    ViolationReport.from_rationals(claim_id, b, n, sign, want, note=note))


def printed_brackets_suite(report: Report) -> None:
    """The printed brackets between Tb = n**n P(X < b) at b = 5 and 6, n = 16..19."""
    for n, lo_mark, hi_mark in ((17, 3387 * 10**17, 3389 * 10**17),
                                (18, 1619 * 10**19, 1622 * 10**19),
                                (19, 8176 * 10**20, 8199 * 10**20),
                                (16, 7503 * 10**15, 7505 * 10**15)):
        t5, t6 = (tail_numerator(BinomialSpec(b, n)) for b in (5, 6))
        below, above = (t6, t5) if n == 16 else (t5, t6)  # n = 16: T6 < lo < hi < T5
        if not (below < lo_mark < hi_mark < above):
            report.violations.append(ViolationReport.from_rationals(
                "appB-boundary", 5, n, t5, t6, note=f"appB-n{n}"))


def claim1_suite(report: Report, n_max: int) -> None:
    """The four tail/integral identities (kernel.verify_claim1), 1 <= b < n <= n_max."""
    for n in range(2, n_max + 1):
        for b in range(1, n):
            ok = kernel.verify_claim1(BinomialSpec(b, n))
            report.results.append(["claim1", b, n, "ok" if ok else "violated", "", "", "", ""])
            if not ok:
                report.violations.append(ViolationReport.from_rationals("claim1", b, n, 0, 1))


def claim2_suite(report: Report, n_max: int) -> None:
    """Closed-form derivative == oracle, orders 1..min(b-1, n-b), 1 <= b < n <= n_max."""
    for n in range(2, n_max + 1):
        for b in range(1, n):
            spec = BinomialSpec(b, n)
            for order in range(1, min(b - 1, n - b) + 1):
                closed = kernel.derivative_closed_form_polynomial(spec, order)
                oracle = kernel.derivative_oracle(spec, order)
                ok = closed.coeffs == oracle.coeffs
                report.results.append(["claim2", b, n, "ok" if ok else "mismatch",
                                       f"order={order}", "", "", ""])
                if not ok:
                    report.violations.append(ViolationReport.from_rationals(
                        "claim2", b, n, 0, 1, note=f"order={order}"))


def claim3_suite(report: Report, ns) -> None:
    """Taylor sandwich on the 5-point cell grid, 5 <= b <= n/2, n in `ns`; a witness
    per point, with g and the lower bound at z = (4(n-b-1) + j) / (4n)."""
    for n in ns:
        for b in range(5, n // 2 + 1):
            den, rows = kernel.taylor_sandwich(BinomialSpec(b, n))
            ok = True
            for j, (g, lower, upper) in enumerate(rows):
                if not lower <= g <= upper:
                    ok = False
                    report.violations.append(ViolationReport.from_rationals(
                        "claim3", b, n, Rat(g, den), Rat(lower, den),
                        note=f"z={Rat(4 * (n - b - 1) + j, 4 * n)}"))
            report.results.append(["claim3", b, n, "ok" if ok else "violated", "", "", "", ""])


def lemma1_suite(report: Report, b_max: int, k_max: int) -> None:
    """Lemma 1: E[N^(s) 1(N<b)] = b**s P(N < b-s) for 1 <= s <= b <= b_max, one row
    per b; sum_i (-1)**i C(k, i) i^(s) = 0 for 0 <= s < k <= k_max."""
    for b in range(1, b_max + 1):
        row = poisson.factorial_moment_row(b)
        for s, ok in enumerate(row, start=1):
            if not ok:
                report.violations.append(ViolationReport.from_rationals("lemma1", s, b, 0, 1))
        report.results.append(["lemma1", b, b, "ok" if all(row) else "violated", "", "", "", ""])
    for k in range(1, k_max + 1):
        for s in range(k):
            val = poisson.falling_factorial_sum(k, s)
            if val != 0:
                report.violations.append(ViolationReport.from_rationals("lemma1-ffs", s, k, val, 0))


def moments_suite(report: Report, bs) -> None:
    """Enclosed truncated moments h1, h2 of order 1, 2 at each b in `bs`."""
    for b in bs:
        for k in (1, 2):
            for which in ("h1", "h2"):
                enc = poisson.truncated_moment(b, k, which)
                report.results.append(["claim4", b, k, which,
                                       decimal_str(enc.lo), decimal_str(enc.hi), "", ""])


def poisson_suite(report: Report, b_max: int, policy, bound_digits: int) -> None:
    """For b = 1..b_max, from certified enclosures: y(b) in (1/3, 1/2) and
    alpha(b) in [2/21, 8/45], both strictly decreasing, and beta(b) in
    (-1/3, -1 + 4/sqrt(21(368-135e))] with the bound enclosed at bound_digits."""
    beta_upper = poisson.beta_upper_bound(bound_digits)

    def fail(name, b, lhs, rhs):
        report.violations.append(ViolationReport.from_rationals(f"poisson-{name}", b, b, lhs, rhs))

    prev_y = prev_alpha = None
    for b in range(1, b_max + 1):
        y, alpha, beta = poisson.alpha_beta(b, policy)
        report.results.append(["poisson", b] + [decimal_str(v) for v in (
            y.lo, y.hi, alpha.lo, alpha.hi, beta.lo, beta.hi)])
        if not (Rat(1, 3) < y.lo and y.hi < Rat(1, 2)):
            fail("y-range", b, y.lo, y.hi)
        if prev_y is not None and not y.strictly_below(prev_y):
            fail("y-monotone", b, y.hi, prev_y.lo)
        if not (Rat(2, 21) <= alpha.lo and alpha.hi <= Rat(8, 45)):
            fail("alpha-range", b, alpha.lo, alpha.hi)
        if prev_alpha is not None and not alpha.strictly_below(prev_alpha):
            fail("alpha-monotone", b, alpha.hi, prev_alpha.lo)
        if not beta.lo > Rat(-1, 3):
            fail("beta-range", b, beta.lo, Rat(-1, 3))
        if not poisson.beta_meets_upper_bound(b, beta, beta_upper):
            fail("beta-range", b, beta.hi, beta_upper.lo)
        prev_y, prev_alpha = y, alpha
