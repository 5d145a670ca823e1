"""Certified rational enclosures of z(b, n) for n beyond exact arithmetic.

Exact rational arithmetic becomes too expensive for n in the hundreds of
thousands, because P(X < b) and P(X = b) carry the common factor
(n-b)**(n-b) / n**n.  Cancelling it leaves

    z(b, n) = (W - 2 A) / (2 t),    W = n**n / (n-b)**(n-b) = n**b (n / (n-b))**(n-b),

with the integers A and t from the exact kernel head
(:func:`exactcore.tail_pmf_head`).  Only the power (n / (n-b))**(n-b) is not
exact: :func:`intervals.power_enclosure` encloses it with outward-rounded
integer arithmetic.  So every z is an interval that contains the true value,
and a sign is accepted only when an enclosed difference excludes 0; more
digits only narrow the enclosures.  Below the exact cutoff the sign is
delegated to the exact path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .backend import Rat
from .exactcore import EXACT_CUTOFF, BinomialSpec, DomainError, tail_pmf_head, z_diff_sign_exact
from .intervals import IntervalValue, power_enclosure
from .precision import DEFAULT_POLICY, PrecisionError, PrecisionPolicy

GUARD_BITS = 4

INCONCLUSIVE = "inconclusive"


def z_highprec(spec: BinomialSpec, policy: PrecisionPolicy = DEFAULT_POLICY) -> IntervalValue:
    """Rational enclosure of z(b, n) at policy.digits digits.

    With k = n - b, the power is enclosed at bits = ceil(digits log2 10)
    + 2 bit_length(k) + GUARD_BITS, so W's relative width is at most
    4 k 2**-bits < 10**-digits / (4 (k + 1)), as k < k + 1 <= 2**bit_length(k)
    and GUARD_BITS = 4.  Since P(X = b) = t / W, the width of z is below
    10**-digits / (8 (k + 1) P(X = b)).
    """
    b, n = spec.b, spec.n
    head, t = tail_pmf_head(n, b, b, n)
    bits = (10**policy.digits).bit_length() + 2 * (n - b).bit_length() + GUARD_BITS
    w = power_enclosure(n, n - b, n - b, bits)
    lo, hi = ((n**b * end - 2 * head) / (2 * t) for end in (w.lo, w.hi))
    return IntervalValue(lo, hi)


def _enclosed_signs(n: int, b_lo: int, b_hi: int, policy: PrecisionPolicy) -> list:
    """Signs of z(b+1, n) - z(b, n) for b = b_lo..b_hi, one z enclosure per b.

    A sign is accepted only when the enclosures certify it: -1 or +1 when
    they are disjoint, 0 when both are the same single point.  Only the
    other pairs are evaluated again, at doubled digits, up to
    policy.max_escalations times; a pair still overlapping is INCONCLUSIVE.
    """
    signs = {}
    pending = list(range(b_lo, b_hi + 1))
    for digits in policy.escalation_digits():
        sub = PrecisionPolicy(digits=digits)
        zs = {b: z_highprec(BinomialSpec(b, n), sub)
              for b in sorted({c for b in pending for c in (b, b + 1)})}
        for b in pending:
            z0, z1 = zs[b], zs[b + 1]
            if z0.strictly_below(z1):
                signs[b] = 1
            elif z1.strictly_below(z0):
                signs[b] = -1
            elif z1 == z0 and z0.width() == 0:  # two equal exact values: z(1, 2) = z(2, 2)
                signs[b] = 0
        pending = [b for b in pending if b not in signs]
        if not pending:
            break
    return [signs.get(b, INCONCLUSIVE) for b in range(b_lo, b_hi + 1)]


def z_diff_sign(b: int, n: int, policy: PrecisionPolicy = DEFAULT_POLICY):
    """Sign of z(b+1, n) - z(b, n): -1, 0, +1, or "inconclusive".

    Exact at n <= EXACT_CUTOFF; above it, certified from the enclosures of
    z(b, n) and z(b+1, n) as in the threshold scan.
    """
    if not (1 <= b < n):
        raise DomainError(f"need 1 <= b < n, got b={b}, n={n}")
    if n <= EXACT_CUTOFF:
        return z_diff_sign_exact(b, n)
    return _enclosed_signs(n, b, b, policy)[0]


def claim5_residual(b: int, n: int, policy: PrecisionPolicy = DEFAULT_POLICY):
    """z(b, n) minus its three-term expansion 1/3 + 4/(135 b) + b/(3 n).

    Requires n > 10 b**2 so the expansion's regime applies.  The expansion is
    exact, so the residual is enclosed as tightly as z; digits double until
    the enclosure is at most a tenth of the residual wide, and its midpoint
    is returned as an exact rational.
    """
    if n < 10 * b * b:
        raise DomainError("expansion regime requires n >= 10 b**2")
    expansion = Rat(1, 3) + Rat(4, 135 * b) + Rat(b, 3 * n)
    for digits in policy.escalation_digits():
        residual = z_highprec(BinomialSpec(b, n), PrecisionPolicy(digits=digits)) - expansion
        mid = residual.midpoint()
        if 10 * residual.width() < abs(mid):
            return mid
    raise PrecisionError(f"residual at (b={b}, n={n}) stayed below the enclosure width")


@dataclass
class ThresholdReport:
    """Where the sign of z(b+1, n) - z(b, n) flips, against sqrt(77 n / 360)."""

    n: int
    b_star_low: int
    b_star_high: int  # derived from the lower flip by the z symmetry
    predicted: float
    ratio_low: float
    ratio_high: float
    sign_changes: list = field(default_factory=list)  # (b, sign_before, sign_after)
    inconclusive_points: list = field(default_factory=list)
    window: tuple = (0, 0)


def theorem2_threshold(
    n: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> ThresholdReport:
    """Scan a window around sqrt(77 n / 360) for the lower sign flip.

    Every b in [predicted/2, 2*predicted] is evaluated (no unimodality
    assumed), from one enclosure of z per b; all sign changes are reported.
    The upper flip comes from the symmetry sign(b) = sign(n-1-b) rather than
    a second scan.
    """
    if n < 10**4:
        raise DomainError("threshold scan intended for n >= 10**4")
    predicted = math.sqrt(77 * n / 360)
    lo = max(1, int(predicted / 2))
    hi = min(n - 1, int(2 * predicted) + 1)

    signs = list(zip(range(lo, hi + 1), _enclosed_signs(n, lo, hi, policy)))
    inconclusive = [b for b, s in signs if s == INCONCLUSIVE]

    changes = []
    prev_s = None
    for b, s in signs:
        if s == INCONCLUSIVE:
            continue
        if prev_s is not None and s != prev_s:
            changes.append((b, prev_s, s))
        prev_s = s

    b_star_low = next((b for b, before, after in changes if before == -1 and after == 1), 0)
    b_star_high = n - 1 - b_star_low if b_star_low else 0
    ratio_low = b_star_low / predicted if b_star_low else float("nan")
    ratio_high = (n - b_star_high) / predicted if b_star_low else float("nan")
    return ThresholdReport(
        n=n,
        b_star_low=b_star_low,
        b_star_high=b_star_high,
        predicted=predicted,
        ratio_low=ratio_low,
        ratio_high=ratio_high,
        sign_changes=changes,
        inconclusive_points=inconclusive,
        window=(lo, hi),
    )
