"""Certified integer enclosures of z(b, n) for n beyond exact arithmetic.

Exact rational arithmetic becomes too expensive for n in the hundreds of
thousands, because P(X < b) and P(X = b) carry the common factor
(n-b)**(n-b) / n**n.  Cancelling it leaves

    z(b, n) = (W - 2 A) / (2 t),    W = n**n / (n-b)**(n-b) = n**b (n / (n-b))**(n-b),

with the integers A and t from the exact kernel head
(:func:`exactcore.tail_pmf_head`).  Only the power (n / (n-b))**(n-b) is not
exact: :func:`intervals.power_enclosure` encloses it by integer endpoints
over 2**bits, with outward rounding.  So every z is enclosed by two integer
numerators over one positive integer denominator, and a sign is accepted only
when the enclosures, compared by cross-multiplying those integers, exclude
0; more digits only narrow the enclosures.  Below the exact cutoff the sign
is delegated to the exact path.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .backend import Rat
from .exactcore import EXACT_CUTOFF, BinomialSpec, DomainError, tail_pmf_head, z_diff_sign_exact
from .intervals import IntervalValue, power_enclosure
from .precision import DEFAULT_POLICY, PrecisionError, PrecisionPolicy

GUARD_BITS = 4

INCONCLUSIVE = "inconclusive"


def _z_numerators(n: int, b: int, digits: int) -> tuple:
    """Integers (lo, hi, d), d > 0, with lo / d <= z(b, n) <= hi / d.

    With k = n - b, the power (n/k)**k is enclosed as [w_lo, w_hi] / 2**bits
    at bits = ceil(digits log2 10) + 2 bit_length(k) + GUARD_BITS, so W lies
    in n**b [w_lo, w_hi] / 2**bits and z = (W - 2A) / (2t) in

        [n**b w_lo - 2A 2**bits, n**b w_hi - 2A 2**bits] / (2t 2**bits).

    Width: hi - lo = n**b (w_hi - w_lo), and w_hi - w_lo <= 4 k (n/k)**k (the
    bound of :func:`intervals.power_enclosure`; 2 k**2 <= 2**bits holds), so
    (hi - lo) / d <= 4 k W / (2t 2**bits) = 2 k / (P(X = b) 2**bits), as
    P(X = b) = t / W.  Since 2**bits > 16 (k + 1)**2 10**digits, as
    k < k + 1 <= 2**bit_length(k) and GUARD_BITS = 4, the width of z is below
    10**-digits / (8 (k + 1) P(X = b)).
    """
    head, t = tail_pmf_head(n, b, b, n)
    bits = (10**digits).bit_length() + 2 * (n - b).bit_length() + GUARD_BITS
    w_lo, w_hi = power_enclosure(n, n - b, n - b, bits)
    nb, shift = n**b, head << (bits + 1)
    return nb * w_lo - shift, nb * w_hi - shift, t << (bits + 1)


def z_highprec(spec: BinomialSpec, policy: PrecisionPolicy = DEFAULT_POLICY) -> IntervalValue:
    """Rational enclosure of z(b, n) at policy.digits digits, of width below
    10**-digits / (8 (n - b + 1) P(X = b)) (see :func:`_z_numerators`)."""
    lo, hi, d = _z_numerators(spec.n, spec.b, policy.digits)
    return IntervalValue(Rat(lo, d), Rat(hi, d))


def _enclosed_signs(n: int, b_lo: int, b_hi: int, policy: PrecisionPolicy) -> list:
    """Signs of z(b+1, n) - z(b, n) for b = b_lo..b_hi, one z enclosure per b.

    A sign is accepted only when the enclosures certify it: -1 or +1 when
    they are disjoint, 0 when both are the same single point.  With the
    enclosures [l0, h0] / d0 of z(b, n) and [l1, h1] / d1 of z(b+1, n) and
    d0, d1 > 0, z(b, n) lies strictly below z(b+1, n) when h0 d1 < l1 d0,
    strictly above when h1 d0 < l0 d1, and equals it when l0 = h0, l1 = h1
    and l0 d1 = l1 d0: every test is on integers.  Only the other pairs are
    evaluated again, at doubled digits, up to policy.max_escalations times;
    a pair still overlapping is INCONCLUSIVE.
    """
    signs = {}
    pending = list(range(b_lo, b_hi + 1))
    for digits in policy.escalation_digits():
        zs = {b: _z_numerators(n, b, digits)
              for b in sorted({c for b in pending for c in (b, b + 1)})}
        for b in pending:
            (l0, h0, d0), (l1, h1, d1) = zs[b], zs[b + 1]
            if h0 * d1 < l1 * d0:
                signs[b] = 1
            elif h1 * d0 < l0 * d1:
                signs[b] = -1
            elif l0 == h0 and l1 == h1 and l0 * d1 == l1 * d0:  # two equal points: z(1, 2) = z(2, 2)
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
    exact, so the residual is enclosed by z's enclosure shifted by it, of the
    same width; digits double until that width is at most a tenth of the
    residual's midpoint, which is returned as an exact rational.
    """
    if n < 10 * b * b:
        raise DomainError("expansion regime requires n >= 10 b**2")
    expansion = Rat(1, 3) + Rat(4, 135 * b) + Rat(b, 3 * n)
    for digits in policy.escalation_digits():
        z = z_highprec(BinomialSpec(b, n), PrecisionPolicy(digits=digits))
        mid = (z.lo + z.hi) / 2 - expansion
        if 10 * (z.hi - z.lo) < abs(mid):
            return mid
    raise PrecisionError(f"residual at (b={b}, n={n}) stayed below the enclosure width")


class ThresholdReport(NamedTuple):
    """Where the sign of z(b+1, n) - z(b, n) flips, against sqrt(77 n / 360)."""

    n: int
    b_star_low: int
    b_star_high: int  # derived from the lower flip by the z symmetry
    predicted: float
    ratio_low: float
    ratio_high: float
    sign_changes: list  # (b, sign_before, sign_after)
    inconclusive_points: list
    window: tuple


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
