"""High-precision floating evaluation with a sign-stability contract.

Exact rational arithmetic becomes too expensive for n in the hundreds of
thousands, so the threshold scans run on mpmath arbitrary-precision floats.
Nothing here is trusted blindly: every value carries a conservative forward
error bound, and a sign is only accepted when two successive precision
escalations agree and the magnitude clears an explicit guard.  Below the
exact cutoff the sign is delegated to the exact path, so a float sign can
never silently contradict exact arithmetic there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath

from .exactcore import BinomialSpec, DomainError, z_diff_sign_exact
from .precision import DEFAULT_POLICY, PrecisionError, PrecisionPolicy

EXACT_CUTOFF = 2000  # big-rational evaluation stays sub-second below this n

INCONCLUSIVE = "inconclusive"


def z_highprec(spec: BinomialSpec, policy: PrecisionPolicy = DEFAULT_POLICY):
    """Approximate z(b, n) with a conservative forward error bound.

    Returns (value, err) as mpmath floats computed at policy.digits decimal
    digits; the exact value lies within [value - err, value + err].
    """
    b, n = spec.b, spec.n
    if b == n:
        return mpmath.mpf("0.5"), mpmath.mpf(0)
    with mpmath.workdps(policy.digits):
        t = (mpmath.mpf(n - b) / n) ** n  # P(X = 0)
        ratio = mpmath.mpf(b) / (n - b)
        p = mpmath.mpf(0)
        for i in range(b):
            p += t
            t = t * (n - i) / (i + 1) * ratio
        pmf = t  # P(X = b)
        z = (mpmath.mpf("0.5") - p) / pmf
        # ~n ops for the initial power, ~3b for the loop, slack for the rest
        unit = mpmath.mpf(10) ** (1 - policy.digits)
        err = (n + 3 * b + 10) * unit * ((mpmath.mpf("0.5") + p) / pmf + abs(z))
        return +z, +err


def z_diff_sign(
    b: int,
    n: int,
    policy: PrecisionPolicy = DEFAULT_POLICY,
    exact_cutoff: int = EXACT_CUTOFF,
):
    """Sign of z(b+1, n) - z(b, n): -1, 0, +1, or "inconclusive".

    Exact below the cutoff.  Above it, a sign is returned only when two
    consecutive precision doublings agree, the difference exceeds the summed
    error bounds, and its magnitude clears the policy guard.
    """
    if not (1 <= b < n):
        raise DomainError(f"need 1 <= b < n, got b={b}, n={n}")
    if n <= exact_cutoff:
        return z_diff_sign_exact(b, n)

    previous = None
    for digits in policy.escalation_digits():
        sub = PrecisionPolicy(
            digits=digits,
            max_escalations=1,
            guard_exponent=policy.guard_exponent,
        )
        z_lo, err_lo = z_highprec(BinomialSpec(b, n), sub)
        z_hi, err_hi = z_highprec(BinomialSpec(b + 1, n), sub)
        diff = z_hi - z_lo
        err = err_lo + err_hi
        guard = mpmath.mpf(10) ** (-digits / policy.guard_exponent)
        if abs(diff) > err and abs(diff) > guard:
            candidate = 1 if diff > 0 else -1
            if candidate == previous:
                return candidate
            previous = candidate
        else:
            previous = None
    return INCONCLUSIVE


def claim5_residual(
    b: int, n: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> "mpmath.mpf":
    """z(b, n) minus its three-term expansion 1/3 + 4/(135 b) + b/(3 n).

    Requires n > 10 b**2 so the expansion's regime applies; escalates until
    the error bound is at most a tenth of the residual.
    """
    if n < 10 * b * b:
        raise DomainError("expansion regime requires n >= 10 b**2")
    for digits in policy.escalation_digits():
        sub = PrecisionPolicy(
            digits=digits, max_escalations=1, guard_exponent=policy.guard_exponent
        )
        z, err = z_highprec(BinomialSpec(b, n), sub)
        with mpmath.workdps(digits):
            expansion = (
                mpmath.mpf(1) / 3
                + mpmath.mpf(4) / (135 * b)
                + mpmath.mpf(b) / (3 * n)
            )
            residual = z - expansion
        if abs(residual) > 10 * err:
            return residual
    raise PrecisionError(f"residual at (b={b}, n={n}) stayed below the error bound")


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
    assumed); all sign changes are reported.  The upper flip comes from the
    symmetry sign(b) = sign(n-1-b) rather than a second scan.
    """
    if n < 10**4:
        raise DomainError("threshold scan intended for n >= 10**4")
    predicted = float(mpmath.sqrt(mpmath.mpf(77) * n / 360))
    lo = max(1, int(predicted / 2))
    hi = min(n - 1, int(2 * predicted) + 1)

    signs = {}
    inconclusive = []
    for b in range(lo, hi + 1):
        s = z_diff_sign(b, n, policy)
        if s == INCONCLUSIVE:
            inconclusive.append(b)
        signs[b] = s

    changes = []
    prev_b, prev_s = None, None
    for b in range(lo, hi + 1):
        s = signs[b]
        if s == INCONCLUSIVE:
            continue
        if prev_s is not None and s != prev_s:
            changes.append((b, prev_s, s))
        prev_b, prev_s = b, s

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
