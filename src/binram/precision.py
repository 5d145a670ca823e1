"""Precision policy shared by the Poisson and binomial enclosure paths.

Every result those paths accept rests on a certified enclosure, so the policy
only sets how much work to spend: the digits of the first attempt and how
often they may double before a result is reported inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass


class PrecisionError(RuntimeError):
    """Raised when the precision budget is exhausted before a conclusive result."""


@dataclass(frozen=True)
class PrecisionPolicy:
    """Working-precision budget.

    digits: working decimal precision of the first attempt.
    max_escalations: how many times precision may double before giving up.
    """

    digits: int = 60
    max_escalations: int = 4

    def __post_init__(self):
        if self.digits < 30:
            raise ValueError("digits must be >= 30")
        if self.max_escalations < 1:
            raise ValueError("max_escalations must be >= 1")

    def escalation_digits(self):
        """Yield the digit counts of successive attempts: d, 2d, 4d, ..."""
        d = self.digits
        for _ in range(self.max_escalations + 1):
            yield d
            d *= 2


DEFAULT_POLICY = PrecisionPolicy()
