"""Precision policy shared by the Poisson and binomial enclosure paths.

Every result those paths accept rests on a certified enclosure, so the policy
only sets how much work to spend: the digits of the first attempt and how
often they may double before a result is reported inconclusive.
"""

from __future__ import annotations


class PrecisionError(RuntimeError):
    """Raised when the precision budget is exhausted before a conclusive result."""


class PrecisionPolicy:
    """Working-precision budget.

    digits: working decimal precision of the first attempt.
    max_escalations: how many times precision may double before giving up.
    """

    __slots__ = ("digits", "max_escalations")

    def __init__(self, digits: int = 60, max_escalations: int = 4):
        if digits < 30:
            raise ValueError("digits must be >= 30")
        if max_escalations < 1:
            raise ValueError("max_escalations must be >= 1")
        self.digits = digits
        self.max_escalations = max_escalations

    def escalation_digits(self):
        """Yield the digit counts of successive attempts: d, 2d, 4d, ..."""
        d = self.digits
        for _ in range(self.max_escalations + 1):
            yield d
            d *= 2


DEFAULT_POLICY = PrecisionPolicy()
