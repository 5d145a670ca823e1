"""Outward-rounded interval arithmetic: the test oracle for the closed forms.

Every enclosure in ``binram`` is a closed form evaluated at the ends of one
certified bracket.  Each equals, endpoint for endpoint, or lies inside, the
interval chain that builds the same expression one operation at a time, with
every operation returning an interval containing the exact image of its
operands and :meth:`ChainInterval.round_out` widening to a power-of-ten grid.
:class:`ChainInterval` is that chain: ``binram.intervals.IntervalValue`` with
the operator layer, so it compares equal to a package interval with the same
endpoints.  :func:`chain` lifts a package interval into it.
"""

from binram.backend import Rat, as_rat
from binram.intervals import IntervalValue


def chain(x: IntervalValue) -> "ChainInterval":
    """The interval x, with the chain's arithmetic."""
    return ChainInterval(x.lo, x.hi)


class ChainInterval(IntervalValue):
    __slots__ = ()

    @classmethod
    def point(cls, x) -> "ChainInterval":
        x = as_rat(x)
        return cls(x, x)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "ChainInterval":
        other = _coerce(other)
        return ChainInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "ChainInterval":
        return ChainInterval(-self.hi, -self.lo)

    def __sub__(self, other) -> "ChainInterval":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "ChainInterval":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "ChainInterval":
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return ChainInterval(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "ChainInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return ChainInterval(1 / as_rat(self.hi), 1 / as_rat(self.lo))

    def __truediv__(self, other) -> "ChainInterval":
        return self * _coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "ChainInterval":
        return _coerce(other) * self.reciprocal()

    def __pow__(self, k: int) -> "ChainInterval":
        """The k-th power, for k >= 1 and an interval with lo >= 0."""
        if k < 1 or self.lo < 0:
            raise ValueError("power needs k >= 1 and a nonnegative interval")
        return ChainInterval(as_rat(self.lo) ** k, as_rat(self.hi) ** k)

    # -- structure ----------------------------------------------------------

    def width(self):
        return self.hi - self.lo

    def midpoint(self):
        return (as_rat(self.lo) + self.hi) / 2

    def round_out(self, digits: int) -> "ChainInterval":
        """Widen endpoints outward to denominator 10**digits (caps size growth)."""
        scale = 10**digits
        lo = as_rat(self.lo)
        hi = as_rat(self.hi)
        lo_scaled = (lo.numerator * scale) // lo.denominator  # floor
        hi_scaled = -((-hi.numerator * scale) // hi.denominator)  # ceil
        return ChainInterval(Rat(lo_scaled, scale), Rat(hi_scaled, scale))


def _coerce(x) -> ChainInterval:
    if isinstance(x, ChainInterval):
        return x
    return ChainInterval.point(x)
