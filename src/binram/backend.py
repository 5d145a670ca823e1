"""Exact-rational backend selection.

All exact arithmetic in this package runs on arbitrary-precision rationals.
When gmpy2 is available its C-backed ``mpq``/``mpz`` types are used; otherwise
we fall back to the pure-Python ``fractions.Fraction``/``int`` pair.  The two
backends are interchangeable (same operator surface, exact semantics); only
speed differs.  ``BINRAM_BACKEND`` selects: ``auto`` (the default: gmpy2 if
it is installed, else fractions), ``gmpy2`` or ``fractions``.  Any other
value, or ``gmpy2`` without gmpy2 installed, makes this import raise
:class:`BackendError`.

Results never depend on the backend: every value is an exact rational.
"""

from __future__ import annotations

import os


class BackendError(ImportError):
    """BINRAM_BACKEND names no usable backend."""


_requested = os.environ.get("BINRAM_BACKEND", "auto")

if _requested not in ("auto", "gmpy2", "fractions"):
    raise BackendError(f"unknown BINRAM_BACKEND={_requested!r}; "
                       "expected auto, gmpy2 or fractions")

if _requested in ("auto", "gmpy2"):
    try:
        from gmpy2 import mpq as Rat  # type: ignore
    except ImportError:
        if _requested == "gmpy2":
            raise BackendError("BINRAM_BACKEND='gmpy2' but gmpy2 is not installed") from None
        _requested = "fractions"
if _requested == "fractions":
    from fractions import Fraction as Rat  # type: ignore
BACKEND = "fractions" if _requested == "fractions" else "gmpy2"


def as_rat(x) -> "Rat":
    """Coerce an int, backend rational, Fraction or 'p/q' string to Rat."""
    if isinstance(x, str):
        if "/" in x:
            num, den = x.split("/", 1)
            return Rat(int(num), int(den))
        return Rat(int(x))
    return Rat(x)


def decimal_str(q) -> str:
    """Display-only decimal rendering of a rational to 24 places, round-toward-zero."""
    q = as_rat(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = (q.numerator * 10**24) // q.denominator
    whole, frac = divmod(scaled, 10**24)
    return f"{sign}{whole}.{str(frac).zfill(24)}"


def rat_str(q) -> str:
    """Exact 'num/den' rendering (reproduces the value bit-exactly)."""
    return f"{q.numerator}/{q.denominator}"
