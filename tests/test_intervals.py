"""Intervals: the test oracle's outward-rounded arithmetic, no arithmetic on
the package's own intervals, enclosure correctness for e, exp(-b) and square
roots, checked against mpmath at higher precision, exp(-b) from carried
powers against powers raised from scratch, and rational powers checked
against exact Fraction powers."""

from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binram import intervals
from binram.backend import Rat
from binram.intervals import (
    IntervalValue,
    e_enclosure,
    exp_neg1_enclosure,
    exp_neg_enclosure,
    power_enclosure,
    sqrt_enclosure,
    terms_for_digits,
)
from interval_chain import ChainInterval


SNAP_DIGITS = 130  # finer than every enclosure width exercised below


def contains_mp(interval: IntervalValue, mp_value) -> bool:
    """True if the enclosure contains the 130-digit bracket around mp_value.

    Caller must evaluate mp_value at >= 150 dps so the snapshot is faithful.
    """
    scaled = int(mpmath.floor(mp_value * mpmath.mpf(10) ** SNAP_DIGITS))
    lo = Rat(scaled, 10**SNAP_DIGITS)
    hi = lo + Rat(1, 10**SNAP_DIGITS)
    return interval.lo <= lo and hi <= interval.hi


rationals = st.fractions(min_value=-100, max_value=100)


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_mul_contains_pointwise_products(a, b, c, d):
    x = ChainInterval(Rat(min(a, b)), Rat(max(a, b)))
    y = ChainInterval(Rat(min(c, d)), Rat(max(c, d)))
    prod = x * y
    for p in (a, b):
        for q in (c, d):
            assert prod.lo <= Rat(p) * Rat(q) <= prod.hi


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_add_sub_envelope(a, b):
    x = ChainInterval(Rat(min(a, b)), Rat(max(a, b)))
    s = x + x
    d = x - x
    assert s.lo <= 2 * Rat(a) <= s.hi
    assert d.lo <= 0 <= d.hi


def test_reciprocal_rejects_zero_straddle():
    with pytest.raises(ZeroDivisionError):
        ChainInterval(Rat(-1), Rat(1)).reciprocal()


def test_pow_rejects_negative_base_and_nonpositive_exponent():
    assert ChainInterval(Rat(1, 3), Rat(1, 2)) ** 3 == IntervalValue(Rat(1, 27), Rat(1, 8))
    with pytest.raises(ValueError):
        ChainInterval(Rat(-2), Rat(3)) ** 2
    with pytest.raises(ValueError):
        ChainInterval(Rat(1, 3), Rat(1, 2)) ** 0


def test_round_out_widens_and_contains():
    x = ChainInterval(Rat(1, 3), Rat(2, 3))
    r = x.round_out(6)
    assert r.lo <= x.lo and x.hi <= r.hi
    assert r.lo.denominator <= 10**6 and r.hi.denominator <= 10**6


def test_package_intervals_define_no_arithmetic():
    x = IntervalValue(Rat(1, 3), Rat(1, 2))
    for op in (lambda: x + x, lambda: x - 1, lambda: 2 * x, lambda: 1 / x, lambda: x / x,
               lambda: -x, lambda: x ** 2):
        with pytest.raises(TypeError):
            op()
    for name in ("point", "reciprocal", "round_out", "width", "midpoint"):
        assert not hasattr(x, name), name


def test_sign_and_comparisons():
    assert IntervalValue(Rat(1), Rat(2)).strictly_below(IntervalValue(Rat(3), Rat(4)))
    assert not IntervalValue(Rat(1), Rat(3)).strictly_below(
        IntervalValue(Rat(2), Rat(4))
    )


def test_e_enclosure_contains_e():
    with mpmath.workdps(160):
        for digits in (20, 40, 60):
            enc = e_enclosure(terms_for_digits(digits))
            assert contains_mp(enc, mpmath.e)
            assert enc.hi - enc.lo < Rat(1, 10**digits)


def test_exp_neg1_alternating_bracket():
    with mpmath.workdps(160):
        enc = exp_neg1_enclosure(terms_for_digits(40))
        assert contains_mp(enc, mpmath.exp(-1))
        # bracket really is two consecutive partial sums: positive width
        assert enc.lo < enc.hi


def per_term_brackets(terms: int) -> tuple:
    """The 1/e and e brackets summed one Fraction per series term, as
    exp_neg1_enclosure and e_enclosure computed them before their integer
    Horner sums: the oracle for those sums."""
    s, fact = Fraction(0), 1
    for k in range(terms):
        if k > 0:
            fact *= k
        s += Fraction((-1) ** k, fact)
    nxt = s + Fraction((-1) ** terms, fact * terms)
    inv_e = (s, nxt) if nxt > s else (nxt, s)
    s, fact = Fraction(0), 1
    for k in range(terms + 1):
        if k > 0:
            fact *= k
        s += Fraction(1, fact)
    return inv_e, (s, s + Fraction(1, fact * terms))


def test_series_brackets_equal_the_per_term_sums():
    for terms in range(3, 201):
        inv_e, e = per_term_brackets(terms)
        for enc, want in ((exp_neg1_enclosure(terms), inv_e), (e_enclosure(terms), e)):
            got = tuple(Fraction(int(x.numerator), int(x.denominator)) for x in (enc.lo, enc.hi))
            assert got == want, terms


@pytest.mark.parametrize("b", [1, 2, 5, 20, 100])
def test_exp_neg_enclosure(b):
    with mpmath.workdps(260):
        enc = exp_neg_enclosure(b, terms_for_digits(60), 120)
        assert contains_mp(enc, mpmath.exp(-b))
        assert 10**120 % enc.lo.denominator == 0 and 10**120 % enc.hi.denominator == 0


def scratch_exp_neg(b, bracket, digits):
    """exp_neg_enclosure's closed form with the four b-th powers of the
    bracket [nl/dl, nh/dh] raised from scratch."""
    nl, dl, nh, dh = (bracket.lo.numerator, bracket.lo.denominator,
                      bracket.hi.numerator, bracket.hi.denominator)
    scale = 10**digits
    return IntervalValue(Rat(nl**b * scale // dl**b, scale),
                         Rat(-(-nh**b * scale // dh**b), scale))


T30, T60 = terms_for_digits(30), terms_for_digits(60)
# (b, terms) call orders; the last one is the default poisson walk at 30 digits
# with its 60-digit escalations at b = 161, 164 and 173
EXP_NEG_WALKS = {
    "up one step": [(b, T30) for b in range(1, 61)],
    "up with jumps": [(b, T30) for b in (1, 2, 5, 13, 40, 41, 100, 177)],
    "repeated b": [(b, T30) for b in (7, 7, 8, 8, 8)],
    "downward": [(b, T30) for b in (50, 49, 10, 11, 1, 3)],
    "two brackets": [(b, terms) for b in range(155, 180)
                     for terms in ((T30, T60) if b in (161, 164, 173) else (T30,))],
}


@pytest.mark.parametrize("walk", EXP_NEG_WALKS)
def test_carried_powers_equal_powers_from_scratch(monkeypatch, walk):
    monkeypatch.setattr(intervals, "_exp_neg_powers", {})
    for b, terms in EXP_NEG_WALKS[walk]:
        digits = 40 + b  # finer than exp(-b) itself
        assert exp_neg_enclosure(b, terms, digits) == \
            scratch_exp_neg(b, exp_neg1_enclosure(terms), digits), (b, terms)


def test_a_replaced_bracket_is_powered_from_scratch(monkeypatch):
    monkeypatch.setattr(intervals, "_exp_neg_powers", {})
    exp_neg_enclosure(5, T30, 60)
    wide = IntervalValue(Rat(1, 3), Rat(3, 5))
    monkeypatch.setattr(intervals, "exp_neg1_enclosure", lambda terms: wide)
    assert exp_neg_enclosure(6, T30, 60) == scratch_exp_neg(6, wide, 60)


class PowerLog(int):
    """An int that logs the exponents it is raised to."""

    log = []

    def __pow__(self, k):
        PowerLog.log.append(k)
        return int(self) ** k


def test_interleaved_brackets_each_keep_their_carried_powers(monkeypatch):
    """Two brackets called in turn at b = 5, 6, ..., 30: after its first
    call each one advances by x**1, so each carries its own powers."""
    def bracket(nl, nh):
        return SimpleNamespace(lo=SimpleNamespace(numerator=PowerLog(nl), denominator=PowerLog(1000)),
                               hi=SimpleNamespace(numerator=PowerLog(nh), denominator=PowerLog(1000)))

    brackets = {T30: bracket(367, 368), T60: bracket(3678, 3679)}
    monkeypatch.setattr(intervals, "_exp_neg_powers", {})
    monkeypatch.setattr(intervals, "exp_neg1_enclosure", brackets.__getitem__)
    exponents = []
    for b in range(5, 31):
        for terms in (T30, T60):
            want = scratch_exp_neg(b, brackets[terms], 90)
            PowerLog.log.clear()
            assert exp_neg_enclosure(b, terms, 90) == want, (b, terms)
            exponents.append(PowerLog.log[:])
    assert exponents[:2] == [[5] * 4, [5] * 4]
    assert all(log == [1] * 4 for log in exponents[2:])


@pytest.mark.parametrize("x", [Rat(2), Rat(10), Rat(1, 4), Rat(49), Rat(77, 360)])
def test_sqrt_enclosure(x):
    enc = sqrt_enclosure(x, 40)
    assert enc.lo * enc.lo <= x <= enc.hi * enc.hi
    assert enc.hi - enc.lo <= Rat(2, 10**40)


def test_sqrt_exact_square_tight():
    enc = sqrt_enclosure(Rat(49), 20)
    assert enc.lo <= 7 <= enc.hi
    assert sqrt_enclosure(Rat(0), 20) == IntervalValue(Rat(0), Rat(0))


@given(st.integers(1, 1000), st.integers(0, 1000), st.integers(0, 400), st.integers(0, 64))
@settings(max_examples=300, deadline=None)
def test_power_enclosure_contains_the_power_within_its_width(q, excess, k, spare):
    p = q + excess  # p = q included
    bits = 2 * k.bit_length() + 1 + spare  # 2 k**2 <= 2**bits, the width bound's premise
    lo, hi = power_enclosure(p, q, k, bits)  # integer endpoints over 2**bits
    exact = Fraction(p, q) ** k
    assert lo <= exact * 2**bits <= hi
    assert hi - lo <= 4 * k * exact


def test_power_enclosure_edges():
    assert power_enclosure(7, 0, 0, 10) == (2**10, 2**10)  # b = n: W = n**n
    assert power_enclosure(5, 5, 300, 12) == (2**12, 2**12)
    assert power_enclosure(6, 3, 200, 8) == (2**208, 2**208)  # exact on the grid
    # 3/2, its squares and the first products are exact on the grid, the last product is not
    lo, hi = power_enclosure(3, 2, 15, 9)
    assert lo < Fraction(3, 2) ** 15 * 2**9 < hi
    with pytest.raises(ValueError):
        power_enclosure(2, 3, 5, 40)
