"""Poisson enclosures: exact weights, mpmath cross-checks of the enclosures,
the integer closed forms against the interval chains they replace,
factorial-moment identities, and the sharpness of the beta upper bound."""

import functools
import math
from fractions import Fraction

import mpmath
import pytest

from binram import intervals, poisson
from binram.backend import Rat
from binram.exactcore import DomainError
from binram.intervals import IntervalValue, exp_neg_enclosure, sqrt_enclosure, terms_for_digits
from binram.poisson import (
    alpha_beta,
    beta_meets_upper_bound,
    beta_upper_bound,
    factorial_moment_row,
    falling_factorial_sum,
    pmf_weight,
    summarize,
    tail_weight,
    truncated_moment,
    y_poisson,
)
from binram.precision import PrecisionError, PrecisionPolicy
from interval_chain import ChainInterval, chain

POLICY = PrecisionPolicy(digits=40, max_escalations=2)


def mp_contains(interval, mp_value, slack="1e-35"):
    v_lo = mp_value - mpmath.mpf(slack)
    v_hi = mp_value + mpmath.mpf(slack)
    lo = mpmath.mpf(int(interval.lo.numerator)) / int(interval.lo.denominator)
    hi = mpmath.mpf(int(interval.hi.numerator)) / int(interval.hi.denominator)
    return lo <= v_hi and v_lo <= hi


def test_tail_weight_exact_values():
    # sum_{i<b} b**i / i!
    assert tail_weight(1) == 1
    assert tail_weight(2) == 3  # 1 + 2
    assert tail_weight(3) == Rat(17, 2)  # 1 + 3 + 9/2
    assert tail_weight(4) == Fraction(
        sum(Fraction(4**i, math.factorial(i)) for i in range(4))
    )
    with pytest.raises(DomainError):
        tail_weight(0)


def test_pmf_weight_exact():
    for b in (1, 2, 5, 9):
        assert pmf_weight(b) == Rat(b**b, math.factorial(b))


@pytest.mark.parametrize("b", [1, 2, 5, 20, 60])
def test_poisson_tail_vs_mpmath(b):
    with mpmath.workdps(80):
        want = sum(
            mpmath.exp(-b) * mpmath.mpf(b) ** i / mpmath.factorial(i)
            for i in range(b)
        )
        assert mp_contains(summarize(b, POLICY).tail, want)


def test_y_at_1_is_e_over_2_minus_1():
    with mpmath.workdps(80):
        assert mp_contains(y_poisson(1, POLICY), mpmath.e / 2 - 1)


@pytest.mark.parametrize("b", [1, 2, 3, 10, 40])
def test_y_in_classical_range(b):
    y = y_poisson(b, POLICY)
    assert Rat(1, 3) < y.lo and y.hi < Rat(1, 2)


def test_y_strictly_decreasing_sample():
    prev = y_poisson(1, POLICY)
    for b in range(2, 12):
        cur = y_poisson(b, POLICY)
        assert cur.hi < prev.lo
        prev = cur


def factorial_moment_identity(b: int, s: int) -> bool:
    """Exact check of E[N^(s) 1(N<b)] = b**s P(N < b-s), comparing the rational
    weights after the common exp(-b) factor cancels."""
    if not (1 <= s <= b):
        raise DomainError("need 1 <= s <= b")
    w = list(poisson.poisson_weights(b))
    lhs = sum(w[i] * math.perm(i, s) for i in range(s, b))
    rhs = b**s * sum(w[: b - s])
    return lhs == rhs


def test_factorial_moment_identity():
    for b in range(1, 61):
        per_pair = [factorial_moment_identity(b, s) for s in range(1, b + 1)]
        assert all(per_pair)
        assert factorial_moment_row(b) == per_pair
    with pytest.raises(DomainError):
        factorial_moment_identity(3, 4)


@pytest.mark.parametrize("b,k,which", [(3, 1, "h1"), (5, 2, "h1"), (5, 2, "h2"), (8, 3, "h2")])
def test_truncated_moment_vs_mpmath(b, k, which):
    with mpmath.workdps(80):
        want = mpmath.mpf(0)
        for i in range(b):
            term = mpmath.exp(-b) * mpmath.mpf(b) ** i / mpmath.factorial(i)
            term *= mpmath.mpf(b - i) ** k
            if which == "h2":
                term *= i
            want += term
        assert mp_contains(truncated_moment(b, k, which, POLICY), want)


def test_falling_factorial_sum():
    for k in range(0, 12):
        for s in range(0, k):
            assert falling_factorial_sum(k, s) == 0
        assert falling_factorial_sum(k, k) == (-1) ** k * math.factorial(k)
    with pytest.raises(DomainError):
        falling_factorial_sum(-1, 0)


def test_beta_meets_upper_bound():
    for digits in (30, 60):
        policy = PrecisionPolicy(digits=digits, max_escalations=2)
        ub = beta_upper_bound(digits)
        for b in (1, 2, 3):
            assert beta_meets_upper_bound(b, summarize(b, policy).beta, ub)
        # the b = 1 check can fail: moved by more than both widths, they are disjoint
        beta1 = summarize(1, policy).beta
        shift = beta1.hi - beta1.lo + ub.hi - ub.lo + Rat(1, 10**digits)
        assert not beta_meets_upper_bound(1, beta1, chain(ub) + shift)
        assert not beta_meets_upper_bound(1, beta1, chain(ub) - shift)
        # from b = 2 on, reaching the bound is a violation
        assert not beta_meets_upper_bound(2, beta1, ub)


def chain_beta_upper_bound(digits):
    """beta_upper_bound as the interval chain its two-end form replaces."""
    e = chain(poisson.e_enclosure(terms_for_digits(digits)))
    inner = (e * (-135) + 368) * 21
    if not inner.lo > 0:
        raise PrecisionError("e enclosure too wide for the beta bound")
    root = ChainInterval(
        sqrt_enclosure(inner.lo, digits).lo, sqrt_enclosure(inner.hi, digits).hi
    )
    return 4 * root.reciprocal() - 1


def test_beta_upper_bound_value():
    ub = beta_upper_bound(40)
    # -1 + 4/sqrt(21(368 - 135 e)) = -0.1407483955646...
    assert Rat(-14075, 10**5) < ub.lo and ub.hi < Rat(-14074, 10**5)
    for digits in (30, 40, 60):
        assert beta_upper_bound(digits) == chain_beta_upper_bound(digits), digits


@pytest.mark.parametrize("bracket", [
    (Rat(27, 10), Rat(272, 100)),  # wide: the two roots differ in their first digit
    (Rat(2), Rat(368, 135)),  # 21 (368 - 135 e) reaches 0: PrecisionError
])
def test_beta_upper_bound_on_a_wrong_bracket_matches_the_chain(monkeypatch, bracket):
    monkeypatch.setattr(poisson, "e_enclosure", lambda terms: IntervalValue(*bracket))
    assert outcome(beta_upper_bound, 40) == outcome(chain_beta_upper_bound, 40)


def test_beta_at_1_attains_bound_numerically():
    _, _, beta = alpha_beta(1, POLICY)
    ub = beta_upper_bound(40)
    # the enclosures must overlap (equality case) and agree to ~30 digits
    assert beta.lo <= ub.hi and ub.lo <= beta.hi
    assert abs(beta.lo - ub.lo) < Rat(1, 10**30)


def test_beta_strictly_below_bound_for_larger_b():
    ub = beta_upper_bound(40)
    for b in (2, 3, 10):
        _, _, beta = alpha_beta(b, POLICY)
        assert beta.hi < ub.lo


def test_alpha_beta_ranges_and_monotonicity():
    prev_a = prev_b = None
    for b in range(1, 9):
        y, alpha, beta = alpha_beta(b, POLICY)
        assert y == y_poisson(b, POLICY)  # the y that alpha and beta were computed from
        assert Rat(2, 21) <= alpha.lo and alpha.hi <= Rat(8, 45)
        assert Rat(-1, 3) < beta.lo and beta.hi < 0
        if prev_a is not None:
            assert alpha.hi < prev_a.lo  # strictly decreasing
            assert beta.hi < prev_b.lo
        prev_a, prev_b = alpha, beta


def test_summarize_consistency():
    s = summarize(4, POLICY)
    assert s.b == 4
    assert s.tail.lo > 0 and s.pmf_at_b.lo > 0
    assert Rat(1, 3) < s.y.lo < s.y.hi < Rat(1, 2)


# -- integer closed forms against the interval chains they replace -------------


def ref_exp_neg(b, digits):
    """exp(-b) as the b-th power of the 1/e bracket, rounded out by the interval chain."""
    k = digits + poisson._digits_of_magnitude(b) + 10
    return ref_power(intervals.exp_neg1_enclosure(terms_for_digits(digits)), b, k)


@functools.lru_cache(maxsize=None)
def ref_power(bracket, b, k):
    # keyed by the bracket itself, so a monkeypatched 1/e bracket misses the cache
    return (chain(bracket) ** b).round_out(k)


def ref_y(b, policy):
    target = Rat(1, 10**policy.digits)
    s, t = tail_weight(b), pmf_weight(b)
    for digits in policy.escalation_digits():
        e = ref_exp_neg(b, digits)
        y = ((Rat(1, 2) - s * e) / (t * e)).round_out(digits)
        if y.width() <= target:
            return y
    raise PrecisionError(f"y enclosure for b={b} did not reach width {target}")


def ref_alpha_beta(b, policy, y_of=ref_y):
    last_exc = None
    for digits in policy.escalation_digits():
        y = chain(y_of(b, PrecisionPolicy(digits=digits, max_escalations=1)))
        try:
            alpha = 4 / ((y - Rat(1, 3)) * 135) - b
            squared = 8 / ((Rat(4, 135 * b) + Rat(1, 3) - y) * 2835)
        except ZeroDivisionError as exc:
            last_exc = exc
            continue
        if not squared.lo > 0:
            last_exc = None
            continue
        root = ChainInterval(sqrt_enclosure(squared.lo, digits).lo,
                             sqrt_enclosure(squared.hi, digits).hi)
        return y, alpha.round_out(digits), (root - b).round_out(digits)
    raise PrecisionError(f"alpha/beta for b={b}: denominator stayed inconclusive") from last_exc


def ref_truncated_moment(b, k, which, policy):
    weight = sum(Rat(b**i, math.factorial(i)) * (b - i) ** k * (i if which == "h2" else 1)
                 for i in range(b))
    return (weight * ref_exp_neg(b, policy.digits)).round_out(policy.digits)


def chain_times_exp_neg(weight, b, digits):
    """An exact rational weight times the exp(-b) enclosure, rounded out: the
    interval chain that ``poisson._times_exp_neg`` replaces."""
    return (weight * chain(poisson._exp_neg_interval(b, digits))).round_out(digits)


def chain_truncated_moment(b, k, which, policy):
    """truncated_moment as the interval chain it replaces (ref_truncated_moment
    sums the same weight one Fraction per term, too slow to run at every b)."""
    acc = sum(w * (b - i) ** k * (i if which == "h2" else 1)
              for i, w in enumerate(poisson.poisson_weights(b)))
    return chain_times_exp_neg(Rat(acc, math.factorial(b - 1)), b, policy.digits)


def outcome(fn, *args):
    """fn(*args), or the types of the exception it raises and of that one's cause."""
    try:
        return fn(*args)
    except (PrecisionError, ZeroDivisionError) as exc:
        return type(exc), type(exc.__cause__)


ORACLE_POLICIES = [(30, 4), (31, 1), (50, 2), (60, 4)]


@pytest.mark.parametrize("digits,escalations", ORACLE_POLICIES)
def test_closed_forms_match_the_interval_chains(digits, escalations):
    policy = PrecisionPolicy(digits=digits, max_escalations=escalations)
    escalated = []
    for b in range(1, 301):
        k = digits + poisson._digits_of_magnitude(b) + 10
        assert exp_neg_enclosure(b, terms_for_digits(digits), k) == ref_exp_neg(b, digits), b
        y = outcome(y_poisson, b, policy)
        assert y == outcome(ref_y, b, policy), b
        assert outcome(alpha_beta, b, policy) == outcome(ref_alpha_beta, b, policy), b
        if isinstance(y, IntervalValue) and y.lo.denominator > 10**digits:
            escalated.append(b)
    for k, which in ((1, "h1"), (2, "h2")):
        for b in range(1, 301, 7):
            assert (truncated_moment(b, k, which, policy)
                    == ref_truncated_moment(b, k, which, policy)), (b, k, which)
    if (digits, escalations) == (30, 4):
        # y's own escalation, read by alpha_beta on the finer grid
        assert escalated[:3] == [161, 164, 173]


@pytest.mark.parametrize("digits", [30, 60])
def test_truncated_moment_matches_the_interval_chain(digits):
    policy = PrecisionPolicy(digits=digits)
    for b in range(1, 301):
        for k in (1, 2):
            for which in ("h1", "h2"):
                assert (truncated_moment(b, k, which, policy)
                        == chain_truncated_moment(b, k, which, policy)), (b, k, which)
        got = summarize(b, policy)
        assert got.tail == chain_times_exp_neg(tail_weight(b), b, digits), b
        assert got.pmf_at_b == chain_times_exp_neg(pmf_weight(b), b, digits), b


@pytest.mark.parametrize("b,bracket", [
    (1, (Rat(1, 3), Rat(3, 5))),  # wide: 1/2 - s e_hi < 0, y_poisson gives up
    (2, (Rat(9, 20), Rat(1, 2))),  # wide: both ends of 1/2 - s e negative
    (1, (Rat(1, 2) - Rat(1, 10**90), Rat(1, 2) + Rat(1, 10**90))),  # y straddles 0
    (1, (Rat(11, 20), Rat(11, 20) + Rat(1, 10**90))),  # y < 0 throughout
    (3, (Rat(1, 2) - Rat(1, 10**90), Rat(1, 2))),  # 1/2 - s e < 0 throughout
])
def test_closed_forms_match_on_a_wrong_bracket(monkeypatch, b, bracket):
    monkeypatch.setattr(intervals, "exp_neg1_enclosure", lambda terms: IntervalValue(*bracket))
    policy = PrecisionPolicy(digits=30, max_escalations=2)
    assert outcome(y_poisson, b, policy) == outcome(ref_y, b, policy)
    assert outcome(alpha_beta, b, policy) == outcome(ref_alpha_beta, b, policy)


@pytest.mark.parametrize("b,y", [
    (5, (Rat(1, 3) - Rat(1, 10**20), Rat(1, 3) + Rat(1, 10**20))),  # X straddles 0
    (5, (Rat(2, 10), Rat(21, 100))),  # X < 0: alpha below -b
    (5, (Rat(3392, 10**4), Rat(3393, 10**4))),  # Z straddles 0: 4/675 + 1/3 = 0.339259...
    (5, (Rat(35, 100), Rat(36, 100))),  # Z < 0: squared.lo < 0
    (2, (Rat(340, 10**3), Rat(341, 10**3))),  # X, Z > 0 below 4/270 + 1/3, away from y(2)
])
def test_alpha_beta_branches_match_the_chain(monkeypatch, b, y):
    def fake_y(b, policy):
        return IntervalValue(*y)

    monkeypatch.setattr(poisson, "y_poisson", fake_y)
    policy = PrecisionPolicy(digits=30, max_escalations=2)
    assert outcome(alpha_beta, b, policy) == outcome(ref_alpha_beta, b, policy, fake_y)
