"""binram: exact and rigorously-enclosed verification of binomial median
monotonicity quantities.

The package computes the binomial Ramanujan-type ratio
z(b, n) = (1/2 - P(X < b)) / P(X = b) for X ~ Bin(n, b/n) and its Poisson
analogue in exact rational arithmetic, verifies the inequality certificates
that reduce the monotonicity theorems to finite checks, and ships a CLI
(`binram`) emitting deterministic CSV/JSON reports.
"""

from .backend import BACKEND, Rat, as_rat
from .exactcore import (
    BinomialSpec,
    DomainError,
    TailValue,
    exact_pmf,
    median_binomial,
    p_diff_sign,
    p_diff_signs,
    ramanujan_z,
    tail_p,
    tail_value,
    z_diff_signs,
    z_symmetry_row,
)
from .highprec import claim5_residual, theorem2_threshold, z_diff_sign, z_highprec
from .intervals import IntervalValue, e_enclosure, exp_neg_enclosure
from .kernel import (
    DeltaCell,
    IntegerPolynomial,
    ResourceError,
    TaylorSandwich,
    derivative_closed_form,
    derivative_oracle,
    eval_P,
    eval_Q,
    eval_R,
    eval_g,
    integrate_g_delta,
    kernel_polynomial,
    signed_integral_split,
    taylor_sandwich,
    verify_claim1,
)
from .poisson import (
    PoissonSummary,
    alpha_beta,
    beta_meets_upper_bound,
    beta_upper_bound,
    factorial_moment_identity,
    falling_factorial_sum,
    summarize,
    truncated_moment,
    y_poisson,
)
from .precision import DEFAULT_POLICY, PrecisionError, PrecisionPolicy
from .report import Report, ViolationReport, merge_reports
from .smalldev import (
    SmallDevSpec,
    TwoPointDist,
    binomial_tail_below,
    conjecture_scan,
    tilde_p,
    tilde_p_monotonicity_scan,
    two_point_tail,
    verify_samuels,
)

__version__ = "1.0.0"
