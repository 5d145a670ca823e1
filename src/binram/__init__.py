"""binram: exact and rigorously-enclosed verification of binomial median
monotonicity quantities.

The package computes the binomial Ramanujan-type ratio
z(b, n) = (1/2 - P(X < b)) / P(X = b) for X ~ Bin(n, b/n) and its Poisson
analogue in exact rational arithmetic, verifies the inequality certificates
that reduce the monotonicity theorems to finite checks, and ships a CLI
(`binram`) emitting deterministic CSV/JSON reports.

The package re-exports nothing: import each name from its submodule, so a
process loads only the modules it uses.
"""

__version__ = "1.0.0"
