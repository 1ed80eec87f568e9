"""Test-set sizing: how many trials make an empirical error rate
statistically significant, and the smallest error rate a given trial
count can resolve.

Model: errors are i.i.d. Bernoulli and the estimate must not understate
the true rate by more than a relative margin beta, except with risk
alpha.  That yields N = -ln(alpha) / (beta^2 * P); for alpha = 0.05 and
beta = 0.2 the constant -ln(alpha)/beta^2 = 74.893 rounds up to the
common simplified rule N = 100 / P.  Correlated samples need a larger N
than either rule reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

RULES = ("exact", "simplified")

#: alpha/beta behind the simplified 100/P rule
SIMPLIFIED_ALPHA = 0.05
SIMPLIFIED_BETA = 0.2


@dataclass(frozen=True)
class SignificanceParams:
    alpha: float = SIMPLIFIED_ALPHA
    beta: float = SIMPLIFIED_BETA
    p: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must be in (0, 1]")


def _exact_rule(alpha: float, beta: float, x: float, name: str) -> float:
    """-ln(alpha) / (beta^2 * x), for x the error rate p or the trial
    count n; a value that overflows a float (beta^2 * x underflowing to 0
    included) is a ValueError naming ``beta^2 * name``."""
    product = beta**2 * x
    value = -math.log(alpha) / product if product else math.inf
    if not math.isfinite(value):
        raise ValueError(
            f"beta^2 * {name} = {product:g} is too small: -ln(alpha) / (beta^2 * {name}) overflows"
        )
    return value


def required_n_exact(params: SignificanceParams) -> float:
    """-ln(alpha) / (beta^2 * p), before rounding up to whole trials.

    The rule is evaluated on the float alpha and beta as given: the float
    0.2 is slightly above 1/5, so the result need not equal the value at
    beta = 1/5 exactly.  A value too large for a float is a ValueError.
    """
    return _exact_rule(params.alpha, params.beta, params.p, "p")


def required_n(params: SignificanceParams) -> int:
    """Smallest whole trial count satisfying the significance bound."""
    return math.ceil(required_n_exact(params))


def simplified_n(p: float) -> int:
    """The 100/P rule of thumb (alpha = 0.05, beta = 0.2, rounded up)."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    if not math.isfinite(100.0 / p):
        raise ValueError(f"p = {p:g} is too small: 100 / p overflows")
    return math.ceil(100.0 / p)


def min_resolvable_error_rate(
    n: int,
    rule: str = "simplified",
    alpha: float = SIMPLIFIED_ALPHA,
    beta: float = SIMPLIFIED_BETA,
) -> float:
    """Smallest error rate that n trials estimate significantly.

    Inverse of the sizing rules: "simplified" gives 100/n, "exact" gives
    -ln(alpha) / (beta^2 * n), evaluated on the float alpha and beta as
    given (the float 0.2 is slightly above 1/5).  alpha and beta must
    satisfy :class:`SignificanceParams`, whatever the rule, and n must fit
    a float; an exact rate too large for a float is a ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        float(n)
    except OverflowError:
        raise ValueError("n is too large for a float") from None
    SignificanceParams(alpha, beta)
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}, got {rule!r}")
    if rule == "simplified":
        return 100.0 / n
    return _exact_rule(alpha, beta, n, "n")
