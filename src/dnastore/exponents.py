"""Closed-form error-exponent calculus for sampling-limited decoding.

Everything here is a pure function of its inputs; all logarithms are natural
and all exponents are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .params import ScalingParams

DEFAULT_ROOT_TOL = 1e-12

LOWRATE_REGIMES = (
    "constant_rate",
    "superlinear",
    "lowrate_noerr",
    "lowrate_no_multiset",
    "lowrate_multiset",
    "lowrate_erasure",
    "lowrate_adversarial",
    "lowrate_random",
)


@dataclass(frozen=True)
class ExponentParams:
    """Coverage depth c = N/M and distinct-count threshold fraction delta."""

    c: float
    delta: float

    def __post_init__(self):
        if not self.c > 0:
            raise DomainError("coverage depth c must be positive")
        if not 0.0 < self.delta < 1.0:
            raise DomainError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class ExponentResult:
    regime: str  # "positive_exponent" | "zero_exponent"
    f_value: float
    r: float | None


@dataclass(frozen=True)
class LowRatePrediction:
    regime_tag: str
    normalizer: str  # description of the denominator of the normalized limit
    predicted_limit: float


def binary_entropy(x: float) -> float:
    """H(x) in nats, with the convention 0 * log(1/0) = 0."""
    if x < 0.0 or x > 1.0:
        raise DomainError("entropy argument must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def binary_kl(a: float, b: float) -> float:
    """KL divergence between Bernoulli(a) and Bernoulli(b), in nats."""
    if not 0.0 <= a <= 1.0:
        raise DomainError("first KL argument must lie in [0, 1]")
    if not 0.0 < b < 1.0:
        raise DomainError("second KL argument must lie in (0, 1)")
    t1 = 0.0 if a == 0.0 else a * (math.log(a) - math.log(b))
    t2 = 0.0 if a == 1.0 else (1.0 - a) * (math.log1p(-a) - math.log1p(-b))
    return t1 + t2


def expected_distinct_fraction(x: float, c: float) -> float:
    """x * (1 - exp(-c/x)): expected fraction of occupied bins when c*M balls
    fall uniformly into x*M bins, rescaled by M.  Strictly increasing in x."""
    if x <= 0:
        raise DomainError("x must be positive")
    return x * -math.expm1(-c / x)


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite: {tol}")


def solve_r(params: ExponentParams, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Unique r in (delta, 1] with r * (1 - exp(-c/r)) = delta.

    Bisection on the strictly increasing expected_distinct_fraction; the
    returned point satisfies |psi(r) - delta| <= tol.  Requires
    1 - exp(-c) >= delta, otherwise no root exists.
    """
    _check_tol(tol)
    c, delta = params.c, params.delta
    top = -math.expm1(-c)  # value of psi at x = 1
    if top < delta:
        raise DomainError(
            f"no root: 1 - exp(-c) = {top} < delta = {delta} "
            "(zero-exponent regime)"
        )
    if top - delta <= tol:
        return 1.0
    # bisect all the way to float collapse: stopping early at an absolute
    # residual loses relative accuracy in r when delta is tiny
    lo, hi = delta, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # interval collapsed to adjacent floats
            break
        if expected_distinct_fraction(mid, c) < delta:
            lo = mid
        else:
            hi = mid
    if abs(expected_distinct_fraction(hi, c) - delta) > tol:
        raise DomainError(f"bisection stalled above the requested tolerance {tol}")
    return hi


def exponent_multinomial(
    params: ExponentParams, tol: float = DEFAULT_ROOT_TOL
) -> ExponentResult:
    """Exact exponent of P(#distinct <= delta*M) under multinomial sampling
    at coverage c, i.e. the limit of -(1/M) log p(cM, M, delta*M)."""
    _check_tol(tol)
    c, delta = params.c, params.delta
    if -math.expm1(-c) < delta:
        return ExponentResult("zero_exponent", 0.0, None)
    r = solve_r(params, tol)
    ratio = min(delta / r, 1.0)
    f = -c * math.log(r) - binary_entropy(delta) + r * binary_entropy(ratio)
    return ExponentResult("positive_exponent", max(f, 0.0), r)


def exponent_poisson(params: ExponentParams) -> float:
    """Exponent of the same event when each molecule's read count is an
    independent Poisson(c): the binomial Chernoff rate D(1-delta || e^-c)."""
    c, delta = params.c, params.delta
    if delta > -math.expm1(-c):
        return 0.0
    return binary_kl(1.0 - delta, math.exp(-c))


def rate_threshold(c: float, inner_capacity: float, beta: float) -> float:
    """Largest outer rate with a positive exponent for this code class:
    (1 - e^-c) * (inner_capacity - 1/beta)."""
    if not c > 0:
        raise DomainError("coverage depth c must be positive")
    if not beta > 0:
        raise DomainError("beta must be positive")
    head = inner_capacity - 1.0 / beta
    if head <= 0:
        raise DomainError(
            f"non-positive capacity term: inner_capacity = {inner_capacity} "
            f"<= 1/beta = {1.0 / beta}"
        )
    return -math.expm1(-c) * head


def _message_exponent(scaling: ScalingParams) -> float:
    """s such that J = exp(M^s)."""
    log_j = scaling.log_messages
    if log_j <= 0:
        raise DomainError("message count must satisfy log J > 0")
    return math.log(log_j) / math.log(scaling.M)


def lowrate_prediction(
    regime_tag: str, scaling: ScalingParams, *, adversarial_table_variant: bool = False
) -> LowRatePrediction:
    """Predicted normalized limit of log(1/P_e) for one scaling regime.

    The prediction is expressed against the regime's natural normalizer:
    "M" for the constant-rate regime, "N" where the limit is a per-read
    constant, and "N*log(M)" where the limit is a coefficient of N log M.
    adversarial_table_variant switches the adversarial row's inner argument
    from 1/sqrt(p) (the proof-matched form, the default) to 1/p.
    """
    if regime_tag not in LOWRATE_REGIMES:
        raise DomainError(f"unknown regime tag {regime_tag!r}")
    M, N, alpha = scaling.M, scaling.N, scaling.alpha
    log_m = math.log(M)

    if regime_tag == "constant_rate":
        r0 = scaling.r0
        if not 0.0 < r0 < 1.0:
            raise DomainError(f"derived R0 = {r0} outside (0, 1)")
        res = exponent_multinomial(ExponentParams(c=N / M, delta=r0))
        return LowRatePrediction(regime_tag, "M", res.f_value)

    if regime_tag == "superlinear":
        if N <= M:
            raise DomainError("superlinear regime requires N > M")
        r0 = scaling.r0
        if not 0.0 < r0 < 1.0:
            raise DomainError(f"derived R0 = {r0} outside (0, 1)")
        return LowRatePrediction(regime_tag, "N", math.log(1.0 / r0))

    s = _message_exponent(scaling)
    log_j = scaling.log_messages

    if regime_tag == "lowrate_noerr":
        if not max(0.0, 2.0 - alpha) < s < 1.0:
            raise DomainError(
                f"lowrate_noerr requires max(0, 2-alpha) < s < 1; got s = {s}"
            )
        return LowRatePrediction(regime_tag, "N*log(M)", 1.0 - s)

    if regime_tag == "lowrate_no_multiset":
        if not 1.0 < alpha < 2.0:
            raise DomainError("lowrate_no_multiset requires alpha in (1, 2)")
        if log_j <= math.log(2.0) + alpha * log_m:
            raise DomainError("lowrate_no_multiset requires J > 2 * M^alpha")
        if log_j > M ** (2.0 - alpha):
            raise DomainError("lowrate_no_multiset requires J <= exp(M^(2-alpha))")
        return LowRatePrediction(regime_tag, "N*log(M)", alpha - 1.0)

    if regime_tag == "lowrate_multiset":
        if not 1.0 < alpha < 2.0:
            raise DomainError("lowrate_multiset requires alpha in (1, 2)")
        if not 0.0 < s < 2.0 - alpha:
            raise DomainError(
                f"lowrate_multiset requires 0 < s < 2 - alpha; got s = {s}"
            )
        return LowRatePrediction(regime_tag, "N*log(M)", (alpha - s) / 2.0)

    # sequencing-error rows: need s > 2 - alpha (J >= exp(M^(2-alpha+c)))
    # and a genuinely positive error probability
    p = scaling.p_seq
    if not 0.0 < p < 1.0:
        raise DomainError(f"{regime_tag} requires p_seq in (0, 1)")
    if s <= 2.0 - alpha:
        raise DomainError(
            f"{regime_tag} requires J >= exp(M^(2-alpha+c)) for some c > 0 "
            f"(message exponent s = {s} <= 2 - alpha = {2.0 - alpha})"
        )
    if log_j >= M * log_m:
        raise DomainError(f"{regime_tag} requires log J = o(M log M)")
    ratio = M * log_m / log_j

    if regime_tag in ("lowrate_erasure", "lowrate_random"):
        return LowRatePrediction(regime_tag, "N", math.log(min(1.0 / p, ratio)))

    # lowrate_adversarial
    inner_arg = 1.0 / p if adversarial_table_variant else 1.0 / math.sqrt(p)
    return LowRatePrediction(regime_tag, "N", math.log(min(inner_arg, ratio)))
