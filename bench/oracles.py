"""Reference values computed apart from dnastore, used to check its outputs.

Nothing here imports the package: every quantity is recomputed from its
definition (exact integers, closed forms, an independent root finder, a
direct agreement count) so that a fault in the program cannot hide in the
reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def stirling2_row(n: int) -> list[int]:
    """Stirling numbers of the second kind S(n, k) for k = 0..n."""
    row = [1]
    for i in range(1, n + 1):
        prev = row + [0]
        row = [0] + [k * prev[k] + prev[k - 1] for k in range(1, i + 1)]
    return row


def outage_probability(M: int, N: int, K: int) -> Fraction:
    """Exact P(#distinct <= K) for N uniform draws from M values:
    sum over k <= K of C(M, k) S(N, k) k! / M^N."""
    s = stirling2_row(N)
    hits = sum(
        math.comb(M, k) * s[k] * math.factorial(k) for k in range(min(K, N, M) + 1)
    )
    return Fraction(hits, M**N)


def distinct_moments(M: int, N: int) -> tuple[float, float]:
    """Closed-form mean and variance of the distinct count:
    E = M (1 - (1-1/M)^N), E[D(D-1)] = M (M-1) (1 - 2 (1-1/M)^N + (1-2/M)^N)."""
    miss1 = (1.0 - 1.0 / M) ** N
    miss2 = (1.0 - 2.0 / M) ** N
    mean = M * (1.0 - miss1)
    falling = M * (M - 1) * (1.0 - 2.0 * miss1 + miss2)
    return mean, falling + mean - mean * mean


def _entropy(x: float) -> float:
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log1p(-x)


def exponent_limit(c: float, delta: float) -> float:
    """f(c, delta) = -c log r - H(delta) + r H(delta / r), with r the root of
    r (1 - e^(-c/r)) = delta found by Newton steps kept inside [delta, 1]."""
    if -math.expm1(-c) <= delta:
        return 0.0
    lo, hi, r = delta, 1.0, 1.0
    for _ in range(200):
        e = math.exp(-c / r)
        g = r * (1.0 - e) - delta
        if g > 0:
            hi = r
        else:
            lo = r
        slope = 1.0 - e - (c / r) * e
        step = r - g / slope if slope > 0 else 0.5 * (lo + hi)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - r) <= 1e-16 * r:
            break
        r = step
    return -c * math.log(r) - _entropy(delta) + r * _entropy(delta / r)


def index_rows(codewords: list) -> np.ndarray:
    """J x M molecule matrix of an index codebook read from its JSON form
    (lists of [molecule, multiplicity]); row order of molecules is group order."""
    return np.array([[mol for mol, _ in cw] for cw in codewords], dtype=np.int64)


def one_per_group(rows: np.ndarray, group_size: int) -> bool:
    """Row entry g lies in group g, [g * group_size, (g + 1) * group_size)."""
    return bool((rows // group_size == np.arange(rows.shape[1])).all())


def max_agreement(rows: np.ndarray) -> int:
    """Largest number of positions where two rows agree: for index codebooks,
    the maximum pairwise multiset intersection."""
    best = 0
    for i in range(len(rows) - 1):
        best = max(best, int((rows[i + 1 :] == rows[i]).sum(axis=1).max()))
    return best


def _log_or_floor(x: float) -> float:
    return math.log(x) if x > 0 else float("-inf")


def k2_forced(M: int, J: int, inner: int) -> int:
    """floor(log(J/2) / (alpha log M)) with alpha = log(inner) / log(M)."""
    alpha = math.log(inner) / math.log(M)
    return math.floor((math.log(J) - math.log(2.0)) / (alpha * math.log(M)) + 1e-9)


def log_lower_bound(kind: str, p: float, M: int, N: int, K2: int) -> float:
    """Closed-form lower bound on log P_e* for the optimal decoder:
    (1/4) max(p, K2/M)^N, with p = 0 for the error-free model, and the paired
    attack term (1/2) (p (1-p) / 2)^(N/2) joining it for the adversarial one."""
    noise = p if kind in ("erasure", "random") else 0.0
    lower = math.log(0.25) + N * _log_or_floor(max(noise, K2 / M))
    if kind == "adversarial":
        attack = math.log(0.5) + (N / 2.0) * _log_or_floor(p * (1.0 - p) / 2.0)
        lower = max(lower, attack)
    return lower


def consistent_with_lower(p_hat: float, std_err: float, trials: int, lower: float) -> bool:
    """An estimate sits above a lower bound when log p_hat >= lower - 4 sigma
    (in log scale); with no errors seen the bound must lie below log(4/trials)."""
    if p_hat > 0:
        return math.log(p_hat) >= lower - 4.0 * std_err / p_hat
    return lower <= math.log(4.0 / trials)


def within_4_sigma(p_hat: float, p_ref: float, trials: int) -> bool:
    return abs(p_hat - p_ref) <= 4.0 * math.sqrt(p_ref * (1.0 - p_ref) / trials)


def trials_for_10pct(p_ref: float) -> int:
    """Plain Monte-Carlo trials for 10 % relative standard error at p_ref."""
    return math.ceil((1.0 - p_ref) / (0.01 * p_ref))
