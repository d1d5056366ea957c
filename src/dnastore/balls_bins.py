"""Exact and Monte-Carlo laws of the number of distinct values seen when
sampling uniformly with replacement (balls and bins occupancy).

All probabilities are handled in the natural-log domain.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

LOG_ZERO = float("-inf")

# default resource guard on the occupancy DP (N * M cells)
DEFAULT_CELL_CAP = 100_000_000

# bytes of int64 flat index per row block of distinct_per_row's wide scatter
_SCATTER_BYTES = 1 << 22

# trials per Monte-Carlo chunk; fixed so that results are independent of the
# worker count (each chunk derives its stream from (seed, chunk index))
_CHUNK_TRIALS = 1 << 14

_MASK64 = (1 << 64) - 1

# below this surviving mass, the alternating surjection series has lost too
# many leading digits and the exact integer path takes over
_CANCEL_FLOOR = 1e-3


def _log_sum_exp(values) -> float:
    m = max(values, default=LOG_ZERO)
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class OccupancyQuery:
    """P(#distinct <= K) when N balls fall uniformly into M bins."""

    N: int
    M: int
    K: int

    def __post_init__(self):
        if self.M < 1:
            raise DomainError("M must be a positive integer")
        if self.N < 0:
            raise DomainError("N must be non-negative")
        if not 0 <= self.K <= self.M:
            raise DomainError("K must lie in [0, M]")


@dataclass(frozen=True, eq=False)
class DistinctCountDistribution:
    """Exact log-pmf of the number of distinct values among N draws from M."""

    M: int
    N: int
    log_pmf: np.ndarray  # length min(N, M) + 1; entry k = log P(#distinct = k)

    def __post_init__(self):
        self.log_pmf.setflags(write=False)
        total = _log_sum_exp(self.log_pmf.tolist())
        if abs(total) > 1e-9:
            raise DomainError(f"pmf does not normalize: log-sum = {total}")

    def log_cdf(self, K: int) -> float:
        """log P(#distinct <= K); exactly 0.0 once K >= min(N, M)."""
        if K < 0:
            return LOG_ZERO
        if K >= len(self.log_pmf) - 1:
            return 0.0
        return min(0.0, _log_sum_exp(self.log_pmf[: K + 1].tolist()))

    def pmf(self) -> np.ndarray:
        return np.exp(self.log_pmf)


def distinct_count_dp(
    M: int, N: int, cell_cap: int = DEFAULT_CELL_CAP
) -> DistinctCountDistribution:
    """Exact distinct-count law via the one-step occupancy recurrence
    P_{t+1}(k) = P_t(k) * k/M + P_t(k-1) * (M-k+1)/M, run in log domain.

    O(N * min(N, M)) time; guarded by cell_cap on N * M.
    """
    if M < 1:
        raise DomainError("M must be a positive integer")
    if N < 0:
        raise DomainError("N must be non-negative")
    if N * M > cell_cap:
        raise CapacityError(
            f"occupancy DP needs N*M = {N * M} cells, above the cap {cell_cap}"
        )
    kmax = min(N, M)
    log_p = np.full(kmax + 1, LOG_ZERO)
    log_p[0] = 0.0
    if N == 0:
        return DistinctCountDistribution(M, N, log_p)
    ks = np.arange(kmax + 1)
    with np.errstate(divide="ignore"):
        log_stay = np.log(ks / M)  # next ball repeats one of k seen values
        log_grow = np.log((M - ks + 1) / M)  # next ball is new, k-1 -> k
    for _ in range(N):
        shifted = np.concatenate(([LOG_ZERO], log_p[:-1] + log_grow[1:]))
        log_p = np.logaddexp(log_p + log_stay, shifted)
    return DistinctCountDistribution(M, N, log_p)


@functools.lru_cache(maxsize=512)
def _cached_dp(M: int, N: int, cell_cap: int) -> DistinctCountDistribution:
    return distinct_count_dp(M, N, cell_cap)


def p_occupancy(query: OccupancyQuery, cell_cap: int = DEFAULT_CELL_CAP) -> float:
    """log P(#distinct <= K), from the exact DP."""
    return _cached_dp(query.M, query.N, cell_cap).log_cdf(query.K)


@functools.lru_cache(maxsize=200_000)
def q_surjection(N: int, K: int) -> float:
    """log probability that N balls leave none of K bins empty.

    Inclusion-exclusion over empty-bin sets, accumulated with a signed
    log-sum-exp.  The alternating series cancels catastrophically when N is
    close to K, so when less than _CANCEL_FLOOR of the leading term survives
    the sum is redone exactly over big integers.
    """
    if K < 1:
        raise DomainError("K must be a positive integer")
    if N < K:
        return LOG_ZERO
    log_k = math.log(K)
    terms = [
        (_log_comb(K, j) + N * (math.log(K - j) - log_k), 1.0 if j % 2 == 0 else -1.0)
        for j in range(K)  # the j = K term is exactly zero
    ]
    m = max(t for t, _ in terms)
    acc = math.fsum(s * math.exp(t - m) for t, s in terms)
    if acc > _CANCEL_FLOOR:
        return min(0.0, m + math.log(acc))
    total = sum(
        (-1 if j % 2 else 1) * math.comb(K, j) * (K - j) ** N for j in range(K)
    )
    return min(0.0, math.log(total) - N * log_k)


def p_via_identity(query: OccupancyQuery) -> float:
    """log P(#distinct <= K) by summing exact-occupancy slices
    C(M,i) * (i/M)^N * q(N,i) over i = 0..K.

    Independent of the DP route; the two must agree.
    """
    N, M, K = query.N, query.M, query.K
    log_m = math.log(M)
    terms = []
    if N == 0:
        terms.append(0.0)  # the i = 0 slice: no ball lands anywhere
    for i in range(1, K + 1):
        lq = q_surjection(N, i)
        if lq == LOG_ZERO:
            continue
        terms.append(_log_comb(M, i) + N * (math.log(i) - log_m) + lq)
    return min(0.0, _log_sum_exp(terms))


@dataclass(frozen=True, eq=False)
class DistinctCountSample:
    """Empirical CDF of the distinct count, with per-point standard errors."""

    M: int
    N: int
    trials: int
    seed: int
    counts: np.ndarray  # counts[k] = trials that saw exactly k distinct
    cdf: np.ndarray
    std_err: np.ndarray


def row_bits(values: np.ndarray) -> np.ndarray:
    """One uint64 word per row of values (B x N): the OR of bit v for each
    entry v.  Entries of 64 or more set no bit (numpy shifts them out)."""
    bits = np.left_shift(np.uint64(1), values, dtype=np.uint64, casting="unsafe")
    return np.bitwise_or.reduce(bits, axis=1)


def distinct_per_row(values: np.ndarray, width: int) -> np.ndarray:
    """Number of distinct entries in each row of values (B x N, every entry
    in [0, width)).

    Up to 64 bins, a row ORs one uint64 bit per entry and counts the set
    bits, which needs neither random writes nor a B x width array; wider
    rows scatter into a flat bool array of one byte per bin through an int64
    flat index, in row blocks whose index fits in _SCATTER_BYTES.  Either
    way the work array holds 8 bytes per entry."""
    if width <= 64:
        return np.bitwise_count(row_bits(values)).astype(np.intp)
    B = values.shape[0]
    step = max(1, _SCATTER_BYTES // (8 * max(values.shape[1], 1)))
    if B > step:
        blocks = [distinct_per_row(values[r : r + step], width) for r in range(0, B, step)]
        return np.concatenate(blocks)
    flat = values + (np.arange(B, dtype=np.int64) * width)[:, None]
    seen = np.zeros(B * width, dtype=bool)
    seen[flat] = True
    return np.count_nonzero(seen.reshape(B, width), axis=1)


def _sample_chunk(args) -> np.ndarray:
    M, N, seed, chunk_index, size = args
    key = ((seed & _MASK64) << 64) | chunk_index
    rng = np.random.Generator(np.random.Philox(key=key))
    # on Philox, int32 draws give the values of int64 draws and leave the
    # generator in the same state for any M below 2^31; the cell cap keeps
    # M below 1e8
    draws = rng.integers(0, M, size=(size, N), dtype=np.int32)
    return np.bincount(distinct_per_row(draws, M), minlength=min(N, M) + 1)


def sample_distinct_count(
    M: int, N: int, trials: int, seed: int, workers: int = 1
) -> DistinctCountSample:
    """Unbiased Monte-Carlo estimate of P(#distinct <= K) for every K at once.

    Trials are split into fixed-size chunks whose streams depend only on
    (seed, chunk index), so results are reproducible and independent of the
    worker count; chunk tallies merge by summation.

    A chunk of B = min(trials, 2^14) trials holds B x N int32 draws, up to 8
    bytes per draw in distinct_per_row and, above 64 bins, one bool byte per
    bin: at most B * (12 N + M) bytes.  When B * (N + M) exceeds DEFAULT_CELL_CAP
    cells the call raises CapacityError before it allocates or starts a
    worker.
    """
    if M < 1:
        raise DomainError("M must be a positive integer")
    if N < 0:
        raise DomainError("N must be non-negative")
    if trials < 1:
        raise DomainError("trials must be positive")
    cells = min(trials, _CHUNK_TRIALS) * (N + M)
    if cells > DEFAULT_CELL_CAP:
        raise CapacityError(
            f"a sampling chunk needs {cells} cells, above the cap {DEFAULT_CELL_CAP}"
        )
    specs = []
    done = 0
    idx = 0
    while done < trials:
        size = min(_CHUNK_TRIALS, trials - done)
        specs.append((M, N, seed, idx, size))
        done += size
        idx += 1
    if workers > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sample_chunk, specs))
    else:
        parts = [_sample_chunk(s) for s in specs]
    counts = np.sum(parts, axis=0)
    cdf = np.cumsum(counts) / trials
    std_err = np.sqrt(cdf * (1.0 - cdf) / trials)
    return DistinctCountSample(M, N, trials, seed, counts, cdf, std_err)


def empirical_exponent(
    c: float, delta: float, M_grid, cell_cap: int = DEFAULT_CELL_CAP
) -> list[float]:
    """Finite-M exponents -(1/M) log p(cM, M, delta*M) along M_grid.

    cM and delta*M are rounded half-up and clamped to at least 1, so the
    sequence is well defined on every grid point; used to check convergence
    toward the closed-form exponent.
    """
    if not c > 0:
        raise DomainError("coverage depth c must be positive")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    out = []
    for M in M_grid:
        if M < 1:
            raise DomainError("grid entries must be positive integers")
        N = max(1, _half_up(c * M))
        K = min(M, max(1, _half_up(delta * M)))
        lp = p_occupancy(OccupancyQuery(N=N, M=M, K=K), cell_cap)
        out.append(-lp / M)
    return out
