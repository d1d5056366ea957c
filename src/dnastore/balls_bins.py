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

# below this surviving mass, the alternating surjection series has lost too
# many leading digits and the exact integer path takes over
_CANCEL_FLOOR = 1e-3

# cells per row block of a chunk in the channel's trial kernel, and 8-byte
# cells per row block of the sampler: a block's arrays stay within a few MB.
# The sampler's counts depend on this constant, as up to 2^16 bins each row
# block drops its unused lanes; the kernel's outputs do not
_BLOCK_CELLS = 1 << 16

# trials per Monte-Carlo chunk; fixed so that results are independent of the
# worker count (each chunk derives its stream from (seed, chunk index))
_CHUNK_TRIALS = 1 << 14

_MASK64 = (1 << 64) - 1


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of Monte-Carlo chunk index: Philox keyed by the low 64
    bits of seed above the index, so its stream depends on nothing else."""
    return np.random.Generator(np.random.Philox(key=((seed & _MASK64) << 64) | index))


def map_chunks(fn, head: tuple, trials: int, chunk: int, workers: int) -> list:
    """fn(head + (index, size)) for each chunk of trials, in chunk order:
    chunks of chunk trials, only the last one short, run on a pool of
    workers processes when there are several workers and chunks."""
    specs = [
        head + (index, min(chunk, trials - start))
        for index, start in enumerate(range(0, trials, chunk))
    ]
    if workers > 1 and len(specs) > 1:
        # one chunk per task: batched chunks leave a worker idle when the
        # batches do not divide evenly among the workers
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, specs))
    return [fn(spec) for spec in specs]


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
    # after t + 1 balls, entries above t + 1 are still log 0
    for t in range(N):
        top = min(t + 1, kmax) + 1
        shifted = np.concatenate(([LOG_ZERO], log_p[: top - 1] + log_grow[1:top]))
        log_p[:top] = np.logaddexp(log_p[:top] + log_stay[:top], shifted)
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
    """Number of distinct entries in each row of values (B x N integers of
    any width and either memory order, every entry in [0, width)): the
    sampler passes the transpose of its (N, b) uint16 lanes or int32 draws,
    the trial kernel int32 or int64 indices.

    Up to 64 bins, a row ORs one uint64 bit per entry and counts the set
    bits, which needs neither random writes nor a B x width array; wider
    rows scatter into a flat bool array of one byte per bin through an int64
    flat index.  Either way the work array holds 8 bytes per entry, so the
    callers bound it by their row blocks: the trial kernel passes at most
    _BLOCK_CELLS / N rows and the sampler at most 8 _BLOCK_CELLS / (16 N + M)
    rows, or one row where a single trial is larger."""
    if width <= 64:
        return np.bitwise_count(row_bits(values)).astype(np.intp)
    B = values.shape[0]
    flat = values + (np.arange(B, dtype=np.int64) * width)[:, None]
    seen = np.zeros(B * width, dtype=bool)
    seen[flat] = True
    return np.count_nonzero(seen.reshape(B, width), axis=1)


def _uniform_lanes(rng: np.random.Generator, M: int, n: int) -> np.ndarray:
    """n i.i.d. uniform uint16 values in [0, M), 1 <= M <= 2^16, by exact
    rejection (Lemire 2019) on 16-bit lanes of raw Philox words: ceil(n / 4)
    words are cut into four lanes each, low lane first whatever the host's
    byte order; the lanes below top = 2^16 - (2^16 mod M) are kept in order
    and mapped to lane // (top // M).  A shortfall draws ceil(shortfall / 4)
    more words the same way; kept lanes beyond n are dropped."""
    top = (1 << 16) - (1 << 16) % M
    words = rng.bit_generator.random_raw(-(-n // 4))
    lanes = words.astype("<u8", copy=False).view("<u2")
    if top < 1 << 16:
        lanes = lanes[lanes < top]
    # at M = 1, top // M = 2^16 does not fit a lane, and every value is 0
    values = lanes[:n] // (top // M) if M > 1 else np.zeros(n, np.uint16)
    if values.size < n:
        values = np.concatenate((values, _uniform_lanes(rng, M, n - values.size)))
    return values


def _sample_chunk(args) -> np.ndarray:
    """Distinct-count tally of one chunk, in row blocks of `rows` trials.
    Up to 2^16 bins a block of b trials lays b N _uniform_lanes values out
    as (N, b), trial j holding values j, b + j, ..., and counts the
    transpose, whose bit-mask reduce ORs contiguous rows.  Above 2^16 bins
    a block is b x N int32 draws: the values and stream of one whole int64
    draw per chunk."""
    M, N, rows, seed, chunk_index, size = args
    rng = chunk_rng(seed, chunk_index)
    counts = np.zeros(min(N, M) + 1, dtype=np.intp)
    for r in range(0, size, rows):
        b = min(rows, size - r)
        if M <= 1 << 16:
            values = _uniform_lanes(rng, M, b * N).reshape(N, b).T
        else:
            values = rng.integers(0, M, size=(b, N), dtype=np.int32)
        counts += np.bincount(distinct_per_row(values, M), minlength=counts.size)
    return counts


def sample_distinct_count(
    M: int, N: int, trials: int, seed: int, workers: int = 1
) -> DistinctCountSample:
    """Unbiased Monte-Carlo estimate of P(#distinct <= K) for every K at once.

    Trials are split into fixed-size chunks whose streams depend only on
    (seed, chunk index), so results are reproducible and independent of the
    worker count; chunk tallies merge by summation.

    A chunk of up to 2^14 trials is drawn and counted in row blocks of
    b = max(1, 8 * _BLOCK_CELLS // (16 N + M)) trials (see _sample_chunk).
    A block holds its drawn lanes (about twice the values near M = 2^15 + 1,
    where rejection keeps half), the kept lanes and the values at 2 bytes
    each, 8 bytes per value of bit masks or flat index and, above 64 bins,
    one byte per bin: at most b (16 N + M) bytes, within 8 * _BLOCK_CELLS
    (512 KB) unless one trial alone is larger.  The counts depend on b, as
    each block drops its unused kept lanes.  When a row block needs more
    than DEFAULT_CELL_CAP cells of b (N + M), that is when one trial does,
    the call raises CapacityError before it allocates or starts a worker.
    """
    if M < 1:
        raise DomainError("M must be a positive integer")
    if N < 0:
        raise DomainError("N must be non-negative")
    if trials < 1:
        raise DomainError("trials must be positive")
    rows = max(1, 8 * _BLOCK_CELLS // (16 * N + M))
    cells = min(trials, rows) * (N + M)
    if cells > DEFAULT_CELL_CAP:
        raise CapacityError(
            f"a sampling row block needs {cells} cells, above the cap {DEFAULT_CELL_CAP}"
        )
    parts = map_chunks(_sample_chunk, (M, N, rows, seed), trials, _CHUNK_TRIALS, workers)
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
