import concurrent.futures
import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnastore import balls_bins, channel
from dnastore.balls_bins import (
    LOG_ZERO,
    DistinctCountDistribution,
    OccupancyQuery,
    distinct_count_dp,
    distinct_per_row,
    empirical_exponent,
    p_occupancy,
    p_via_identity,
    q_surjection,
    sample_distinct_count,
    sum_chunks,
)
from dnastore.codebook import greedy_index_codebook
from dnastore.errors import CapacityError, DomainError
from dnastore.exponents import ExponentParams, exponent_multinomial
from dnastore.params import ScalingParams


def brute_force_pmf(M, N):
    """Exact distinct-count pmf by enumerating all M^N outcomes."""
    counts = [0] * (min(N, M) + 1)
    for outcome in itertools.product(range(M), repeat=N):
        counts[len(set(outcome))] += 1
    total = M**N
    return [Fraction(c, total) for c in counts]


def q_oracle(N, K):
    """Exact surjection probability as a Fraction."""
    total = sum(
        (-1) ** j * math.comb(K, j) * (K - j) ** N for j in range(K + 1)
    )
    return Fraction(total, K**N)


def log_close(a, b, tol=1e-9):
    if a == LOG_ZERO or b == LOG_ZERO:
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestExactDp:
    def test_no_samples_point_mass(self):
        dist = distinct_count_dp(5, 0)
        assert dist.pmf().tolist() == [1.0]

    def test_two_by_two(self):
        dist = distinct_count_dp(2, 2)
        assert dist.pmf() == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)

    def test_three_by_three(self):
        dist = distinct_count_dp(3, 3)
        assert dist.pmf() == pytest.approx([0.0, 1 / 9, 6 / 9, 2 / 9], abs=1e-12)

    @pytest.mark.parametrize(
        "M,N", [(2, 2), (2, 5), (3, 3), (3, 6), (4, 4), (4, 7)]
    )
    def test_matches_enumeration(self, M, N):
        expected = brute_force_pmf(M, N)
        got = distinct_count_dp(M, N).pmf()
        for k, frac in enumerate(expected):
            assert got[k] == pytest.approx(float(frac), abs=1e-12)

    def test_normalization_and_zero_entry(self):
        for M, N in [(7, 13), (20, 8), (40, 120)]:
            dist = distinct_count_dp(M, N)
            assert np.isneginf(dist.log_pmf[0])
            assert dist.pmf().sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "M,N", [(1, 7), (5, 0), (7, 3), (3, 7), (24, 36), (60, 40), (160, 240)]
    )
    def test_reachable_entries_match_full_recurrence(self, M, N):
        # the DP updates only the counts reachable after t balls; the full
        # recurrence over every entry gives the same bytes
        kmax = min(N, M)
        log_p = np.full(kmax + 1, -np.inf)
        log_p[0] = 0.0
        ks = np.arange(kmax + 1)
        with np.errstate(divide="ignore"):
            log_stay, log_grow = np.log(ks / M), np.log((M - ks + 1) / M)
        for _ in range(N):
            shifted = np.concatenate(([-np.inf], log_p[:-1] + log_grow[1:]))
            log_p = np.logaddexp(log_p + log_stay, shifted)
        assert distinct_count_dp(M, N).log_pmf.tobytes() == log_p.tobytes()

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            distinct_count_dp(100_000, 10_000)
        with pytest.raises(CapacityError):
            distinct_count_dp(10, 10, cell_cap=50)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            distinct_count_dp(0, 5)
        with pytest.raises(DomainError):
            distinct_count_dp(5, -1)

    def test_distribution_validates_normalization(self):
        bad = np.array([math.log(0.5), math.log(0.3)])
        with pytest.raises(DomainError):
            DistinctCountDistribution(2, 1, bad)


class TestCdfQueries:
    def test_k_at_least_min_is_certain(self):
        for N in (1, 5, 9):
            assert p_occupancy(OccupancyQuery(N=N, M=4, K=4)) == 0.0

    def test_single_sample(self):
        assert p_occupancy(OccupancyQuery(N=1, M=6, K=0)) == LOG_ZERO

    def test_two_two_one(self):
        got = p_occupancy(OccupancyQuery(N=2, M=2, K=1))
        assert math.exp(got) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_k(self):
        vals = [p_occupancy(OccupancyQuery(N=12, M=10, K=k)) for k in range(11)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("M,K", [(6, 3), (10, 4), (9, 7)])
    def test_monotone_in_n(self, M, K):
        # more samples cannot make few-distinct outcomes more likely
        vals = [p_occupancy(OccupancyQuery(N=n, M=M, K=K)) for n in range(1, 25)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("M,K,N", [(8, 4, 10), (12, 9, 20), (5, 2, 7)])
    def test_one_step_peeling(self, M, K, N):
        # p(N, M, K) >= p(N-1, M, K) * K/M
        lhs = p_occupancy(OccupancyQuery(N=N, M=M, K=K))
        rhs = p_occupancy(OccupancyQuery(N=N - 1, M=M, K=K)) + math.log(K / M)
        assert lhs >= rhs - 1e-9

    def test_query_validation(self):
        with pytest.raises(DomainError):
            OccupancyQuery(N=3, M=4, K=5)


class TestSurjection:
    def test_single_bin_always_covered(self):
        for N in (1, 3, 17):
            assert q_surjection(N, 1) == 0.0

    def test_fewer_balls_than_bins(self):
        assert q_surjection(1, 2) == LOG_ZERO
        assert q_surjection(0, 1) == LOG_ZERO

    def test_three_balls_two_bins(self):
        assert math.exp(q_surjection(3, 2)) == pytest.approx(0.75, abs=1e-12)

    def test_rejects_zero_bins(self):
        with pytest.raises(DomainError):
            q_surjection(5, 0)

    @given(
        K=st.integers(1, 25),
        extra=st.integers(0, 20),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_exact_rational(self, K, extra):
        N = K + extra
        oracle = q_oracle(N, K)
        got = q_surjection(N, K)
        assert oracle > 0
        expected = math.log(oracle.numerator) - math.log(oracle.denominator)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_heavy_cancellation_case(self):
        # N == K: the alternating series cancels ~20 digits; compare against
        # the closed form K!/K^K
        got = q_surjection(50, 50)
        assert got == pytest.approx(math.lgamma(51) - 50 * math.log(50), rel=1e-12)

    def test_mild_case_float_path(self):
        got = q_surjection(60, 20)
        oracle = q_oracle(60, 20)
        assert got == pytest.approx(
            math.log(oracle.numerator) - math.log(oracle.denominator), abs=1e-12
        )


class TestIdentityRoute:
    def test_total_probability(self):
        for M, N in [(5, 3), (7, 11), (9, 9)]:
            assert abs(p_via_identity(OccupancyQuery(N=N, M=M, K=M))) <= 1e-9

    def test_two_two_one(self):
        got = p_via_identity(OccupancyQuery(N=2, M=2, K=1))
        assert math.exp(got) == pytest.approx(0.5, abs=1e-12)

    def test_matches_dp_spot(self):
        a = p_occupancy(OccupancyQuery(N=15, M=10, K=6))
        b = p_via_identity(OccupancyQuery(N=15, M=10, K=6))
        assert log_close(a, b)

    @pytest.mark.parametrize("M", [1, 2, 5, 9, 12])
    def test_matches_dp_small_grid(self, M):
        for N in range(0, 31):
            for K in range(M + 1):
                a = p_occupancy(OccupancyQuery(N=N, M=M, K=K))
                b = p_via_identity(OccupancyQuery(N=N, M=M, K=K))
                assert log_close(a, b), (M, N, K, a, b)

    @pytest.mark.parametrize("M,N", [(3, 5), (4, 6), (4, 8)])
    def test_matches_enumeration_cdf(self, M, N):
        pmf = brute_force_pmf(M, N)
        acc = Fraction(0)
        for K in range(M + 1):
            if K < len(pmf):
                acc += pmf[K]
            expected = LOG_ZERO if acc == 0 else math.log(acc)
            assert log_close(p_via_identity(OccupancyQuery(N=N, M=M, K=K)), expected, 1e-9)


def one_hot(spec):
    """The size of chunk index at its index, in a vector of n."""
    n, index, size = spec
    tally = np.zeros(n, dtype=np.int64)
    tally[index] = size
    return tally


def one_trial(spec):
    return np.ones(1, dtype=np.int64)


class InlinePool:
    """A stand-in pool that maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestChunks:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_sum_chunks_counts_each_chunk_once(self, data):
        chunk = data.draw(st.integers(1, 6))
        trials = data.draw(st.integers(1, 3 * chunk + 5))
        n = -(-trials // chunk)
        sizes = [chunk] * (n - 1) + [trials - (n - 1) * chunk]
        with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", InlinePool):
            for workers in (1, 2, 3):
                tally = sum_chunks(one_hot, (n,), trials, chunk, workers)
                assert tally.tolist() == sizes

    def test_pool_is_no_wider_than_the_chunks(self, monkeypatch):
        widths = []

        def recording_pool(max_workers):
            widths.append(max_workers)
            return InlinePool(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        assert sum_chunks(one_hot, (2,), 20, 10, 64).tolist() == [10, 10]
        assert sum_chunks(one_hot, (5,), 50, 10, 3).tolist() == [10] * 5
        assert widths == [2, 3]

    def test_memory_does_not_grow_with_the_chunks(self):
        # neither the chunks nor their tallies are listed
        tracemalloc.start()
        try:
            total = sum_chunks(one_trial, (), 200_000, 1, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total.tolist() == [200_000]
        assert peak < 1 << 20

    def test_half_up_names_what_it_cannot_round(self):
        assert balls_bins._half_up(2.5) == 3
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match=str(x)):
                balls_bins._half_up(x)

    def test_import_loads_no_pool(self):
        # the pool's module (and multiprocessing) loads when a pool starts
        code = (
            "import sys, dnastore, dnastore.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)"
        )
        path = [str(Path(balls_bins.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        run = subprocess.run([sys.executable, "-c", code], env=env)
        assert run.returncode == 0


class TestSampling:
    def test_two_by_two_matches_half(self):
        res = sample_distinct_count(2, 2, trials=200_000, seed=11)
        assert abs(res.cdf[1] - 0.5) <= 4.0 * math.sqrt(0.25 / res.trials)

    def test_single_bin(self):
        res = sample_distinct_count(1, 9, trials=1000, seed=0)
        assert res.counts[1] == 1000

    def test_deterministic_and_worker_independent(self):
        a = sample_distinct_count(17, 40, trials=40_000, seed=5)
        b = sample_distinct_count(17, 40, trials=40_000, seed=5)
        c = sample_distinct_count(17, 40, trials=40_000, seed=5, workers=2)
        assert a.counts.tolist() == b.counts.tolist() == c.counts.tolist()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(DomainError, match="workers"):
            sample_distinct_count(17, 40, trials=40_000, seed=5, workers=workers)

    def test_within_four_sigma_of_dp(self):
        M, N = 30, 45
        res = sample_distinct_count(M, N, trials=50_000, seed=123)
        dist = distinct_count_dp(M, N)
        for K in range(min(N, M) + 1):
            truth = math.exp(dist.log_cdf(K))
            sigma = math.sqrt(max(truth * (1 - truth), 1e-12) / res.trials)
            assert abs(res.cdf[K] - truth) <= 4.0 * sigma + 1e-9

    @pytest.mark.parametrize(
        "M,N,trials",
        [
            # 16-bit lanes that are never rejected (top = 2^16), and the int32
            # draws just above them: one short chunk of 1,518 trials
            (1 << 16, 300, balls_bins.DEFAULT_CELL_CAP // ((1 << 16) + 300)),
            ((1 << 16) + 1, 300, balls_bins.DEFAULT_CELL_CAP // ((1 << 16) + 301)),
            # the benchmark's outage headline shape
            (24, 36, 200_000),
        ],
    )
    def test_lane_widths_within_four_sigma_of_dp(self, M, N, trials):
        res = sample_distinct_count(M, N, trials=trials, seed=2_024)
        dist = distinct_count_dp(M, N)
        for K in range(min(N, M) + 1):
            truth = math.exp(dist.log_cdf(K))
            sigma = math.sqrt(max(truth * (1 - truth), 1e-12) / res.trials)
            assert abs(res.cdf[K] - truth) <= 4.0 * sigma + 1e-9, K


def plain_lanes(rng, M, n):
    """The sampler's n uniform values in [0, M), M <= 2^16, spelled out with
    Python integers: raw Philox words are cut into four 16-bit lanes, low
    lane first, by shifts; the lanes below top = 2^16 - 2^16 mod M are kept
    in order and divided by top // M; while values are short, ceil(short / 4)
    more words are drawn, and their kept lanes beyond n are dropped.
    Returns the values and the number of words drawn."""
    top = (1 << 16) - (1 << 16) % M
    kept, words = [], 0
    while len(kept) < n:
        short = n - len(kept)
        raw = rng.bit_generator.random_raw(-(-short // 4)).tolist()
        words += len(raw)
        lanes = [(word >> shift) & 0xFFFF for word in raw for shift in (0, 16, 32, 48)]
        kept += [lane for lane in lanes if lane < top][:short]
    return [lane // (top // M) for lane in kept], words


@functools.lru_cache(maxsize=None)
def reference_counts(M, N, trials, seed, rows=None):
    """Distinct-count tallies of sample_distinct_count computed the plain
    way.  Each chunk's Philox generator draws, up to 2^16 bins, row blocks
    of `rows` trials (by default the sampler's: 8-byte cells of a 2^16-cell
    budget over a trial's 16 N + M bytes; the last block short), each block
    the plain_lanes values of its b trials laid out as N rows of b, trial j
    in column j; above 2^16 bins one whole int64 draw.  Each trial is then
    counted by a bincount over its M bins, in slices of rows whose bins stay
    within 2^20 cells."""
    rows = rows or max(1, 8 * (1 << 16) // (16 * N + M))
    counts = np.zeros(min(N, M) + 1, dtype=np.int64)
    for idx, start in enumerate(range(0, trials, 1 << 14)):
        size = min(1 << 14, trials - start)
        if N == 0:
            counts[0] += size
            continue
        key = ((seed & ((1 << 64) - 1)) << 64) | idx
        rng = np.random.Generator(np.random.Philox(key=key))
        if M <= 1 << 16:
            blocks = []
            for r in range(0, size, rows):
                b = min(rows, size - r)
                values, _ = plain_lanes(rng, M, b * N)
                blocks.append(np.array(values, dtype=np.int64).reshape(N, b).T)
            draws = np.concatenate(blocks)
        else:
            draws = rng.integers(0, M, size=(size, N))
        span = max(1, (1 << 20) // M)
        for r in range(0, size, span):
            block = draws[r : r + span]
            flat = block + np.arange(len(block), dtype=np.int64)[:, None] * M
            bins = np.bincount(flat.ravel(), minlength=len(block) * M)
            distinct = (bins.reshape(len(block), M) > 0).sum(axis=1)
            counts += np.bincount(distinct, minlength=len(counts))[: len(counts)]
    return counts.tolist()


class TestOccupancyKernel:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_distinct_per_row_matches_sets(self, data):
        # both routes: a uint64 bit per bin up to 64 bins, a scatter beyond
        width = data.draw(st.sampled_from([1, 2, 63, 64, 65, 100]) | st.integers(1, 100))
        N = data.draw(st.integers(1, 12))
        row = st.lists(st.integers(0, width - 1), min_size=N, max_size=N)
        rows = data.draw(st.lists(row, min_size=1, max_size=8))
        for dtype in (np.int32, np.int64):
            got = distinct_per_row(np.array(rows, dtype=dtype), width)
            assert got.tolist() == [len(set(r)) for r in rows]

    def test_callers_bound_the_wide_scatter(self, monkeypatch):
        # distinct_per_row builds an 8-byte flat index per entry above 64
        # bins; the kernel's and the sampler's row blocks keep each call
        # within 2^19 entries (4 MB), where one whole chunk is over 2^21.
        # The estimator counts the clean occupancy of wrong trials only, so
        # its model makes every trial wrong: about 72 of 144 reads replaced,
        # and unique_superset finds no codeword covering them
        calls = []

        def recording(values, width):
            calls.append((width, values.size))
            return distinct_per_row(values, width)

        monkeypatch.setattr(balls_bins, "distinct_per_row", recording)
        monkeypatch.setattr(channel, "distinct_per_row", recording)
        sc = ScalingParams(M=72, inner_size=144, N=144, J=20)
        cb = greedy_index_codebook(sc, 71, 20, seed=1, attempt_budget=100)
        dec = channel.DecoderConfig("unique_superset")
        report = channel.estimate_error_probability(
            cb, channel.SequencingErrorModel.random(0.5), dec, 20_000, 3
        )
        assert report.errors == 20_000
        kernel, calls[:] = calls[:], []
        sample_distinct_count(100, 150, trials=(1 << 14) + 5, seed=3)
        for made in (kernel, calls):
            assert made and all(width > 64 for width, _ in made)
            assert sum(size for _, size in made) > 1 << 21
            assert max(size for _, size in made) <= 1 << 19

    def test_distinct_per_row_edges(self):
        assert distinct_per_row(np.zeros((3, 5), dtype=np.int32), 1).tolist() == [1] * 3
        one = np.array([[4], [0], [2]], dtype=np.int32)
        assert distinct_per_row(one, 5).tolist() == [1, 1, 1]
        for width in (3, 65):
            empty = np.zeros((2, 0), dtype=np.int32)
            assert distinct_per_row(empty, width).tolist() == [0, 0]
        top = np.array([[63, 0, 63], [64, 64, 1]], dtype=np.int32)
        assert distinct_per_row(top[:1], 64).tolist() == [2]
        assert distinct_per_row(top, 65).tolist() == [2, 2]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "M,N", [(1, 9), (2, 2), (17, 40), (24, 36), (500, 30), (5, 0), (70_000, 3)]
    )
    def test_sampler_matches_int64_bincount_reference(self, M, N, workers):
        # two chunks, the last one short; above 2^16 bins one short chunk
        # keeps the reference's bincounts small
        trials = min((1 << 14) + 1_234, balls_bins.DEFAULT_CELL_CAP // (N + M))
        res = sample_distinct_count(M, N, trials=trials, seed=31, workers=workers)
        assert res.counts.tolist() == reference_counts(M, N, trials, 31)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("M,N", [(1, 9), (5, 7), (24, 37), (500, 31), (80_000, 3)])
    def test_sampler_row_blocks_match_one_draw(self, M, N, rows):
        # blocks of one row, and of three (which divide no chunk here): up
        # to 2^16 bins the counts are those of the plain lane loop run once
        # per block of the same size, every trial counted once; above, those
        # of one whole int64 draw whatever the blocks
        trials = min(1_000 + (1 << 14), balls_bins.DEFAULT_CELL_CAP // (N + M))
        # the budget whose 8-byte cells hold `rows` trials of 16 N + M bytes
        budget = -(-rows * (16 * N + M) // 8)
        with mock.patch.object(balls_bins, "_BLOCK_CELLS", budget):
            res = sample_distinct_count(M, N, trials=trials, seed=17)
        assert res.counts.tolist() == reference_counts(M, N, trials, 17, rows)
        assert res.counts.sum() == trials

    @pytest.mark.parametrize("n", [0, 1, 5, 4097])
    @pytest.mark.parametrize("M", [1, 2, 3, 24, 255, 256, 257, (1 << 15) + 1, 1 << 16])
    def test_uniform_lanes_match_the_plain_lane_loop(self, M, n):
        def generator():
            return np.random.Generator(np.random.Philox(key=(5 << 64) | M))

        rng, plain, fresh = generator(), generator(), generator()
        got = balls_bins._uniform_lanes(rng, M, n)
        expect, words = plain_lanes(plain, M, n)
        assert got.dtype == np.uint16 and got.tolist() == expect
        # the helper drew exactly the plain loop's words
        assert rng.bit_generator.random_raw() == fresh.bit_generator.random_raw(words + 1)[-1]
        if M & (M - 1) == 0:
            # top = 2^16: no lane is rejected, one word gives four values
            assert words == -(-n // 4)
        if M == (1 << 15) + 1 and n == 4_097:
            # top = 32,769 keeps about half the lanes, so the first
            # ceil(n / 4) words fall short and refills draw about as many
            assert 0.9 * n / 2 < words < 1.2 * n / 2

    def test_uniform_lanes_histogram_within_four_sigma(self):
        n, M = 240_000, 24
        values = balls_bins._uniform_lanes(balls_bins.chunk_rng(7, 0), M, n)
        hist = np.bincount(values, minlength=M)
        assert hist.size == M and hist.sum() == n
        sigma = math.sqrt(n / M * (1 - 1 / M))
        assert np.all(np.abs(hist - n / M) <= 4 * sigma), hist.tolist()

    @pytest.mark.parametrize("M", [1, 24, 4096, (1 << 30) + 3])
    def test_int32_row_blocks_keep_one_draw(self, M):
        # the kernel's blocks, and the sampler's above 2^16 bins: consecutive
        # int32 draws of odd row length on Philox give the values and the
        # stream of one whole draw
        def generator():
            return np.random.Generator(np.random.Philox(key=(7 << 64) | 2))

        whole, blocked = generator(), generator()
        expect = whole.integers(0, M, size=(23, 13), dtype=np.int32)
        got = np.concatenate(
            [blocked.integers(0, M, size=(min(5, 23 - r), 13), dtype=np.int32)
             for r in range(0, 23, 5)]
        )
        assert np.array_equal(got, expect)
        assert whole.integers(0, 1 << 62) == blocked.integers(0, 1 << 62)

    @pytest.mark.parametrize("M", [1, 2, 24, 64, 4096, (1 << 31) - 1])
    def test_int32_draws_keep_the_int64_stream(self, M):
        # the trial kernel, and the sampler above 2^16 bins, draw int32 in
        # place of int64 on Philox; the kernel's property tests drive it with
        # default_rng
        for generator in (
            lambda: np.random.Generator(np.random.Philox(key=(9 << 64) | 3)),
            lambda: np.random.default_rng(93),
        ):
            a, b = generator(), generator()
            wide = a.integers(0, M, size=(257, 13))
            narrow = b.integers(0, M, size=(257, 13), dtype=np.int32)
            assert np.array_equal(wide, narrow)
            # an odd count of 32-bit words leaves half a word buffered; the
            # next draws of either width start from it alike
            assert np.array_equal(a.integers(0, M, 5), b.integers(0, M, 5, dtype=np.int32))
            assert np.array_equal(a.random(17), b.random(17))

    def test_oversized_chunk_raises_before_allocating(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        tracemalloc.start()
        try:
            # one trial alone breaks the cap, by its draws or by its bins
            shapes = ((10, 10**8, 1 << 14), (10**8 + 1, 1, 16), (5 * 10**7, 5 * 10**7 + 1, 16))
            for M, N, trials in shapes:
                for workers in (1, 2):
                    with pytest.raises(CapacityError):
                        sample_distinct_count(M, N, trials, seed=0, workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the cap counts one row block: few trials may be wide, and a run
        # may hold more cells than the cap in all
        assert sample_distinct_count(2_000, 3_000, trials=30, seed=0).counts.sum() == 30
        res = sample_distinct_count(1, 99, trials=1_100_000, seed=0)
        assert res.counts.tolist() == [0, 1_100_000]

    def test_wide_chunks_run_in_row_blocks(self):
        # 2,000 trials of 70,003 cells are 1.4e8 cells in one chunk, above
        # the cap, but a row block of 7 trials holds under 5e5
        res = sample_distinct_count(70_000, 3, trials=2_000, seed=0)
        assert res.counts.tolist() == reference_counts(70_000, 3, 2_000, 0)


class TestEmpiricalExponent:
    def test_converges_toward_limit(self):
        f = exponent_multinomial(ExponentParams(1.5, 0.5)).f_value
        seq = empirical_exponent(1.5, 0.5, [50, 100, 200, 400])
        gaps = [abs(x - f) for x in seq]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_zero_exponent_region_shrinks(self):
        seq = empirical_exponent(1.5, 0.9, [50, 100, 200, 400])
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert seq[-1] < 0.02

    def test_positive_low_coverage(self):
        seq = empirical_exponent(0.5, 0.3, [50, 100, 200])
        assert all(x > 0 for x in seq)
        gaps = [abs(a - b) for a, b in zip(seq, seq[1:])]
        assert gaps[0] > gaps[-1]

    def test_capacity_guard_propagates(self):
        with pytest.raises(CapacityError):
            empirical_exponent(1.5, 0.5, [200], cell_cap=100)
