"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its runtime (run with -s to see them inline)."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dnastore.balls_bins import (
    LOG_ZERO,
    _log_comb,
    distinct_count_dp,
    empirical_exponent,
    p_occupancy,
    p_via_identity,
    q_surjection,
    sample_distinct_count,
    OccupancyQuery,
)
from dnastore.channel import (
    DecoderConfig,
    SequencingErrorModel,
    bound_erasure,
    bound_no_seq,
    bound_random,
    estimate_error_probability,
    run_trial,
)
from dnastore.cli import fig1_default_grid
from dnastore.codebook import (
    Codebook,
    Codeword,
    greedy_index_codebook,
    k2_lower_bound,
    k3_lower_bound,
    max_pairwise_intersection,
)
from dnastore.exponents import (
    ExponentParams,
    exponent_multinomial,
    exponent_poisson,
)
from dnastore.params import ScalingParams


def _finish(num, started, budget, description):
    elapsed = time.perf_counter() - started
    ok = elapsed <= budget
    print(
        f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.2f}s, budget {budget}s): {description}"
    )
    assert ok, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def _fail(num, started, description, exc):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num:02d} FAIL ({elapsed:.2f}s): {description} -- {exc}")


def criterion(num, budget, description):
    def deco(fn):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except AssertionError as exc:
                _fail(num, started, description, exc)
                raise
            _finish(num, started, budget, description)

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


@criterion(1, 1.0, "boundary exponent f(c, 1 - e^-c) = 0 within 1e-9")
def test_criterion_01_boundary_zero():
    for c in (0.1, 0.5, 1.0, 1.5, 5.0):
        delta = 1.0 - math.exp(-c)
        res = exponent_multinomial(ExponentParams(c, delta))
        assert abs(res.f_value) <= 1e-9, (c, res)


@criterion(2, 5.0, "default-grid dominance, tiny-delta Poisson limit, gap decay")
def test_criterion_02_figure_grid():
    cs, deltas = fig1_default_grid()
    assert set(cs) == {0.5, 1.5}
    for c in cs:
        for delta in deltas:
            params = ExponentParams(c, delta)
            f_mult = exponent_multinomial(params).f_value
            assert f_mult >= exponent_poisson(params) - 1e-12, (c, delta)
    assert exponent_poisson(ExponentParams(1.5, 1e-9)) == pytest.approx(1.5, abs=1e-6)
    probe = (1e-2, 1e-4, 1e-6, 1e-8)
    assert all(d in deltas for d in probe)
    gaps = [
        abs(
            exponent_multinomial(ExponentParams(1.5, d)).f_value
            - 1.5 * math.log(1.0 / d)
        )
        for d in probe
    ]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


@criterion(3, 60.0, "DP/identity equality on the full grid + enumeration oracle")
def test_criterion_03_exact_identity():
    # full grid: M <= 50, N <= 150, all K, within 1e-9 relative log-probability
    worst = 0.0
    for M in range(1, 51):
        log_m = math.log(M)
        for N in range(0, 151):
            dist = distinct_count_dp(M, N)
            kmax = min(N, M)
            dp_cdf = np.minimum(np.logaddexp.accumulate(dist.log_pmf), 0.0)
            dp_full = np.concatenate([dp_cdf, np.zeros(M - kmax)])
            terms = np.full(M + 1, LOG_ZERO)
            if N == 0:
                terms[0] = 0.0
            for i in range(1, M + 1):
                lq = q_surjection(N, i)
                if lq != LOG_ZERO:
                    terms[i] = _log_comb(M, i) + N * (math.log(i) - log_m) + lq
            id_cdf = np.minimum(np.logaddexp.accumulate(terms), 0.0)
            both_zero = np.isneginf(dp_full) & np.isneginf(id_cdf)
            with np.errstate(invalid="ignore"):
                rel = np.abs(dp_full - id_cdf) / np.maximum(
                    1.0, np.maximum(np.abs(dp_full), np.abs(id_cdf))
                )
            rel = np.where(both_zero, 0.0, rel)
            assert not np.isnan(rel).any(), (M, N)
            worst = max(worst, float(rel.max()))
    assert worst <= 1e-9, worst

    # the public entry points agree with each other on sampled queries
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(200):
        M = int(rng.integers(1, 51))
        N = int(rng.integers(0, 151))
        K = int(rng.integers(0, M + 1))
        q = OccupancyQuery(N=N, M=M, K=K)
        a, b = p_occupancy(q), p_via_identity(q)
        if a == LOG_ZERO or b == LOG_ZERO:
            assert a == b
        else:
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    # enumeration oracle: every outcome for M <= 4, N <= 8
    for M in range(1, 5):
        for N in range(0, 9):
            counts = [0] * (min(N, M) + 1)
            for outcome in itertools.product(range(M), repeat=N):
                counts[len(set(outcome))] += 1
            total = M**N
            pmf = distinct_count_dp(M, N).pmf()
            acc = Fraction(0)
            for k, cnt in enumerate(counts):
                assert pmf[k] == pytest.approx(cnt / total, abs=1e-12)
                acc += Fraction(cnt, total)
                expected = LOG_ZERO if acc == 0 else math.log(acc)
                got = p_via_identity(OccupancyQuery(N=N, M=M, K=k))
                if expected == LOG_ZERO:
                    assert got == LOG_ZERO
                else:
                    assert got == pytest.approx(expected, abs=1e-9)


@criterion(4, 60.0, "finite-M exponents converge to f(1.5, 0.5), final gap <= 0.05")
def test_criterion_04_exponent_convergence():
    f = exponent_multinomial(ExponentParams(1.5, 0.5)).f_value
    assert f == pytest.approx(0.3747, abs=1e-3)
    seq = empirical_exponent(1.5, 0.5, [100, 200, 400, 800, 1600])
    gaps = [abs(x - f) for x in seq]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] <= 0.05, gaps


@criterion(5, 30.0, "empirical CDFs within 4 sigma of the exact DP (20 configs)")
def test_criterion_05_monte_carlo_consistency():
    master = 7
    rng = np.random.Generator(np.random.Philox(key=master))
    for i in range(20):
        M = int(rng.integers(2, 101))
        N = int(rng.integers(1, 201))
        res = sample_distinct_count(M, N, trials=100_000, seed=master + 1000 + i)
        dist = distinct_count_dp(M, N)
        for K in range(min(N, M) + 1):
            truth = math.exp(dist.log_cdf(K))
            sigma = math.sqrt(max(truth * (1.0 - truth), 0.0) / res.trials)
            assert abs(res.cdf[K] - truth) <= 4.0 * sigma + 1e-12, (M, N, K)


@criterion(6, 30.0, "greedy codebook: 1000 codewords at cap 12, verified exhaustively")
def test_criterion_06_greedy_codebook():
    scaling = ScalingParams(M=16, inner_size=64, N=32, J=1000)
    cb = greedy_index_codebook(
        scaling, intersection_cap=12, target_J=1000, seed=7, attempt_budget=100_000
    )
    assert len(cb) == 1000
    value, _ = max_pairwise_intersection(cb)
    assert value <= 12


def _soundness_settings():
    # (codebook kwargs, model, decoder) across both decode rules
    fast = dict(M=16, inner_size=256, N=48, J=32)
    slow = dict(M=16, inner_size=256, N=128, J=32)
    dist = DecoderConfig("distinct_intersection", epsilon=0.125)
    mult = DecoderConfig("multiplicity_count", epsilon=0.15, eta=0.5)
    return [
        (fast, SequencingErrorModel.none(), dist),
        (fast, SequencingErrorModel.erasure(0.08), dist),
        (fast, SequencingErrorModel.random(0.05), dist),
        (slow, SequencingErrorModel.none(), mult),
        (slow, SequencingErrorModel.erasure(0.05), mult),
        (slow, SequencingErrorModel.random(0.02), mult),
    ]


@pytest.mark.slow
@criterion(7, 60.0, "conditions-hold => decode-success, zero violations (6 settings)")
def test_criterion_07_guarantee_soundness():
    for kwargs, model, dec in _soundness_settings():
        scaling = ScalingParams(**kwargs)
        cb = greedy_index_codebook(scaling, 3, scaling.J, seed=9, attempt_budget=50_000)
        hits = 0
        for seed in range(10_000):
            out = run_trial(cb, seed % len(cb), model, dec, seed)
            if all(out.guarantee_flags):
                hits += 1
                assert out.success, (kwargs, model.kind, dec.rule, seed, out)
        assert hits > 0, (kwargs, model.kind, dec.rule)


@criterion(8, 1.0, "pigeonhole separation over all 252 five-subsets of 10 multisets")
def test_criterion_08_pigeonhole_k2():
    codewords = [
        Codeword.from_molecules(pair)
        for pair in itertools.combinations_with_replacement(range(4), 2)
    ]
    assert len(codewords) == 10
    bound = k2_lower_bound(M=2, J=10, alpha=2.0)
    assert bound == 1
    for subset in itertools.combinations(codewords, 5):
        best = max(
            a.intersection_size(b) for a, b in itertools.combinations(subset, 2)
        )
        assert best >= bound, subset


@criterion(9, 10.0, "averaging bound: 1000 random no-multiset codebooks all meet K3")
def test_criterion_09_plotkin_k3():
    bound = k3_lower_bound(M=8, J=18, alpha=4.0 / 3.0)
    assert bound == pytest.approx(3.0, abs=1e-9)
    need = math.ceil(bound - 1e-9)
    rng = np.random.Generator(np.random.Philox(key=99))
    for _ in range(1000):
        masks = set()
        while len(masks) < 9:
            subset = rng.choice(16, size=8, replace=False)
            masks.add(int(np.bitwise_or.reduce(1 << subset.astype(np.int64))))
        masks = list(masks)
        best = max(
            (a & b).bit_count()
            for a, b in itertools.combinations(masks, 2)
        )
        assert best >= need, masks


@pytest.mark.slow
@criterion(10, 120.0, "paired attack at 1e7 trials: lower bound and coin-flip bad events")
def test_criterion_10_adversarial_attack():
    scaling = ScalingParams(M=8, inner_size=16, N=6, J=2)
    cb = Codebook(
        scaling,
        (Codeword.from_molecules(range(8)), Codeword.from_molecules(range(8, 16))),
        index_based=False,
    )
    p = 0.3
    trials = 10_000_000
    rep = estimate_error_probability(
        cb,
        SequencingErrorModel.adversarial(p, (0, 1)),
        DecoderConfig("multiplicity_count"),
        trials,
        master_seed=5,
    )
    bound = 0.5 * (p * (1 - p) / 2.0) ** 3  # = 0.5 * 0.105^3
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert rep.p_hat >= bound - 4.0 * sigma, (rep.p_hat, bound)
    bad = rep.attack_stats["bad_events"]
    errs = rep.attack_stats["bad_event_errors"]
    assert bad > 0
    assert errs / bad >= 0.5 - 4.0 * math.sqrt(0.25 / bad), (errs, bad)


def _bracketing_runs(trials, master_seed, workers=1):
    scaling = ScalingParams(M=16, inner_size=64, N=32, J=64)
    cb = greedy_index_codebook(
        scaling, intersection_cap=12, target_J=64, seed=20, attempt_budget=100_000
    )
    K1 = cb.max_intersection()[0]
    K2 = k2_lower_bound(16, 2 * 64, scaling.alpha)
    dec = DecoderConfig("distinct_intersection")
    p = 0.5
    runs = [
        ("none", SequencingErrorModel.none(), bound_no_seq(scaling, K1, K2)[0]),
        ("erasure", SequencingErrorModel.erasure(p), bound_erasure(scaling, K1, K2, p)[0]),
        ("random", SequencingErrorModel.random(p),
         bound_random(scaling, K1, p, J=2 * 64, K2=K2)[0]),
    ]
    reports = {}
    for name, model, lower in runs:
        rep = estimate_error_probability(cb, model, dec, trials, master_seed, workers)
        reports[name] = (rep, lower)
    return reports


@pytest.mark.slow
@criterion(11, 120.0, "universal lower bounds bracket 1e6-trial estimates (3 models)")
def test_criterion_11_bound_bracketing():
    reports = _bracketing_runs(trials=1_000_000, master_seed=33)
    measurable = 0
    for name, (rep, lower) in reports.items():
        if rep.p_hat > 0:
            measurable += 1
            sigma_log = rep.std_err / rep.p_hat
            assert math.log(rep.p_hat) >= lower - 4.0 * sigma_log, (name, rep.p_hat)
        else:
            # zero observed errors: the bound must sit below the upper
            # confidence limit of the estimate
            assert lower <= math.log(4.0 / rep.trials), (name, lower)
    assert measurable >= 2  # erasure and random runs see real errors


@pytest.mark.slow
@criterion(12, 240.0, "criteria 5-11 reproduce exactly, independent of workers")
def test_criterion_12_determinism():
    # Monte-Carlo occupancy sampling (criterion 5 machinery)
    a = sample_distinct_count(43, 120, trials=100_000, seed=7)
    b = sample_distinct_count(43, 120, trials=100_000, seed=7)
    c = sample_distinct_count(43, 120, trials=100_000, seed=7, workers=2)
    assert a.counts.tolist() == b.counts.tolist() == c.counts.tolist()

    # greedy construction (criteria 6/11 machinery)
    scaling = ScalingParams(M=16, inner_size=64, N=32, J=200)
    cb1 = greedy_index_codebook(scaling, 12, 200, seed=7, attempt_budget=20_000)
    cb2 = greedy_index_codebook(scaling, 12, 200, seed=7, attempt_budget=20_000)
    assert cb1.codewords == cb2.codewords

    # single-trial outcomes (criterion 7 machinery)
    kwargs, model, dec = _soundness_settings()[1]
    cb = greedy_index_codebook(
        ScalingParams(**kwargs), 3, kwargs["J"], seed=9, attempt_budget=50_000
    )
    runs1 = [run_trial(cb, s % len(cb), model, dec, s) for s in range(300)]
    runs2 = [run_trial(cb, s % len(cb), model, dec, s) for s in range(300)]
    assert runs1 == runs2

    # attack estimator (criterion 10 machinery)
    sc_pair = ScalingParams(M=8, inner_size=16, N=6, J=2)
    pair_cb = Codebook(
        sc_pair,
        (Codeword.from_molecules(range(8)), Codeword.from_molecules(range(8, 16))),
        index_based=False,
    )
    attack = SequencingErrorModel.adversarial(0.3, (0, 1))
    mdec = DecoderConfig("multiplicity_count")
    r1 = estimate_error_probability(pair_cb, attack, mdec, 200_000, 5, workers=1)
    r2 = estimate_error_probability(pair_cb, attack, mdec, 200_000, 5, workers=2)
    r3 = estimate_error_probability(pair_cb, attack, mdec, 200_000, 5, workers=1)
    assert r1.comparable_dict() == r2.comparable_dict() == r3.comparable_dict()

    # bound-bracketing estimates (criterion 11 machinery)
    rep_a = _bracketing_runs(trials=200_000, master_seed=33, workers=1)
    rep_b = _bracketing_runs(trials=200_000, master_seed=33, workers=3)
    for name in rep_a:
        assert (
            rep_a[name][0].comparable_dict() == rep_b[name][0].comparable_dict()
        ), name
        assert rep_a[name][1] == rep_b[name][1]
