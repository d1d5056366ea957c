import gc
import math
import pickle
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnastore import channel, codebook
from dnastore.channel import (
    DecoderConfig,
    SequencingErrorModel,
    adversarial_attack_trial,
    bound_adversarial,
    bound_erasure,
    bound_no_seq,
    bound_random,
    estimate_error_probability,
    run_trial,
)
from dnastore.codebook import Codebook, Codeword, greedy_index_codebook
from dnastore.errors import CapacityError, DomainError
from dnastore.params import ScalingParams


def disjoint_pair_cb(M=8, N=6):
    sc = ScalingParams(M=M, inner_size=2 * M, N=N, J=2)
    a = Codeword.from_molecules(range(M))
    b = Codeword.from_molecules(range(M, 2 * M))
    return Codebook(sc, (a, b), index_based=False)


def overlapping_pair_cb(M=16, N=8):
    # codewords share half their molecules
    sc = ScalingParams(M=M, inner_size=4 * M, N=N, J=2)
    a = Codeword.from_molecules(range(M))
    b = Codeword.from_molecules(range(M // 2, M // 2 + M))
    return Codebook(sc, (a, b), index_based=False)


def cap_codebook(M=16, inner=256, N=48, cap=3, J=32, seed=9):
    sc = ScalingParams(M=M, inner_size=inner, N=N, J=J)
    return greedy_index_codebook(sc, cap, target_J=J, seed=seed, attempt_budget=50_000)


def array_index_codebook(molecules, inner, N, validate_distinct=True):
    """An index codebook built straight from its J x M molecule array, whose
    column g holds molecules of group g (inner // M molecules each)."""
    J, M = molecules.shape
    return Codebook(
        ScalingParams(M=M, inner_size=inner, N=N, J=J),
        index_based=True,
        group_size=inner // M,
        validate_distinct=validate_distinct,
        molecules=molecules,
        mults=np.ones((J, M), dtype=np.int64),
        sizes=np.full(J, M),
    )


def random_index_codebook(M, inner, J, N, seed=5):
    group = inner // M
    rng = np.random.default_rng(seed)
    molecules = rng.integers(0, group, size=(J, M)) + np.arange(M) * group
    return array_index_codebook(molecules, inner, N)


DIST = DecoderConfig("distinct_intersection", epsilon=0.125)
MULT = DecoderConfig("multiplicity_count", epsilon=0.15, eta=0.5)


class TestModelValidation:
    def test_kinds(self):
        with pytest.raises(DomainError):
            SequencingErrorModel("bogus")
        with pytest.raises(DomainError):
            SequencingErrorModel("erasure", p=1.0)
        with pytest.raises(DomainError):
            SequencingErrorModel("none", p=0.1)
        with pytest.raises(DomainError):
            SequencingErrorModel("adversarial", p=0.1)
        with pytest.raises(DomainError):
            SequencingErrorModel.adversarial(0.1, (1, 1))
        with pytest.raises(DomainError):
            SequencingErrorModel("erasure", p=0.1, attack_pair=(0, 1))

    def test_decoder_validation(self):
        with pytest.raises(DomainError):
            DecoderConfig("nope")
        for epsilon in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="epsilon"):
                DecoderConfig("distinct_intersection", epsilon=epsilon)
        with pytest.raises(DomainError):
            DecoderConfig("distinct_intersection", eta=1.0)


class TestRunTrial:
    def test_disjoint_always_succeeds(self):
        cb = disjoint_pair_cb(N=3)
        for seed in range(300):
            out = run_trial(cb, seed % 2, SequencingErrorModel.none(), DIST, seed)
            assert out.success
            assert out.failure_cause == "none"
            assert out.sequencing_errors == 0

    def test_guarantee_implies_success(self):
        cb = cap_codebook()
        for seed in range(400):
            out = run_trial(cb, seed % len(cb), SequencingErrorModel.none(), DIST, seed)
            if all(out.guarantee_flags):
                assert out.success

    def test_erasure_p0_identical_to_none(self):
        cb = overlapping_pair_cb()
        for seed in range(50):
            a = run_trial(cb, 0, SequencingErrorModel.none(), DIST, seed)
            b = run_trial(cb, 0, SequencingErrorModel.erasure(0.0), DIST, seed)
            assert a == b

    def test_deterministic_in_seed(self):
        cb = cap_codebook()
        model = SequencingErrorModel.random(0.1)
        a = run_trial(cb, 3, model, MULT, 1234)
        b = run_trial(cb, 3, model, MULT, 1234)
        assert a == b

    def test_distinct_count_bounded(self):
        cb = cap_codebook(N=48)
        out = run_trial(cb, 0, SequencingErrorModel.none(), DIST, 7)
        assert 1 <= out.distinct_sampled <= min(48, 16)

    def test_erasure_counts_errors(self):
        cb = overlapping_pair_cb()
        p, n, seeds = 0.6, cb.scaling.N, 400
        model = SequencingErrorModel.erasure(p)
        outs = [run_trial(cb, 0, model, DIST, seed) for seed in range(seeds)]
        errors = [out.sequencing_errors for out in outs]
        assert all(0 <= e <= n for e in errors)
        sigma = math.sqrt(n * p * (1 - p) / seeds)
        assert abs(sum(errors) / seeds - p * n) <= 4 * sigma

    def test_failure_cause_priority(self):
        # two codewords sharing 7 of 8 molecules, so every cause turns up
        sc = ScalingParams(M=8, inner_size=16, N=8, J=2)
        a = Codeword.from_molecules(range(8))
        b = Codeword.from_molecules([0, 1, 2, 3, 4, 5, 6, 8])
        cb = Codebook(sc, (a, b), index_based=False)
        models = [
            SequencingErrorModel.none(),
            SequencingErrorModel.erasure(0.3),
            SequencingErrorModel.random(0.3),
            SequencingErrorModel.adversarial(0.3, (0, 1)),
        ]
        seen = set()
        for model in models:
            for rule in channel.DECODER_RULES:
                dec = DecoderConfig(rule, epsilon=0.13)
                for seed in range(400):
                    out = run_trial(cb, seed % 2, model, dec, seed)
                    errors_ok, coverage_ok, _ = out.guarantee_flags
                    if out.decoded_message is None:
                        assert rule == "unique_superset"
                    assert out.success == (out.decoded_message == out.true_message)
                    if out.success:
                        expected = "none"
                    elif out.tie_broken:
                        expected = "tie"
                    elif not coverage_ok:
                        expected = "outage"
                    elif not errors_ok:
                        expected = "sequencing"
                    else:
                        expected = "collision"
                    assert out.failure_cause == expected, (model, rule, seed, out)
                    seen.add(expected)
        assert seen == set(channel.FAILURE_CAUSES)

    def test_message_range_checked(self):
        cb = disjoint_pair_cb()
        with pytest.raises(DomainError):
            run_trial(cb, 2, SequencingErrorModel.none(), DIST, 0)


class TestUniqueSupersetDecoder:
    def test_disjoint_always_succeeds(self):
        cb = disjoint_pair_cb(N=4)
        dec = DecoderConfig("unique_superset")
        for seed in range(100):
            out = run_trial(cb, seed % 2, SequencingErrorModel.none(), dec, seed)
            assert out.success

    def test_foreign_molecules_break_containment(self):
        # half the inner codebook lies outside both codewords, so wild
        # replacements can produce observation sets no codeword contains
        sc = ScalingParams(M=8, inner_size=32, N=4, J=2)
        a = Codeword.from_molecules(range(8))
        b = Codeword.from_molecules(range(8, 16))
        cb = Codebook(sc, (a, b), index_based=False)
        dec = DecoderConfig("unique_superset")
        outs = [
            run_trial(cb, 0, SequencingErrorModel.random(0.9), dec, seed)
            for seed in range(200)
        ]
        failures = [o for o in outs if not o.success]
        assert failures
        assert any(o.decoded_message is None for o in failures)


class TestEstimator:
    def test_disjoint_has_zero_errors(self):
        cb = disjoint_pair_cb(N=4)
        rep = estimate_error_probability(
            cb, SequencingErrorModel.none(), DIST, 20_000, 1
        )
        assert rep.errors == 0
        assert rep.p_hat == 0.0
        assert rep.failure_causes["none"] == 20_000

    def test_single_message_cannot_err(self):
        sc = ScalingParams(M=4, inner_size=8, N=4, J=1)
        cb = Codebook(sc, (Codeword.from_molecules(range(4)),), False)
        rep = estimate_error_probability(
            cb, SequencingErrorModel.random(0.5), MULT, 5_000, 3
        )
        assert rep.p_hat == 0.0

    def test_identical_pair_is_coin_flip(self):
        sc = ScalingParams(M=8, inner_size=16, N=8, J=2)
        cw = Codeword.from_molecules(range(8))
        cb = Codebook(sc, (cw, cw), False, validate_distinct=False)
        rep = estimate_error_probability(
            cb, SequencingErrorModel.none(), DIST, 100_000, 17
        )
        sigma = math.sqrt(0.25 / rep.trials)
        assert abs(rep.p_hat - 0.5) <= 4 * sigma
        assert rep.failure_causes["tie"] == rep.errors

    def test_deterministic_and_worker_independent(self):
        cb = overlapping_pair_cb()
        model = SequencingErrorModel.erasure(0.3)
        a = estimate_error_probability(cb, model, DIST, 30_000, 99, workers=1)
        b = estimate_error_probability(cb, model, DIST, 30_000, 99, workers=1)
        c = estimate_error_probability(cb, model, DIST, 30_000, 99, workers=3)
        assert a.comparable_dict() == b.comparable_dict() == c.comparable_dict()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        cb = overlapping_pair_cb()
        with pytest.raises(DomainError, match="workers"):
            estimate_error_probability(
                cb, SequencingErrorModel.none(), DIST, 1_000, 9, workers=workers
            )

    def test_model_ordering(self):
        # erasures only remove information; the paired attack dominates
        # uniform replacement
        cb = overlapping_pair_cb(M=16, N=8)
        p = 0.35
        trials = 100_000
        p_none = estimate_error_probability(
            cb, SequencingErrorModel.none(), DIST, trials, 5
        ).p_hat
        p_erasure = estimate_error_probability(
            cb, SequencingErrorModel.erasure(p), DIST, trials, 5
        ).p_hat
        p_random = estimate_error_probability(
            cb, SequencingErrorModel.random(p), DIST, trials, 5
        ).p_hat
        p_attack = estimate_error_probability(
            cb, SequencingErrorModel.adversarial(p, (0, 1)), DIST, trials, 5
        ).p_hat
        slack = 4 * math.sqrt(0.5 / trials)
        assert p_none <= p_erasure + slack
        assert p_random <= p_attack + slack

    def test_superset_estimate_ships_the_scan(self, monkeypatch):
        # a loaded codebook carries no scan; a unique_superset estimate scans
        # once up front, so the codebook pickled to pool workers carries it.
        # Two chunks on two workers: no kernel runs in this process
        cb = codebook.codebook_to_dict(cap_codebook(J=8))
        cb = codebook.codebook_from_dict(cb)
        assert cb._max_intersection is None
        sup = DecoderConfig("unique_superset")
        trials = channel._chunk_size(len(cb)) + 1
        model = SequencingErrorModel.none()
        estimate_error_probability(cb, model, sup, trials, 4, workers=2)
        copy = pickle.loads(pickle.dumps(cb))
        assert copy._max_intersection is not None

        def rescan(_):
            raise AssertionError("separation scan repeated")

        monkeypatch.setattr(codebook, "max_pairwise_intersection", rescan)
        assert copy.max_intersection() == cb.max_intersection()

    def test_context_freed_with_its_codebook(self):
        cb = cap_codebook(J=8)
        estimate_error_probability(cb, SequencingErrorModel.none(), DIST, 1_000, 2)
        ctx_ref = weakref.ref(channel._CONTEXTS[cb])
        cb_ref = weakref.ref(cb)
        del cb
        gc.collect()
        assert cb_ref() is None
        assert ctx_ref() is None


ROUTES = ("dense", "sparse")
SCORE_DTYPES = {"dense": np.float32, "sparse": np.int64}


def route_models(J):
    models = [
        SequencingErrorModel.none(),
        SequencingErrorModel.erasure(0.5),
        SequencingErrorModel.erasure(0.95),
        SequencingErrorModel.random(0.5),
    ]
    if J >= 2:
        models.append(SequencingErrorModel.adversarial(0.4, (0, J - 1)))
    return models


@st.composite
def small_codebooks(draw, sizes=st.integers(1, 6)):
    """Index codebooks, or multiset codebooks whose codewords draw molecules
    from narrow windows, so multiplicities exceed 1 and supports differ in
    size; codewords may repeat, so scores tie.  sizes draws J."""
    M = draw(st.integers(2, 6))
    J = draw(sizes)
    N = draw(st.integers(1, 12))
    if draw(st.booleans()):
        group = draw(st.integers(2, 4))
        rows = draw(
            st.lists(
                st.lists(st.integers(0, group - 1), min_size=M, max_size=M),
                min_size=J,
                max_size=J,
            )
        )
        sc = ScalingParams(M=M, inner_size=M * group, N=N, J=J)
        cws = tuple(
            Codeword.from_molecules(g * group + row[g] for g in range(M))
            for row in rows
        )
        return Codebook(sc, cws, True, group_size=group, validate_distinct=False)
    inner = draw(st.integers(M + 1, 3 * M))
    cws = []
    for _ in range(J):
        width = draw(st.integers(1, M))
        low = draw(st.integers(0, inner - width))
        mols = draw(
            st.lists(st.integers(low, low + width - 1), min_size=M, max_size=M)
        )
        cws.append(Codeword.from_molecules(mols))
    sc = ScalingParams(M=M, inner_size=inner, N=N, J=J)
    return Codebook(sc, tuple(cws), False, validate_distinct=False)


class TestScoreRoutes:
    """The sparse (inverted index) and dense (float32 GEMM) score routes
    against each other and against plain loops."""

    @settings(max_examples=100, deadline=None)
    @given(cb=small_codebooks(), B=st.integers(1, 10), data=st.data())
    def test_scores_match_loops(self, cb, B, data):
        ctx = channel._Context(cb)
        N = cb.scaling.N
        # molecule ids up to the erasure sentinel; some rows entirely erased
        reads = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, ctx.inner), min_size=N, max_size=N),
                    min_size=B,
                    max_size=B,
                )
            )
        )
        reads[data.draw(st.lists(st.integers(0, B - 1), max_size=2))] = ctx.inner
        supports = [set(cw.support) for cw in cb.codewords]
        observed = [set(row.tolist()) - {ctx.inner} for row in reads]
        for rule in channel.DECODER_RULES:
            if rule == "multiplicity_count":
                expect = [
                    [sum(m in sup for m in row) for sup in supports] for row in reads
                ]
            else:
                expect = [[len(obs & sup) for sup in supports] for obs in observed]
            for route in ROUTES:
                scores, sizes = channel._scores(ctx, rule, reads, route)
                assert scores.dtype == SCORE_DTYPES[route]
                assert scores.tolist() == expect, (rule, route)
                if rule == "unique_superset":
                    assert sizes.tolist() == [len(obs) for obs in observed]
                else:
                    assert sizes is None

    @settings(max_examples=80, deadline=None)
    @given(cb=small_codebooks(), B=st.integers(1, 12), seed=st.integers(0, 2**32))
    def test_kernel_outputs_match_across_routes(self, cb, B, seed):
        ctx = channel._Context(cb)
        N = cb.scaling.N
        for model in route_models(ctx.J):
            for rule in channel.DECODER_RULES:
                dec = DecoderConfig(rule, epsilon=0.13)
                runs = []
                for route in ROUTES:
                    rng = np.random.default_rng(seed)
                    msgs = rng.integers(0, ctx.J, size=B)
                    rows = np.arange(B)
                    runs.append(channel._trials(cb, model, dec, rng, msgs, N, route, rows))
                for other in runs[1:]:
                    assert other.keys() == runs[0].keys()
                    for key, column in runs[0].items():
                        assert np.array_equal(column, other[key]), (model, rule, key)

    @settings(max_examples=40, deadline=None)
    @given(cb=small_codebooks(), B=st.integers(1, 12), seed=st.integers(0, 2**32))
    def test_support_occupancy_matches_molecule_occupancy(self, cb, B, seed):
        # the B x inner molecule occupancy and coverage gather the support
        # positions replace
        ctx = channel._Context(cb)
        M, N, inner = ctx.M, cb.scaling.N, ctx.inner
        dec = DecoderConfig("multiplicity_count", epsilon=0.13)
        rng = np.random.default_rng(seed)
        msgs = rng.integers(0, ctx.J, size=B)
        rows = np.arange(B)
        out = channel._trials(
            cb, SequencingErrorModel.none(), dec, rng, msgs, N, "dense", rows
        )
        rng = np.random.default_rng(seed)
        rng.integers(0, ctx.J, size=B)
        sampled = ctx.expanded[msgs[:, None], rng.integers(0, M, size=(B, N))]
        occ0 = np.zeros((B, inner), dtype=bool)
        occ0[rows[:, None], sampled] = True
        assert out["distinct"].tolist() == occ0.sum(axis=1).tolist()
        smax = max(len(cw.pairs) for cw in cb.codewords)
        padded = np.zeros((ctx.J, smax), dtype=np.int64)
        mask = np.zeros((ctx.J, smax), dtype=bool)
        for i, cw in enumerate(cb.codewords):
            padded[i, : len(cw.pairs)] = cw.support
            mask[i, : len(cw.pairs)] = True
        counts0 = np.bincount(
            (sampled + (rows * inner)[:, None]).ravel(), minlength=B * inner
        ).reshape(B, inner)
        gathered = counts0[rows[:, None], padded[msgs]]
        undersampled = ((gathered <= dec.eta * N / M) & mask[msgs]).sum(axis=1)
        coverage_ok = undersampled <= (1.0 - ctx.r0 - 3.0 * dec.epsilon) * M
        assert out["coverage_ok"].tolist() == coverage_ok.tolist()

    @pytest.mark.parametrize("route", ROUTES)
    def test_forced_route_keeps_single_trials(self, route, monkeypatch):
        codebooks = [
            cap_codebook(J=8),
            codebook.repetition_codebook(
                ScalingParams(M=16, inner_size=60, N=24, J=8), 0.6, 8, seed=3
            ),
            greedy_index_codebook(
                ScalingParams(M=16, inner_size=64, N=32, J=64), 12, 64, 20, 100_000
            ),
            random_index_codebook(M=32, inner=1024, J=200, N=64),
        ]
        decoders = [DecoderConfig(rule, epsilon=0.13) for rule in channel.DECODER_RULES]
        cases = [
            (cb, model, dec, seed)
            for cb in codebooks
            for model in route_models(len(cb))
            for dec in decoders
            for seed in range(5)
        ]
        expect = [run_trial(cb, seed % len(cb), m, d, seed) for cb, m, d, seed in cases]
        monkeypatch.setattr(channel, "_route", lambda *args: route)
        got = [run_trial(cb, seed % len(cb), m, d, seed) for cb, m, d, seed in cases]
        assert got == expect

    def test_route_follows_shape(self):
        # 65 codewords of 8 molecules out of 1,024: the rules that score
        # replaced reads go sparse
        wide = greedy_index_codebook(
            ScalingParams(M=8, inner_size=1024, N=16, J=65), 3, 65, 1, 10_000
        )
        random = SequencingErrorModel.random(0.5)
        for rule in ("distinct_intersection", "multiplicity_count"):
            assert channel.score_route(wide, random, rule) == "sparse"
        # the criterion-11 shape: the models that replace reads take the
        # dense route for the rules that score
        narrow = greedy_index_codebook(
            ScalingParams(M=16, inner_size=64, N=32, J=64), 12, 64, 20, 100_000
        )
        for model in (random, SequencingErrorModel.adversarial(0.4, (0, 63))):
            assert channel.score_route(narrow, model, DIST.rule) == "dense"
            assert channel.score_route(narrow, model, "multiplicity_count") == "dense"
        # float32 stops holding every integer score from 2^24 reads on
        mult = "multiplicity_count"
        assert channel.score_route(narrow, random, mult, n_reads=(1 << 24) - 1) == "dense"
        assert channel.score_route(narrow, random, mult, n_reads=1 << 24) == "sparse"
        assert channel.score_route(narrow, random, DIST.rule, n_reads=1 << 24) == "sparse"
        # a mid-width codebook, 200 codewords of 128 molecules out of 1,024:
        # a trial looks up so many index entries that the product is cheaper
        mid = random_index_codebook(M=128, inner=1024, J=200, N=256)
        for rule in ("distinct_intersection", "multiplicity_count"):
            assert channel.score_route(mid, random, rule) == "dense"
        # 65 codewords of 64 molecules out of 2,048, 256 reads, 1 % of them
        # replaced: the distinct rules look up about 65 molecules a trial,
        # multiplicity_count all 256 reads (forced routes at 64 codewords
        # under the none model: 6.5 against 13.1 us a trial sparse for
        # distinct_intersection, 10.4 against 13.4 us dense for
        # multiplicity_count)
        found = random_index_codebook(M=64, inner=2048, J=65, N=256)
        rare = SequencingErrorModel.random(0.01)
        assert channel.score_route(found, rare, DIST.rule) == "sparse"
        assert channel.score_route(found, rare, MULT.rule) == "dense"

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("inner", [3, 63, 64])
    def test_score_routes_drop_the_sentinel(self, inner, route):
        # the erasure sentinel inner, next to the last molecule, is no
        # molecule: a fully erased row observes nothing
        supports = [{0, 1}, {inner - 2, inner - 1}, {0, inner - 1}]
        sc = ScalingParams(M=2, inner_size=inner, N=4, J=len(supports))
        cb = Codebook(sc, tuple(map(Codeword.from_molecules, supports)), False)
        ctx = channel._Context(cb)
        reads = np.array(
            [[0, inner, 1, inner], [inner] * 4, [inner - 1, inner, inner - 1, 0]],
            dtype=np.int32,
        )
        observed = [{0, 1}, set(), {0, inner - 1}]
        for rule in ("distinct_intersection", "unique_superset"):
            scores, sizes = channel._scores(ctx, rule, reads, route)
            assert scores.tolist() == [[len(o & s) for s in supports] for o in observed]
        assert sizes.tolist() == [2, 0, 2]

    def test_dense_route_keeps_to_its_cell_budget(self, monkeypatch):
        # 4,096 two-molecule index codewords out of 8,192 molecules and
        # 131,072 reads, all of them looked up by multiplicity_count, half
        # of them replaced: the ratio rule alone reads dense, but the J x
        # inner support matrix would hold 2^25 cells
        k = np.arange(4096)
        cb = array_index_codebook(np.stack([k, 4096 + k], axis=1), 8192, 1 << 17)
        random = SequencingErrorModel.random(0.5)
        assert channel.score_route(cb, random, MULT.rule) == "sparse"
        monkeypatch.setattr(channel, "_DENSE_CELLS", 1 << 40)
        assert channel.score_route(cb, random, MULT.rule) == "dense"

    @settings(max_examples=100, deadline=None)
    @given(cb=small_codebooks(sizes=st.one_of(st.integers(1, 6), st.integers(60, 140))))
    def test_context_arrays_match_codewords(self, cb):
        ctx = channel._Context(cb)
        cws = cb.codewords
        sizes = np.array([len(cw.pairs) for cw in cws])
        assert np.array_equal(ctx.expanded, np.stack([cw.expand() for cw in cws]))
        assert np.array_equal(ctx.support_mask, np.arange(sizes.max()) < sizes[:, None])
        positions = [
            np.repeat(np.arange(len(cw.pairs)), [m for _, m in cw.pairs]) for cw in cws
        ]
        assert np.array_equal(ctx.positions, np.stack(positions))
        # the cover rows as integers of J bits, the sentinel's all set, cut
        # into W words of 64
        held = [sum(1 << j for j, cw in enumerate(cws) if m in cw.support)
                for m in range(ctx.inner)] + [(1 << ctx.J) - 1]
        rows = [[h >> 64 * w & (1 << 64) - 1 for w in range(ctx.W)] for h in held]
        assert ctx.W == math.ceil(ctx.J / 64)
        assert ctx.cover_bits.dtype == ctx.cover_words.dtype == np.uint64
        assert ctx.cover_bits.tolist() == rows
        words = [rows[m] for m in ctx.expanded.ravel().tolist()]
        assert ctx.cover_words.tolist() == words
        assert ctx.inv_ptr.shape == (ctx.inner + 2,)
        assert ctx.nnz == sizes.sum() == ctx.inv_ptr[-1]
        for m in range(ctx.inner + 1):
            holders = [j for j, cw in enumerate(cws) if m in cw.support]
            assert ctx.inv_idx[ctx.inv_ptr[m] : ctx.inv_ptr[m + 1]].tolist() == holders


def cover_runs(cb, model, dec, seed, B, routes):
    """(kernel output, next draw of its generator) on each forced route."""
    return [blocked_runs(cb, model, dec, seed, B, cb.scaling.N, r, [B])[0] for r in routes]


@st.composite
def wide_support_codebooks(draw):
    """Codebooks of 1-64 codewords with 1 to 64 support positions: index
    codebooks (M = S), or multiset codebooks of M > S molecules whose
    supports hold 1 to S distinct ones, so positions differ from indices.
    Codewords may repeat, so the decision ties."""
    J = draw(st.one_of(st.just(64), st.integers(1, 64)))
    S = draw(st.one_of(st.just(64), st.integers(1, 64)))
    N = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if S >= 2 and draw(st.booleans()):
        molecules = rng.integers(0, 2, size=(J, S)) + np.arange(S) * 2
        return array_index_codebook(molecules, 2 * S, N, validate_distinct=False)
    M = S + draw(st.integers(1, 16))
    inner = M + 1 + int(rng.integers(0, M))
    sizes = rng.integers(1, S + 1, size=J)
    sizes[rng.integers(0, J)] = S
    molecules = np.zeros((J, S), dtype=np.int64)
    mults = np.zeros((J, S), dtype=np.int64)
    for i, size in enumerate(sizes):
        molecules[i, :size] = np.sort(rng.choice(inner, size, replace=False))
        mults[i, :size] = 1 + np.bincount(rng.integers(0, size, M - size), minlength=size)
    return Codebook(
        ScalingParams(M=M, inner_size=inner, N=N, J=J),
        validate_distinct=False,
        molecules=molecules,
        mults=mults,
        sizes=sizes,
    )


def assert_draw_cover(cb, B, p, seed):
    """The cover route under none and erasure(p), which gathers its words
    from cover_words, against every valid forced score route, with every-row
    and wrong-row diagnostics."""
    ctx = channel._context(cb)
    for model in (SequencingErrorModel.none(), SequencingErrorModel.erasure(p)):
        for rule in channel.DECODER_RULES:
            assert channel._route(ctx, model, rule, ctx.N) == "cover"
            dec = DecoderConfig(rule, epsilon=0.13)
            routes = ("cover",) + ROUTES
            assert_same_runs(cover_runs(cb, model, dec, seed, B, routes), (model, rule))
            wrong_rows = [
                blocked_runs(cb, model, dec, seed, B, ctx.N, r, [B], every_row=False)[0]
                for r in routes
            ]
            assert_same_runs(wrong_rows, (model, rule, "wrong rows"))
    assert "cover_words" in ctx.__dict__


def assert_cover_decision(ctx, rule, draws, B, what):
    """_decide on the cover route against each score route, row by row: the
    top count, the top set, with no bit set from J on, and the first top
    codeword of each row that has one.  Returns the top counts."""
    n_top, first, top = channel._decide(ctx, "cover", rule, draws, slice(B))
    bits = np.unpackbits(top.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, ctx.J :].any(), what
    some = n_top > 0
    for route in ROUTES:
        counts, firsts, at_top = channel._decide(ctx, route, rule, draws, slice(B))
        assert np.array_equal(n_top, counts), (what, route)
        assert np.array_equal(bits[:, : ctx.J], at_top), (what, route)
        assert np.array_equal(first[some], firsts[some]), (what, route)
    return n_top


class TestCoverRoute:
    """The cover route decides as every score route does, draws included,
    wherever score_route picks it."""

    @settings(max_examples=80, deadline=None)
    @given(
        cb=small_codebooks(sizes=st.one_of(st.just(64), st.integers(1, 64))),
        B=st.integers(1, 12),
        p=st.one_of(st.just(0.95), st.floats(0.0, 0.95)),
        seed=st.integers(0, 2**32),
    )
    def test_cover_matches_score_routes(self, cb, B, p, seed):
        ctx = channel._Context(cb)
        J = ctx.J
        cases = [
            (model, rule)
            for model in (SequencingErrorModel.none(), SequencingErrorModel.erasure(p))
            for rule in channel.DECODER_RULES
        ]
        cases.append((SequencingErrorModel.random(p), "unique_superset"))
        if J >= 2:
            attack = SequencingErrorModel.adversarial(p, (0, J - 1))
            cases.append((attack, "unique_superset"))
        for model, rule in cases:
            assert channel._route(ctx, model, rule, ctx.N) == "cover"
            dec = DecoderConfig(rule, epsilon=0.13)
            routes = ("cover",) + ROUTES
            assert_same_runs(cover_runs(cb, model, dec, seed, B, routes), (model, rule))

    def test_erased_and_uncovered_rows(self):
        # 64 codewords over 2 of the 8 molecules of each group, 3 reads:
        # most erasure rows lose every read and tie all 64 codewords, and
        # most replacements are molecules that no codeword holds
        molecules = (np.arange(64)[:, None] >> np.arange(8)) % 2 + np.arange(8) * 8
        cb = array_index_codebook(molecules, 64, 3)
        ctx = channel._Context(cb)
        B = 2_000
        for rule in channel.DECODER_RULES:
            model, dec = SequencingErrorModel.erasure(0.95), DecoderConfig(rule)
            runs = cover_runs(cb, model, dec, 4, B, ("cover",) + ROUTES)
            assert_same_runs(runs, rule)
            out = runs[0][0]
            erased = out["errors"] == 3
            assert erased.sum() > B // 2
            if rule == "unique_superset":
                assert (out["decoded"][erased] == -1).all()
            else:
                assert out["tie"][erased].all()
        dec = DecoderConfig("unique_superset")
        for model in (
            SequencingErrorModel.random(0.9),
            SequencingErrorModel.adversarial(0.9, (0, 63)),
        ):
            runs = cover_runs(cb, model, dec, 4, B, ("cover",) + ROUTES)
            assert_same_runs(runs, model)
        # the random model's reads, drawn in the kernel's order: rows whose
        # cover word is 0 decode to nothing
        rng = np.random.default_rng(4)
        msgs = rng.integers(0, 64, size=B)
        sampled = ctx.expanded[msgs[:, None], rng.integers(0, 8, size=(B, 3))]
        replaced = rng.random((B, 3)) < 0.9
        reads = np.where(replaced, rng.integers(0, 64, size=(B, 3)), sampled)
        uncovered = ~np.bitwise_and.reduce(ctx.cover_bits[reads], axis=1).any(axis=1)
        out = cover_runs(cb, SequencingErrorModel.random(0.9), dec, 4, B, ["cover"])[0][0]
        assert uncovered.sum() > B // 2
        assert (out["decoded"][uncovered] == -1).all()
        assert np.array_equal(out["errors"], (reads != sampled).sum(axis=1))

    def test_route_rule(self):
        # the cover route for the none and erasure models and for
        # unique_superset, below 64 codewords and past them
        pair = (0, 1)
        models = {
            "none": SequencingErrorModel.none(),
            "erasure": SequencingErrorModel.erasure(0.5),
            "random": SequencingErrorModel.random(0.5),
            "adversarial": SequencingErrorModel.adversarial(0.5, pair),
        }
        for J in (2, 64, 65, 500):
            cb = random_index_codebook(M=8, inner=64, J=J, N=16)
            for rule in channel.DECODER_RULES:
                for kind, model in models.items():
                    covers = kind in ("none", "erasure") or rule == "unique_superset"
                    assert (channel.score_route(cb, model, rule) == "cover") == covers
                # p = 0 is the none model, whatever the kind
                for zero in (
                    SequencingErrorModel.erasure(0.0),
                    SequencingErrorModel.random(0.0),
                    SequencingErrorModel.adversarial(0.0, pair),
                ):
                    assert channel.score_route(cb, zero, rule) == "cover"

    def test_cover_tables_keep_to_the_cell_budget(self, monkeypatch):
        # the cover route holds (inner + 1 + J M) x W table words and one
        # trial's n x W rows; past _DENSE_CELLS of them it is not taken, and
        # past J x inner cells neither is the dense route
        cb = random_index_codebook(M=8, inner=64, J=500, N=12)
        ctx = channel._context(cb)
        none = SequencingErrorModel.none()
        words = (64 + 1 + 500 * 8 + 12) * 8
        monkeypatch.setattr(channel, "_DENSE_CELLS", words)
        assert channel.score_route(cb, none, DIST.rule) == "cover"
        monkeypatch.setattr(channel, "_DENSE_CELLS", words - 1)
        assert channel.score_route(cb, none, DIST.rule) == "dense"
        monkeypatch.setattr(channel, "_DENSE_CELLS", 500 * 64 - 1)
        assert channel.score_route(cb, none, DIST.rule) == "sparse"
        assert estimate_error_probability(cb, none, DIST, 500, 1).trials == 500
        assert "cover_bits" not in ctx.__dict__
        assert "cover_words" not in ctx.__dict__

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 0.95])
    @pytest.mark.parametrize("J", [64, 65, 127, 128, 129, 500])
    def test_wide_covers_match_score_routes(self, J, p):
        # W = ceil(J / 64) words a row, on either side of each word's end:
        # every rule under erasure(p), and unique_superset under random, in
        # one block and in blocks of 37 rows, whose tied rows draw their
        # tie-breaks across blocks; 4 reads of 8 molecules tie at every p
        cb = random_index_codebook(M=8, inner=64, J=J, N=4, seed=J)
        ctx = channel._context(cb)
        B, tied = 300, 0
        cases = [(SequencingErrorModel.erasure(p), r) for r in channel.DECODER_RULES]
        cases.append((SequencingErrorModel.random(max(p, 0.5)), "unique_superset"))
        for model, rule in cases:
            assert channel._route(ctx, model, rule, ctx.N) == "cover"
            dec = DecoderConfig(rule, epsilon=0.13)
            runs = blocked_runs(cb, model, dec, J, B, ctx.N, "cover", [B, 37])
            for route in ROUTES:
                runs += blocked_runs(cb, model, dec, J, B, ctx.N, route, [B])
            assert_same_runs(runs, (model, rule))
            tied += int(runs[0][0]["tie"].sum())
            rng = np.random.default_rng(J)
            draws = channel._draw(ctx, model, rng, rng.integers(0, J, size=B), ctx.N)
            assert_cover_decision(ctx, rule, draws, B, (model, rule))
        assert tied > 0

    def test_erased_rows_inside_and_at_the_end_of_a_block(self):
        # a reduceat segment ends at the next start: a trial whose reads are
        # all erased, in the middle of a compacted block or as its last
        # row, must not cut short the words of the trial before it, each of
        # which keeps two reads of different molecules
        cb = random_index_codebook(M=8, inner=64, J=500, N=12, seed=3)
        ctx = channel._context(cb)
        model = SequencingErrorModel.erasure(0.5)
        B = 9
        rng = np.random.default_rng(11)
        draws = channel._draw(ctx, model, rng, rng.integers(0, ctx.J, size=B), ctx.N)
        mask, idx = draws["mask"], draws["idx"]
        mask[[3, 4, B - 2, B - 1]] = True
        mask[[3, B - 2], 0] = mask[[3, B - 2], -1] = False
        idx[[3, B - 2], 0], idx[[3, B - 2], -1] = 0, 1
        assert channel._compacts(ctx.W, "erasure")
        # the codewords that hold row 3's first kept molecule
        first_kept = ctx.expanded[draws["msgs"][3], 0]
        holders = np.count_nonzero(ctx.expanded[:, 0] == first_kept)
        for rule in channel.DECODER_RULES:
            n_top = assert_cover_decision(ctx, rule, draws, B, rule)
            assert n_top[4] == n_top[B - 1] == ctx.J
            # the last kept read narrows the set its first read leaves
            assert n_top[3] < holders

    @settings(max_examples=60, deadline=None)
    @given(
        cb=wide_support_codebooks(),
        B=st.integers(1, 12),
        p=st.one_of(st.just(0.95), st.floats(0.0, 0.95)),
        seed=st.integers(0, 2**32),
    )
    def test_draw_words_match_score_routes(self, cb, B, p, seed):
        # the none and erasure models gather each draw's word from
        # cover_words, with index and multiset codebooks
        assert_draw_cover(cb, B, p, seed)

    def test_sixty_five_positions_match_score_routes(self):
        # more support positions than bits in a word change nothing
        rng = np.random.default_rng(65)
        molecules = rng.integers(0, 2, size=(24, 65)) + np.arange(65) * 2
        cb = array_index_codebook(molecules, 130, 40)
        for B, p, seed in ((1, 0.0, 1), (12, 0.5, 2), (300, 0.95, 3)):
            assert_draw_cover(cb, B, p, seed)


class TestWrongRowDiagnostics:
    """The estimator has the kernel diagnose its wrong trials only, the
    single-trial functions their one trial; a row's diagnosis is the same
    whichever other rows are diagnosed, and every report is what every-row
    diagnostics give."""

    @pytest.mark.parametrize(
        "model,rule,wrong",
        [
            (SequencingErrorModel.none(), "distinct_intersection", "none"),
            (SequencingErrorModel.erasure(0.9), "distinct_intersection", "some"),
            (SequencingErrorModel.random(0.3), "multiplicity_count", "some"),
            (SequencingErrorModel.adversarial(0.6, (0, 1)), "distinct_intersection", "some"),
            (SequencingErrorModel.adversarial(0.5, (0, 1)), "unique_superset", "some"),
            (SequencingErrorModel.random(0.5), "unique_superset", "all"),
        ],
    )
    def test_reports_match_every_row_diagnostics(self, model, rule, wrong, monkeypatch):
        # two chunks each: a disjoint pair never errs; 4 reads of 8 capped
        # codewords give every cause; 48 reads, half of them replaced, are
        # never covered by one codeword
        cb = {
            "none": disjoint_pair_cb(N=6),
            "some": cap_codebook(N=4, J=8),
            "all": cap_codebook(),
        }[wrong]
        dec = DecoderConfig(rule, epsilon=0.13)
        trials = 20_000
        report = estimate_error_probability(cb, model, dec, trials, 8).comparable_dict()
        errors = report["errors"]
        assert errors == {"none": 0, "all": trials}.get(wrong, errors)
        assert 0 < errors < trials or wrong != "some"
        if model.kind == "adversarial":
            assert report["attack_stats"]["bad_events"] > 0
        kernel = channel._trials
        seen = []

        def every_row(cb, model, dec, rng, msgs, N, route, rows=None):
            seen.append(rows)
            return kernel(cb, model, dec, rng, msgs, N, route, np.arange(msgs.size))

        monkeypatch.setattr(channel, "_trials", every_row)
        assert estimate_error_probability(cb, model, dec, trials, 8).comparable_dict() == report
        assert seen == [None, None]

    @settings(max_examples=60, deadline=None)
    @given(
        cb=small_codebooks(),
        B=st.integers(1, 12),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_any_rows_match_the_every_row_diagnosis(self, cb, B, seed, data):
        # the diagnosis of any rows, in any order, and the kernel's of its
        # wrong rows are the every-row diagnosis at those rows, on every
        # route that decides the case
        ctx = channel._context(cb)
        N = ctx.N
        rows = np.array(data.draw(st.lists(st.integers(0, B - 1), unique=True)), dtype=np.intp)
        keys = ("distinct", "errors", "errors_ok", "coverage_ok", "cause")
        for model in route_models(ctx.J):
            for rule in channel.DECODER_RULES:
                dec = DecoderConfig(rule, epsilon=0.13)
                routes = ROUTES
                if channel._route(ctx, model, rule, N) == "cover":
                    routes += ("cover",)
                for route in routes:
                    every, _ = blocked_runs(cb, model, dec, seed, B, N, route, [B])[0]
                    wrong, _ = blocked_runs(
                        cb, model, dec, seed, B, N, route, [B], every_row=False
                    )[0]
                    rng = np.random.default_rng(seed)
                    msgs = rng.integers(0, ctx.J, size=B)
                    draws = channel._draw(ctx, model, rng, msgs, N)
                    some = channel._diagnose(
                        ctx, cb, dec, draws, rows, every["wrong"], every["tie"]
                    )
                    wrong_rows = np.flatnonzero(every["wrong"])
                    assert np.array_equal(wrong["rows"], wrong_rows)
                    assert sorted(some) == sorted(keys)
                    for key in keys:
                        what = (model, rule, route, key)
                        for got, at in ((some[key], rows), (wrong[key], wrong_rows)):
                            assert got.dtype == every[key].dtype, what
                            assert np.array_equal(got, every[key][at]), what
                        assert every[key].shape == (B,), what

    def test_run_trial_fills_successful_trials(self):
        # the counts recomputed from the draws, in the kernel's order
        cb = disjoint_pair_cb(N=6)
        ctx = channel._context(cb)
        for model in (
            SequencingErrorModel.none(),
            SequencingErrorModel.erasure(0.5),
            SequencingErrorModel.random(0.3),
        ):
            for rule in channel.DECODER_RULES:
                successes = 0
                for seed in range(60):
                    out = run_trial(cb, seed % 2, model, DecoderConfig(rule), seed)
                    rng = np.random.Generator(np.random.Philox(key=seed))
                    idx = rng.integers(0, 8, size=6, dtype=np.int32)
                    mask = rng.random(6) < model.p
                    sampled = ctx.expanded[seed % 2][idx]
                    if model.kind == "random":
                        replaced = rng.integers(0, 16, size=6, dtype=np.int32)
                        mask &= replaced != sampled
                    assert out.distinct_sampled == len(set(idx.tolist()))
                    assert out.sequencing_errors == mask.sum()
                    successes += out.success
                assert successes > 10, (model, rule)


def shared_molecule_codebook(J=500, M=64, inner=4096, shared=56):
    """Codewords that share their first `shared` molecules: a read of one
    of them touches J index entries."""
    own = M - shared
    rows = [list(range(shared)) + list(range(shared + own * j, shared + own * (j + 1)))
            for j in range(J)]
    sc = ScalingParams(M=M, inner_size=inner, N=M, J=J)
    return Codebook(sc, tuple(map(Codeword.from_molecules, rows)), False)


class TestScoreCapacity:
    def test_wide_codebook_raises_before_scoring(self, monkeypatch):
        # 400k two-molecule index codewords: a chunk of 256 trials has
        # 256 x J > 1e8 scores, but a row block holds one trial's
        J, group = 400_000, 640
        k = np.arange(J)
        cb = array_index_codebook(
            np.stack([k // group, group + k % group], axis=1), 2 * group, 4
        )
        none = SequencingErrorModel.none()
        assert channel.score_route(cb, none, DIST.rule) == "sparse"
        assert estimate_error_probability(cb, none, DIST, 256, 1).trials == 256
        # below J cells, one trial's scores are too many
        monkeypatch.setattr(channel, "DEFAULT_CELL_CAP", J)
        with pytest.raises(CapacityError, match="1 x 400000 scores"):
            estimate_error_probability(cb, none, DIST, 256, 1)

    def test_shared_molecules_raise_on_index_entries(self, monkeypatch):
        # a trial touches about 35 times its expected index entries, so one
        # 6,000-trial chunk touches 1.1e8 of them, but one row block
        # (131 trials) only about 2.3 million.  1 % of the reads replaced
        # keep the decision off the cover route
        cb = shared_molecule_codebook()
        rare = SequencingErrorModel.random(0.01)
        assert channel.score_route(cb, rare, DIST.rule) == "sparse"
        assert estimate_error_probability(cb, rare, DIST, 6_000, 1).trials == 6_000
        # a block above the cap raises before it lays out its entries,
        # which would take 18 MB
        monkeypatch.setattr(channel, "DEFAULT_CELL_CAP", 1_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="index entries"):
                estimate_error_probability(cb, rare, DIST, 6_000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak

    def test_chunk_draws_raise_before_drawing(self):
        # a million reads a trial: a chunk of 200 trials would draw 2e8
        # indices and as many uniforms
        cb = disjoint_pair_cb(N=1_000_000)
        model = SequencingErrorModel.random(0.5)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="fewer reads"):
                estimate_error_probability(cb, model, DIST, 200, 1)
            with pytest.raises(CapacityError, match="1 trials of 100000001 reads"):
                run_trial(cb, 0, model, DIST, 1, n_reads=100_000_001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def full_jitter_trials(ctx, cb, model, dec, rng, msgs, N, route):
    """The kernel as it was before the tie-break drew for tied rows only:
    every row adds one jitter uniform per codeword to its scores and takes
    the argmax, and flags and causes are computed for every row.  Kept here
    as the reference the tie-break is checked against."""
    M, inner, J = ctx.M, ctx.inner, ctx.J
    B = msgs.size
    rows = np.arange(B)
    sample_idx = rng.integers(0, M, size=(B, N))
    sampled = ctx.expanded[msgs[:, None], sample_idx]
    positions = ctx.positions[msgs[:, None], sample_idx]
    S = ctx.support_mask.shape[1]
    occ0 = np.zeros((B, S), dtype=bool)
    occ0[rows[:, None], positions] = True
    distinct_count = occ0.sum(axis=1)
    if model.kind == "none" or model.p == 0.0:
        reads = sampled
        errors = np.zeros(B, dtype=np.int64)
    elif model.kind == "erasure":
        mask = rng.random((B, N)) < model.p
        reads = np.where(mask, inner, sampled)
        errors = mask.sum(axis=1)
    elif model.kind == "random":
        mask = rng.random((B, N)) < model.p
        repl = rng.integers(0, inner, size=(B, N))
        reads = np.where(mask, repl, sampled)
        errors = (reads != sampled).sum(axis=1)
    else:
        a, b = model.attack_pair
        u = rng.random((B, N))
        cases = np.zeros((B, N), dtype=np.int8)
        cases[u < model.p] = 2
        cases[u < model.p / 2.0] = 1
        repl_a = ctx.expanded[a][rng.integers(0, M, size=(B, N))]
        repl_b = ctx.expanded[b][rng.integers(0, M, size=(B, N))]
        reads = np.where(cases == 1, repl_a, np.where(cases == 2, repl_b, sampled))
        errors = (reads != sampled).sum(axis=1)
    scores, observed_sizes = channel._scores(ctx, dec.rule, reads, route)
    tie = np.zeros(B, dtype=bool)
    if dec.rule == "unique_superset":
        covering = scores == observed_sizes[:, None]
        n_candidates = covering.sum(axis=1)
        decoded = np.where(n_candidates == 1, np.argmax(covering, axis=1), -1)
    else:
        top = scores.max(axis=1)
        tie = (scores == top[:, None]).sum(axis=1) > 1
        decoded = np.argmax(scores + rng.random((B, J)), axis=1)
    wrong = decoded != msgs
    eps, eta = dec.epsilon, dec.eta
    if dec.rule == "distinct_intersection":
        errors_ok = errors <= eps * M
        coverage_ok = distinct_count >= (ctx.r0 + 3.0 * eps) * M
    elif dec.rule == "multiplicity_count":
        errors_ok = errors < eps * eta * N
        flat0 = positions + (rows * S)[:, None]
        counts0 = np.bincount(flat0.ravel(), minlength=B * S).reshape(B, S)
        undersampled = ((counts0 <= eta * N / M) & ctx.support_mask[msgs]).sum(axis=1)
        coverage_ok = undersampled <= (1.0 - ctx.r0 - 3.0 * eps) * M
    else:
        errors_ok = errors == 0
        coverage_ok = distinct_count > cb.max_intersection()[0]
    cause = np.zeros(B, dtype=np.int8)
    cause[wrong] = 2
    cause[wrong & ~errors_ok] = 3
    cause[wrong & ~coverage_ok] = 1
    cause[wrong & tie] = 4
    return {
        "decoded": decoded,
        "wrong": wrong,
        "distinct": distinct_count,
        "errors": errors,
        "errors_ok": errors_ok,
        "coverage_ok": coverage_ok,
        "tie": tie,
        "cause": cause,
        "scores": scores,
    }


class TestTieBreak:
    """The tie-break draws only for tied rows, and only after every other
    draw, so everything but the decode of tied rows matches the full-jitter
    kernel it replaced."""

    @settings(max_examples=50, deadline=None)
    @given(cb=small_codebooks(), B=st.integers(1, 12), seed=st.integers(0, 2**32))
    def test_matches_full_jitter_kernel(self, cb, B, seed):
        ctx = channel._Context(cb)
        N = cb.scaling.N
        rows = np.arange(B)
        for model in route_models(ctx.J):
            for rule in channel.DECODER_RULES:
                dec = DecoderConfig(rule, epsilon=0.13)
                route = ROUTES[seed % len(ROUTES)]
                rng = np.random.default_rng(seed)
                msgs = rng.integers(0, ctx.J, size=B)
                new = channel._trials(cb, model, dec, rng, msgs, N, route, rows)
                rng = np.random.default_rng(seed)
                rng.integers(0, ctx.J, size=B)
                old = full_jitter_trials(ctx, cb, model, dec, rng, msgs, N, route)
                for key in ("tie", "distinct", "errors"):
                    assert np.array_equal(new[key], old[key]), (model, rule, key)
                assert np.array_equal(new["errors_ok"], old["errors_ok"])
                assert np.array_equal(new["coverage_ok"], old["coverage_ok"])
                untied = ~new["tie"]
                assert np.array_equal(new["decoded"][untied], old["decoded"][untied])
                scores = old["scores"]
                top = scores.max(axis=1)
                assert (scores[rows, new["decoded"]] == top)[new["tie"]].all()
                # a cause is a function of the flags for rows wrong in both
                cause = new["cause"]
                same = new["wrong"] == old["wrong"]
                assert np.array_equal(cause[same], old["cause"][same])
                assert (cause[new["wrong"] & new["tie"]] == 4).all()

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("rule", ["distinct_intersection", "multiplicity_count"])
    def test_uniform_among_identical_codewords(self, k, rule):
        sc = ScalingParams(M=8, inner_size=16, N=8, J=k)
        cw = Codeword.from_molecules(range(8))
        cb = Codebook(sc, (cw,) * k, False, validate_distinct=False)
        ctx = channel._Context(cb)
        model = SequencingErrorModel.none()
        trials = 20_000
        rng = np.random.default_rng(k)
        msgs = np.zeros(trials, dtype=np.int64)
        route = channel.score_route(cb, model, rule)
        out = channel._trials(cb, model, DecoderConfig(rule), rng, msgs, 8, route)
        assert out["tie"].all()
        freq = np.bincount(out["decoded"], minlength=k) / trials
        sigma = math.sqrt((1 / k) * (1 - 1 / k) / trials)
        assert np.abs(freq - 1 / k).max() <= 4 * sigma, freq


def blocked_runs(cb, model, dec, seed, B, N, route, block_rows, every_row=True):
    """(kernel output, next draw of its generator) for each forced count of
    trials per row block, diagnosing every trial or, unless every_row, the
    wrong ones."""
    runs = []
    diagnosed = np.arange(B) if every_row else None
    for rows in block_rows:
        rng = np.random.default_rng(seed)
        msgs = rng.integers(0, len(cb), size=B)
        with mock.patch.object(channel, "_block_rows", lambda *args: rows):
            out = channel._trials(cb, model, dec, rng, msgs, N, route, diagnosed)
        runs.append((out, rng.integers(0, 1 << 62)))
    return runs


def assert_same_runs(runs, what):
    (first, after), *others = runs
    for out, next_draw in others:
        assert out.keys() == first.keys()
        for key, column in first.items():
            assert column.dtype == out[key].dtype, (what, key)
            assert np.array_equal(column, out[key]), (what, key)
        assert next_draw == after, what


class TestBlasThreads:
    """The kernel runs numpy's OpenBLAS on the calling thread and gives the
    caller's thread count back; without the library's symbols it runs as
    it is, to the same outputs."""

    @pytest.mark.skipif(channel._BLAS_THREADS is None, reason="no OpenBLAS symbols")
    def test_kernel_restores_the_thread_count(self, monkeypatch):
        get, put = channel._BLAS_THREADS
        cb = cap_codebook(J=8)
        model = SequencingErrorModel.random(0.3)
        assert channel.score_route(cb, model, MULT.rule) == "dense"
        seen = []
        scores = channel._scores

        def spy(*args):
            seen.append(get())
            return scores(*args)

        monkeypatch.setattr(channel, "_scores", spy)
        before = get()
        put(2)
        try:
            estimate_error_probability(cb, model, MULT, 3_000, 1)
            assert get() == 2
        finally:
            put(before)
        assert seen and set(seen) == {1}

    def test_outputs_without_the_symbols(self, monkeypatch):
        cb = cap_codebook(J=8)
        models = [
            SequencingErrorModel.random(0.3),
            SequencingErrorModel.adversarial(0.3, (0, 7)),
        ]
        assert {channel.score_route(cb, m, MULT.rule) for m in models} == {"dense"}

        def outputs():
            reports = [
                estimate_error_probability(cb, m, MULT, 20_000, 7).comparable_dict()
                for m in models
            ]
            return reports, [run_trial(cb, 3, m, MULT, 11) for m in models]

        expect = outputs()

        def missing(*args, **kwargs):
            raise OSError("no such library")

        monkeypatch.setattr(channel.ctypes, "CDLL", missing)
        monkeypatch.setattr(channel, "_BLAS_THREADS", channel._blas_threads())
        assert channel._BLAS_THREADS is None
        assert outputs() == expect


class TestRowBlocks:
    """The kernel's row blocks change no output and no draw: one row per
    block, a count that does not divide the chunk, and the whole chunk in
    one block all agree."""

    @settings(max_examples=60, deadline=None)
    @given(cb=small_codebooks(), B=st.integers(1, 12), seed=st.integers(0, 2**32))
    def test_outputs_match_across_block_sizes(self, cb, B, seed):
        ctx = channel._Context(cb)
        N = cb.scaling.N
        # 1 row, B (or more) rows, and a count that leaves a remainder
        block_rows = [1, B + seed % 3, max(2, B // 2 + 1)]
        for model in route_models(ctx.J):
            for rule in channel.DECODER_RULES:
                dec = DecoderConfig(rule, epsilon=0.13)
                for route in ROUTES:
                    runs = blocked_runs(cb, model, dec, seed, B, N, route, block_rows)
                    assert_same_runs(runs, (model, rule, route))

    @pytest.mark.parametrize("route", ROUTES + ("cover",))
    def test_tied_rows_across_blocks(self, route):
        # a repetition (multiset) codebook and an index codebook under every
        # model, where some rows tie; blocks of 5 rows leave a remainder of
        # the 64 trials.  The cover route runs where score_route picks it
        cbs = [
            codebook.repetition_codebook(
                ScalingParams(M=16, inner_size=60, N=24, J=8), 0.6, 8, seed=3
            ),
            cap_codebook(M=8, inner=64, N=12, cap=6, J=16),
        ]
        tied = 0
        for cb in cbs:
            ctx = channel._Context(cb)
            for model in route_models(ctx.J):
                for rule in channel.DECODER_RULES:
                    picked = channel._route(ctx, model, rule, ctx.N)
                    if route == "cover" and picked != "cover":
                        continue
                    dec = DecoderConfig(rule, epsilon=0.13)
                    runs = blocked_runs(cb, model, dec, 5, 64, ctx.N, route, [64, 1, 5])
                    assert_same_runs(runs, (model, rule))
                    tied += int(runs[0][0]["tie"].sum())
        assert tied > 0

    def test_capacity_message_counts_one_block(self, monkeypatch):
        # the cap counts the scores and index entries of the block it
        # refuses, so the message names that block's rows
        cb = shared_molecule_codebook()
        rare = SequencingErrorModel.random(0.01)
        monkeypatch.setattr(channel, "DEFAULT_CELL_CAP", 1_000_000)
        for rows in (100, 1000):
            with mock.patch.object(channel, "_block_rows", lambda *args: rows):
                with pytest.raises(CapacityError, match=f"needs {rows} x 500 scores"):
                    estimate_error_probability(cb, rare, DIST, 6_000, 1)

    def test_wide_chunk_memory_is_bounded(self):
        # an index codebook of the mc-wide shape: 500 codewords of 64
        # molecules out of 4,096.  A 2,000-trial chunk touches about 1.5
        # million index entries: laid out whole, as before the row blocks,
        # the estimate peaked at 57 MB; in blocks it takes about 4.4 MB
        cb = random_index_codebook(M=64, inner=4096, J=500, N=128, seed=5)
        model = SequencingErrorModel.random(0.5)
        # the context's tables are built before tracing: they are no chunk's
        assert channel.score_route(cb, model, DIST.rule) == "sparse"
        tracemalloc.start()
        try:
            estimate_error_probability(cb, model, DIST, 2_000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak


class TestAdversarialAttack:
    def test_p0_reduces_to_clean_channel(self):
        cb = disjoint_pair_cb(N=6)
        out = adversarial_attack_trial(cb, (0, 1), 0.0, seed=3)
        assert out.sequencing_errors == 0
        assert out.attack_cases == (0,) * 6
        assert out.attack_bad_event is False
        assert out.success

    def test_trial_records_cases(self):
        cb = disjoint_pair_cb(N=6)
        out = adversarial_attack_trial(cb, (0, 1), 0.5, seed=11)
        assert len(out.attack_cases) == 6
        assert set(out.attack_cases) <= {0, 1, 2}

    def test_bad_event_rate(self):
        cb = disjoint_pair_cb(N=6)
        p = 0.3
        trials = 300_000
        rep = estimate_error_probability(
            cb,
            SequencingErrorModel.adversarial(p, (0, 1)),
            DecoderConfig("multiplicity_count"),
            trials,
            21,
        )
        expected = (p / 2) ** 3 * (1 - p) ** 3
        sigma = math.sqrt(expected * (1 - expected) / trials)
        observed = rep.attack_stats["pattern_first_half_hits"] / trials
        assert abs(observed - expected) <= 4 * sigma

    def test_conditional_error_near_half(self):
        cb = disjoint_pair_cb(N=6)
        rep = estimate_error_probability(
            cb,
            SequencingErrorModel.adversarial(0.3, (0, 1)),
            DecoderConfig("multiplicity_count"),
            400_000,
            2,
        )
        bad = rep.attack_stats["bad_events"]
        errs = rep.attack_stats["bad_event_errors"]
        assert bad > 100
        assert errs / bad >= 0.5 - 4 * math.sqrt(0.25 / bad)

    def test_pair_validation(self):
        cb = disjoint_pair_cb()
        with pytest.raises(DomainError):
            adversarial_attack_trial(cb, (0, 0), 0.1)
        with pytest.raises(DomainError):
            adversarial_attack_trial(cb, (0, 5), 0.1)


def make_scaling(M=16, N=24, J=100):
    return ScalingParams(M=M, inner_size=4 * M, N=N, J=J)


class TestBounds:
    def test_no_seq_certain_lower(self):
        sc = make_scaling()
        lower, _ = bound_no_seq(sc, 16, 16)
        assert lower == pytest.approx(math.log(0.25))

    def test_no_seq_impossible_upper(self):
        sc = make_scaling()
        _, upper = bound_no_seq(sc, 0, 0)
        assert upper == float("-inf")

    def test_no_seq_worked_example(self):
        sc = make_scaling(M=16, N=24)
        lower, upper = bound_no_seq(sc, 4, 2)
        assert lower == pytest.approx(math.log(0.25) + 24 * math.log(2 / 16))
        assert upper == pytest.approx(
            math.log(math.comb(16, 4)) + 24 * math.log(4 / 16)
        )
        assert lower <= upper

    def test_erasure_reduces_at_p0(self):
        sc = make_scaling()
        assert bound_erasure(sc, 4, 2, 0.0) == bound_no_seq(sc, 4, 2)

    def test_erasure_certain_at_p1(self):
        sc = make_scaling()
        lower, _ = bound_erasure(sc, 4, 2, 1.0)
        assert lower == pytest.approx(math.log(0.25))

    def test_erasure_worked_example(self):
        sc = make_scaling(M=16, N=24)
        lower, upper = bound_erasure(sc, 4, 2, 0.1)
        assert lower == pytest.approx(math.log(0.25) + 24 * math.log(max(0.1, 2 / 16)))
        assert upper == pytest.approx(
            math.log(math.comb(16, 4)) + 24 * math.log(0.1 + 4 / 16)
        )
        assert lower <= upper

    def test_adversarial_reduces_at_p0(self):
        sc = make_scaling()
        assert bound_adversarial(sc, 4, 2, 0.0)[0] == bound_no_seq(sc, 4, 2)[0]

    def test_adversarial_attack_term(self):
        sc = make_scaling(M=16, N=6)
        lower, _ = bound_adversarial(sc, 4, 0, 0.3)
        assert math.exp(lower) == pytest.approx(0.5 * 0.105**3, rel=1e-9)

    def test_adversarial_upper_capped(self):
        sc = make_scaling(M=16, N=6)
        _, upper = bound_adversarial(sc, 16, 0, 0.3)
        assert upper == 0.0

    def test_random_dominant_p(self):
        sc = make_scaling(M=16, N=48, J=10_000)
        p = 0.3  # above K1/M = 4/16 would need p bigger; use K1 = 4, p = 0.3
        lower, upper = bound_random(sc, 4, p, J=10_000, alpha=1.5)
        gamma = math.log(10_000) / (0.5 * math.log(16))
        expected_upper = min(
            0.0,
            3 * math.log(48) + (16 + 3 * 48) * math.log(2) + (48 - gamma) * math.log(p),
        )
        assert upper == pytest.approx(expected_upper)
        assert lower == pytest.approx(math.log(0.25) + 48 * math.log(0.3))

    def test_random_single_message(self):
        sc = make_scaling(M=16, N=8, J=1)
        lower, upper = bound_random(sc, 4, 0.05, J=1)
        assert upper <= 0.0  # gamma = 0, exponent = N

    def test_random_vacuous_guard(self):
        sc = make_scaling(M=16, N=8)
        with pytest.raises(DomainError, match="vacuous"):
            bound_random(sc, 4, 0.05, J=round(math.exp(12.0)))

    def test_argument_validation(self):
        sc = make_scaling()
        with pytest.raises(DomainError):
            bound_no_seq(sc, 2, 4)  # K2 > K1
        with pytest.raises(DomainError):
            bound_erasure(sc, 4, 2, 1.5)


class TestUpperBoundBracketing:
    """The achievability-side upper bounds hold for the specific construction
    and decoder they describe: a capped no-multiset codebook decoded by
    unique containment."""

    def test_no_seq_upper(self):
        # dense little codebook so containment failures actually happen
        sc = ScalingParams(M=8, inner_size=16, N=16, J=16)
        cb = greedy_index_codebook(sc, 7, target_J=16, seed=3, attempt_budget=10_000)
        K1 = cb.max_intersection()[0]
        _, upper = bound_no_seq(sc, K1, 0)
        rep = estimate_error_probability(
            cb, SequencingErrorModel.none(), DecoderConfig("unique_superset"),
            100_000, 8,
        )
        assert rep.p_hat > 0  # non-vacuous at these parameters
        assert rep.p_hat <= math.exp(upper) + 4 * rep.std_err

    def test_erasure_upper(self):
        sc = ScalingParams(M=16, inner_size=64, N=32, J=64)
        cb = greedy_index_codebook(sc, 12, target_J=64, seed=20, attempt_budget=100_000)
        K1 = cb.max_intersection()[0]
        p = 0.02
        _, upper = bound_erasure(sc, K1, 0, p)
        assert upper < 0.0  # the bound itself is informative here
        rep = estimate_error_probability(
            cb, SequencingErrorModel.erasure(p), DecoderConfig("unique_superset"),
            100_000, 8,
        )
        assert rep.p_hat <= math.exp(upper) + 4 * max(rep.std_err, 1 / rep.trials)


class TestGuaranteeSoundness:
    @pytest.mark.parametrize(
        "model",
        [
            SequencingErrorModel.none(),
            SequencingErrorModel.erasure(0.08),
            SequencingErrorModel.random(0.05),
        ],
    )
    def test_distinct_rule(self, model):
        cb = cap_codebook(N=48)
        hits = 0
        for seed in range(1500):
            out = run_trial(cb, seed % len(cb), model, DIST, seed)
            if all(out.guarantee_flags):
                hits += 1
                assert out.success, (seed, out)
        assert hits > 0

    def test_multiplicity_rule(self):
        cb = cap_codebook(N=128)
        model = SequencingErrorModel.random(0.02)
        hits = 0
        for seed in range(1500):
            out = run_trial(cb, seed % len(cb), model, MULT, seed)
            if all(out.guarantee_flags):
                hits += 1
                assert out.success, (seed, out)
        assert hits > 0
