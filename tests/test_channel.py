import gc
import math
import pickle
import weakref

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
        with pytest.raises(DomainError):
            DecoderConfig("distinct_intersection", epsilon=-1.0)
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

    def test_workers_receive_the_cached_scan(self, monkeypatch):
        cb = cap_codebook(J=8)
        model = SequencingErrorModel.random(0.2)
        one = estimate_error_probability(cb, model, DIST, 40_000, 4, workers=1)
        copy = pickle.loads(pickle.dumps(cb))
        assert copy._max_intersection == cb.max_intersection()

        def rescan(_):
            raise AssertionError("separation scan repeated")

        monkeypatch.setattr(codebook, "max_pairwise_intersection", rescan)
        assert channel._Context(copy).cap == cb.max_intersection()[0]
        monkeypatch.undo()
        two = estimate_error_probability(cb, model, DIST, 40_000, 4, workers=2)
        assert one.comparable_dict() == two.comparable_dict()

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
        assert channel._Context(copy).cap == copy._max_intersection[0]

    def test_context_freed_with_its_codebook(self):
        cb = cap_codebook(J=8)
        estimate_error_probability(cb, SequencingErrorModel.none(), DIST, 1_000, 2)
        ctx_ref = weakref.ref(channel._CONTEXTS[cb])
        cb_ref = weakref.ref(cb)
        del cb
        gc.collect()
        assert cb_ref() is None
        assert ctx_ref() is None


ROUTES = ("dense", "sparse", "bits")
SCORE_DTYPES = {"dense": np.float32, "sparse": np.int64, "bits": np.uint8}


def routes_for(rule, inner):
    """The score routes that serve rule at this inner size: the bits route
    serves the distinct-molecule rules up to 64 molecules."""
    if rule != "multiplicity_count" and inner <= 64:
        return ROUTES
    return ROUTES[:2]


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
def small_codebooks(draw):
    """Index codebooks, or multiset codebooks whose codewords draw molecules
    from narrow windows, so multiplicities exceed 1 and supports differ in
    size; codewords may repeat, so scores tie."""
    M = draw(st.integers(2, 6))
    J = draw(st.integers(1, 6))
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
    """The sparse (inverted index), dense (float32 GEMM) and bits (uint64
    popcount) score routes against each other and against plain loops."""

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
            for route in routes_for(rule, ctx.inner):
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
                for route in routes_for(rule, ctx.inner):
                    rng = np.random.default_rng(seed)
                    msgs = rng.integers(0, ctx.J, size=B)
                    out = channel._trials(ctx, model, dec, rng, msgs, N, route)
                    flags = channel._flags(ctx, dec, out, msgs, np.arange(B))
                    out["errors_ok"], out["coverage_ok"] = flags
                    runs.append(out)
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
        out = channel._trials(
            ctx, SequencingErrorModel.none(), dec, rng, msgs, N, "dense"
        )
        rng = np.random.default_rng(seed)
        rng.integers(0, ctx.J, size=B)
        sampled = ctx.expanded[msgs[:, None], rng.integers(0, M, size=(B, N))]
        rows = np.arange(B)
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
        flags = channel._flags(ctx, dec, out, msgs, np.arange(B))
        assert flags[1].tolist() == coverage_ok.tolist()

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
        shape_route = channel._route

        def forced(ctx, model, rule, n):
            if route in routes_for(rule, ctx.inner):
                return route
            return shape_route(ctx, model, rule, n)

        monkeypatch.setattr(channel, "_route", forced)
        got = [run_trial(cb, seed % len(cb), m, d, seed) for cb, m, d, seed in cases]
        assert got == expect

    def test_route_follows_shape(self):
        wide = greedy_index_codebook(
            ScalingParams(M=8, inner_size=1024, N=16, J=64), 3, 64, 1, 10_000
        )
        random = SequencingErrorModel.random(0.5)
        for rule in channel.DECODER_RULES:
            assert channel.score_route(wide, random, rule) == "sparse"
        # the criterion-11 shape: 64 molecules fit one word
        narrow = greedy_index_codebook(
            ScalingParams(M=16, inner_size=64, N=32, J=64), 12, 64, 20, 100_000
        )
        for model in route_models(len(narrow)):
            for rule in ("distinct_intersection", "unique_superset"):
                assert channel.score_route(narrow, model, rule) == "bits"
            assert channel.score_route(narrow, model, "multiplicity_count") == "dense"
        # float32 stops holding every integer score from 2^24 reads on
        none, mult = SequencingErrorModel.none(), "multiplicity_count"
        assert channel.score_route(narrow, none, mult, n_reads=(1 << 24) - 1) == "dense"
        assert channel.score_route(narrow, none, mult, n_reads=1 << 24) == "sparse"
        assert channel.score_route(narrow, none, DIST.rule, n_reads=1 << 24) == "bits"

    @pytest.mark.parametrize("inner", [3, 63, 64])
    def test_bits_route_drops_the_sentinel(self, inner):
        # the erasure sentinel inner lies inside the word below 64 molecules
        # and is shifted out of it at 64; either way it is no molecule
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
            scores, sizes = channel._scores(ctx, rule, reads, "bits")
            assert scores.tolist() == [[len(o & s) for s in supports] for o in observed]
        assert sizes.tolist() == [2, 0, 2]

    def test_dense_route_keeps_to_its_cell_budget(self, monkeypatch):
        # two disjoint codewords of 2^11 molecules out of 2^16: the shape
        # rule alone reads dense, but a chunk's B x (inner+1) occupancy
        # arrays would hold 2^30 cells
        M, inner = 1 << 11, 1 << 16
        sc = ScalingParams(M=M, inner_size=inner, N=M, J=2)
        halves = (range(M), range(M, 2 * M))
        cb = Codebook(sc, tuple(map(Codeword.from_molecules, halves)), False)
        none = SequencingErrorModel.none()
        assert channel.score_route(cb, none, DIST.rule) == "sparse"
        monkeypatch.setattr(channel, "_DENSE_CELLS", 1 << 40)
        assert channel.score_route(cb, none, DIST.rule) == "dense"


    @settings(max_examples=100, deadline=None)
    @given(cb=small_codebooks())
    def test_context_arrays_match_codewords(self, cb):
        ctx = channel._Context(cb)
        cws = cb.codewords
        sizes = np.array([len(cw.pairs) for cw in cws])
        assert np.array_equal(ctx.expanded, np.stack([cw.expand() for cw in cws]))
        assert np.array_equal(ctx.support_mask, np.arange(sizes.max()) < sizes[:, None])
        if (sizes == ctx.M).all():
            assert ctx.positions is None
        else:
            positions = [
                np.repeat(np.arange(len(cw.pairs)), [m for _, m in cw.pairs])
                for cw in cws
            ]
            assert np.array_equal(ctx.positions, np.stack(positions))
        assert ctx.inv_ptr.shape == (ctx.inner + 2,)
        assert ctx.nnz == sizes.sum() == ctx.inv_ptr[-1]
        for m in range(ctx.inner + 1):
            holders = [j for j, cw in enumerate(cws) if m in cw.support]
            assert ctx.inv_idx[ctx.inv_ptr[m] : ctx.inv_ptr[m + 1]].tolist() == holders


def shared_molecule_codebook(J=500, M=64, inner=4096, shared=56):
    """Codewords that share their first `shared` molecules: a read of one
    of them touches J index entries."""
    own = M - shared
    rows = [list(range(shared)) + list(range(shared + own * j, shared + own * (j + 1)))
            for j in range(J)]
    sc = ScalingParams(M=M, inner_size=inner, N=M, J=J)
    return Codebook(sc, tuple(map(Codeword.from_molecules, rows)), False)


class TestScoreCapacity:
    def test_wide_codebook_raises_before_scoring(self):
        # 400k two-molecule index codewords, built straight from arrays: a
        # chunk of 256 trials needs 256 x J > 1e8 int64 scores
        J, group = 400_000, 640
        k = np.arange(J)
        cb = Codebook(
            ScalingParams(M=2, inner_size=2 * group, N=4, J=J),
            index_based=True,
            group_size=group,
            molecules=np.stack([k // group, group + k % group], axis=1),
            mults=np.ones((J, 2), dtype=np.int64),
            sizes=np.full(J, 2),
        )
        none = SequencingErrorModel.none()
        assert channel.score_route(cb, none, DIST.rule) == "sparse"
        with pytest.raises(CapacityError, match="256 x 400000 scores"):
            estimate_error_probability(cb, none, DIST, 256, 1)

    def test_shared_molecules_raise_on_index_entries(self):
        cb = shared_molecule_codebook()
        none = SequencingErrorModel.none()
        assert channel.score_route(cb, none, DIST.rule) == "sparse"
        with pytest.raises(CapacityError, match="index entries"):
            estimate_error_probability(cb, none, DIST, 10_000, 1)
        # fewer trials per chunk touch fewer entries
        assert estimate_error_probability(cb, none, DIST, 500, 1).trials == 500


def full_jitter_trials(ctx, model, dec, rng, msgs, N, route):
    """The kernel as it was before the tie-break drew for tied rows only:
    every row adds one jitter uniform per codeword to its scores and takes
    the argmax, and flags and causes are computed for every row.  Kept here
    as the reference the tie-break is checked against."""
    M, inner, J = ctx.M, ctx.inner, ctx.J
    B = msgs.size
    rows = np.arange(B)
    sample_idx = rng.integers(0, M, size=(B, N))
    sampled = ctx.expanded[msgs[:, None], sample_idx]
    if ctx.positions is None:
        positions = sample_idx
    else:
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
        coverage_ok = distinct_count > ctx.cap
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
                routes = routes_for(rule, ctx.inner)
                route = routes[seed % len(routes)]
                rng = np.random.default_rng(seed)
                msgs = rng.integers(0, ctx.J, size=B)
                new = channel._trials(ctx, model, dec, rng, msgs, N, route)
                rng = np.random.default_rng(seed)
                rng.integers(0, ctx.J, size=B)
                old = full_jitter_trials(ctx, model, dec, rng, msgs, N, route)
                for key in ("tie", "distinct", "errors"):
                    assert np.array_equal(new[key], old[key]), (model, rule, key)
                flags = channel._flags(ctx, dec, new, msgs, rows)
                assert np.array_equal(flags[0], old["errors_ok"])
                assert np.array_equal(flags[1], old["coverage_ok"])
                untied = ~new["tie"]
                assert np.array_equal(new["decoded"][untied], old["decoded"][untied])
                scores = old["scores"]
                top = scores.max(axis=1)
                assert (scores[rows, new["decoded"]] == top)[new["tie"]].all()
                # a cause is a function of the flags for rows wrong in both
                wrong = np.flatnonzero(new["wrong"])
                cause = np.zeros(B, dtype=np.int8)
                cause[wrong] = channel._failure_cause(
                    new["tie"][wrong], *channel._flags(ctx, dec, new, msgs, wrong)
                )
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
        out = channel._trials(ctx, model, DecoderConfig(rule), rng, msgs, 8, route)
        assert out["tie"].all()
        freq = np.bincount(out["decoded"], minlength=k) / trials
        sigma = math.sqrt((1 / k) * (1 - 1 / k) / trials)
        assert np.abs(freq - 1 / k).max() <= 4 * sigma, freq


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
