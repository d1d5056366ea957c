import itertools
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from dnastore import codebook as codebook_module
from dnastore.codebook import (
    Codebook,
    Codeword,
    codebook_to_dict,
    compute_separation_bounds,
    greedy_index_codebook,
    k1_upper_bound,
    k2_lower_bound,
    k3_lower_bound,
    load_codebook,
    max_pairwise_intersection,
    repetition_codebook,
    save_codebook,
    verify_multiset_k2,
)
from dnastore.errors import DomainError, ShortfallError
from dnastore.params import ScalingParams


def scaling(M=16, inner=64, N=32, J=None, R0=None):
    return ScalingParams(M=M, inner_size=inner, N=N, J=J, R0=R0)


class TestCodeword:
    def test_canonical_form(self):
        cw = Codeword.from_molecules([3, 1, 3])
        assert cw.pairs == ((1, 1), (3, 2))
        assert cw.size == 3
        assert cw.support == (1, 3)
        assert list(cw.expand()) == [1, 3, 3]

    def test_equality_ignores_order(self):
        assert Codeword.from_molecules([2, 0, 2]) == Codeword.from_molecules([2, 2, 0])

    def test_rejects_bad_pairs(self):
        with pytest.raises(DomainError):
            Codeword(((3, 1), (1, 1)))
        with pytest.raises(DomainError):
            Codeword(((1, 0),))

    def test_intersection_identical(self):
        cw = Codeword.from_molecules(range(8))
        assert cw.intersection_size(cw) == 8

    def test_intersection_disjoint(self):
        a = Codeword.from_molecules(range(4))
        b = Codeword.from_molecules(range(4, 8))
        assert a.intersection_size(b) == 0

    def test_intersection_min_multiplicity(self):
        a = Codeword.from_molecules([0, 0, 1])
        b = Codeword.from_molecules([0, 1, 1])
        assert a.intersection_size(b) == 2


class TestGreedyConstruction:
    def test_trivial_cap_never_blocks(self):
        sc = scaling(M=4, inner=16, N=8)
        cb = greedy_index_codebook(sc, 4, target_J=20, seed=3, attempt_budget=200)
        assert len(cb) == 20
        assert cb.index_based and cb.group_size == 4

    def test_cap_respected_exhaustively(self):
        sc = scaling(M=16, inner=64, N=32)
        cb = greedy_index_codebook(sc, 12, target_J=200, seed=9, attempt_budget=20_000)
        value, _ = max_pairwise_intersection(cb)
        assert value <= 12

    def test_disjoint_pair(self):
        sc = scaling(M=2, inner=4, N=4)
        cb = greedy_index_codebook(sc, 0, target_J=2, seed=1, attempt_budget=100)
        a, b = cb.codewords
        assert a.intersection_size(b) == 0
        # one molecule from each group in both codewords
        assert {a.support[0], b.support[0]} == {0, 1}
        assert {a.support[1], b.support[1]} == {2, 3}

    def test_shortfall_carries_partial(self):
        sc = scaling(M=2, inner=4, N=4)
        with pytest.raises(ShortfallError) as info:
            greedy_index_codebook(sc, 0, target_J=3, seed=1, attempt_budget=500)
        assert info.value.achieved == 2
        assert info.value.target == 3
        assert len(info.value.partial) == 2

    def test_duplicates_always_blocked(self):
        # cap = M would allow identical codewords; distinctness still enforced
        sc = scaling(M=2, inner=4, N=4)
        cb = greedy_index_codebook(sc, 2, target_J=4, seed=0, attempt_budget=10_000)
        assert len(set(cb.codewords)) == 4

    def test_budget_validation(self):
        sc = scaling(M=4, inner=16, N=8)
        with pytest.raises(DomainError):
            greedy_index_codebook(sc, 2, target_J=10, seed=0, attempt_budget=5)

    def test_group_divisibility_required(self):
        sc = scaling(M=3, inner=16, N=8)
        with pytest.raises(DomainError, match="divisible"):
            greedy_index_codebook(sc, 1, target_J=2, seed=0, attempt_budget=10)

    def test_deterministic_in_seed(self):
        sc = scaling(M=8, inner=32, N=16)
        cb1 = greedy_index_codebook(sc, 6, target_J=50, seed=42, attempt_budget=5000)
        cb2 = greedy_index_codebook(sc, 6, target_J=50, seed=42, attempt_budget=5000)
        assert cb1.codewords == cb2.codewords

    def test_generous_cap_reaches_target_within_budget(self):
        # the candidate space is far larger than what each accepted codeword
        # blocks, so the randomized greedy must not shortfall here
        sc = scaling(M=8, inner=32, N=16)
        cb = greedy_index_codebook(sc, 5, target_J=256, seed=11, attempt_budget=100_000)
        assert len(cb) == 256
        assert max_pairwise_intersection(cb)[0] <= 5

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(2, 5),
        group=st.integers(2, 4),
        cap=st.integers(0, 5),
        target=st.integers(1, 30),
        seed=st.integers(0, 1000),
    )
    def test_build_caches_the_scan(self, M, group, cap, target, seed):
        sc = scaling(M=M, inner=M * group, N=2 * M)
        try:
            cb = greedy_index_codebook(sc, cap, target, seed, attempt_budget=300)
        except ShortfallError as exc:
            cb = exc.partial
        if len(cb) < 2:
            assert cb._max_intersection is None
        else:
            assert cb._max_intersection == max_pairwise_intersection(cb)


class TestRepetitionConstruction:
    def test_multiplicities_sum_to_m(self):
        sc = scaling(M=16, inner=64, N=32)
        cb = repetition_codebook(sc, 0.5, target_J=20, seed=1)
        assert not cb.index_based
        for cw in cb.codewords:
            assert len(cw.pairs) == 4
            assert all(mult == 4 for _, mult in cw.pairs)
            assert cw.size == 16

    def test_remainder_spread_from_lowest(self):
        # M = 10, M' = round(10^0.5) = 3: multiplicities 4, 3, 3
        sc = scaling(M=10, inner=30, N=20)
        cb = repetition_codebook(sc, 0.5, target_J=5, seed=2)
        for cw in cb.codewords:
            assert [mult for _, mult in cw.pairs] == [4, 3, 3]
            assert cw.size == 10

    def test_degenerate_t_reduces_to_index(self):
        sc = scaling(M=16, inner=64, N=32)
        cb = repetition_codebook(sc, 0.99, target_J=10, seed=3)
        assert cb.index_based
        assert all(mult == 1 for cw in cb.codewords for _, mult in cw.pairs)

    def test_disjoint_supports_have_zero_intersection(self):
        a = Codeword(((0, 8), (1, 8)))
        b = Codeword(((2, 8), (3, 8)))
        assert a.intersection_size(b) == 0

    def test_indivisible_support_rejected(self):
        sc = scaling(M=8, inner=18, N=16)
        # M' = round(8^0.5) = 3 does not divide 18? it does; use t giving M'=5
        with pytest.raises(DomainError, match="divisible"):
            repetition_codebook(sc, 0.78, target_J=4, seed=0)  # M' = 5

    def test_sampling_equivalence_chi_squared(self):
        # reads drawn from a repetition codeword must hit its support exactly
        # like uniform draws over the bare support
        rng = np.random.Generator(np.random.Philox(key=77))
        sc = scaling(M=16, inner=64, N=8)
        cb = repetition_codebook(sc, 0.5, target_J=4, seed=5)
        cw = cb.codewords[0]
        expanded = cw.expand()
        support = np.array(cw.support)
        trials = 100_000
        reads_rep = expanded[rng.integers(0, 16, size=(trials, 8))]
        reads_sup = support[rng.integers(0, 4, size=(trials, 8))]
        def distinct_hist(reads):
            srt = np.sort(reads, axis=1)
            distinct = 1 + (np.diff(srt, axis=1) != 0).sum(axis=1)
            return np.bincount(distinct, minlength=5)
        h1 = distinct_hist(reads_rep)
        h2 = distinct_hist(reads_sup)
        keep = (h1 + h2) > 10
        stat = ((h1[keep] - h2[keep]) ** 2 / (h1[keep] + h2[keep])).sum()
        dof = int(keep.sum()) - 1
        assert chi2.sf(stat, dof) > 1e-3


class TestMaxIntersection:
    def test_needs_two_codewords(self):
        sc = scaling(M=2, inner=4, N=4)
        cb = Codebook(sc, (Codeword.from_molecules([0, 2]),), False)
        with pytest.raises(DomainError):
            max_pairwise_intersection(cb)

    def test_lexicographic_witness(self):
        sc = scaling(M=2, inner=4, N=4)
        cws = (
            Codeword.from_molecules([0, 2]),
            Codeword.from_molecules([0, 3]),
            Codeword.from_molecules([1, 2]),
            Codeword.from_molecules([1, 3]),
        )
        cb = Codebook(sc, cws, False)
        value, pair = max_pairwise_intersection(cb)
        assert value == 1
        assert pair == (0, 1)  # first attaining pair in lexicographic order

    def test_multiset_pairwise(self):
        sc = scaling(M=3, inner=4, N=4)
        cws = (
            Codeword.from_molecules([0, 0, 1]),
            Codeword.from_molecules([0, 1, 1]),
            Codeword.from_molecules([2, 3, 3]),
        )
        cb = Codebook(sc, cws, False)
        value, pair = max_pairwise_intersection(cb)
        assert (value, pair) == (2, (0, 1))

    def test_index_duplicates_stop_at_first_full_pair(self):
        sc = scaling(M=2, inner=4, N=4)
        cws = tuple(
            Codeword.from_molecules(m) for m in ([0, 2], [1, 3], [0, 3], [1, 3], [0, 2])
        )
        cb = Codebook(sc, cws, True, group_size=2, validate_distinct=False)
        assert max_pairwise_intersection(cb) == (2, (0, 4))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_index_agreement_scan_matches_dense_and_pairwise(self, data):
        M = data.draw(st.integers(2, 5))
        group = data.draw(st.integers(2, 4))
        J = data.draw(st.integers(2, 40))
        # codewords drawn from a small pool, so rows repeat and maxima tie
        pool = data.draw(
            st.lists(
                st.lists(st.integers(0, group - 1), min_size=M, max_size=M),
                min_size=1,
                max_size=J,
            )
        )
        picks = data.draw(
            st.lists(st.integers(0, len(pool) - 1), min_size=J, max_size=J)
        )
        cws = tuple(
            Codeword.from_molecules(g * group + pool[k][g] for g in range(M))
            for k in picks
        )
        sc = scaling(M=M, inner=M * group, N=2 * M)
        index_cb = Codebook(sc, cws, True, group_size=group, validate_distinct=False)
        dense_cb = Codebook(sc, cws, False, validate_distinct=False)
        got = max_pairwise_intersection(index_cb)
        assert got == max_pairwise_intersection(dense_cb)
        with mock.patch.object(codebook_module, "_DENSE_SCAN_CELLS", 0):
            assert got == max_pairwise_intersection(dense_cb)
        best, pair = -1, None
        for i, j in itertools.combinations(range(J), 2):
            v = cws[i].intersection_size(cws[j])
            if v > best:
                best, pair = v, (i, j)
        assert got == (best, pair)


class TestK1Bound:
    def test_worked_example(self):
        J = round(math.exp(100**0.6))
        assert k1_upper_bound(100, J, 1.5, 0.5) == 272

    def test_single_message(self):
        M, alpha, cp = 50, 1.5, 0.25
        expected = math.ceil(math.e * M ** (2 - alpha + cp) - 1e-9)
        assert k1_upper_bound(M, 1, alpha, cp) == expected

    def test_inverse_log_substitution_scaling(self):
        # c' = 1/log(M) turns the bound into Theta(M^(2-alpha)); the ceiling
        # contributes at most 1/M^(2-alpha) on top of e*e
        excesses = []
        for M in (100, 1000, 10_000):
            J = int(math.exp(M**0.5))
            bound = k1_upper_bound(M, J, 1.5, 1.0 / math.log(M))
            ratio = bound / M**0.5
            assert 1.0 < ratio <= math.e * math.e + 1.0 / M**0.5 + 1e-9
            excesses.append(ratio - math.e * math.e)
        assert excesses[0] > excesses[-1]

    def test_validation(self):
        with pytest.raises(DomainError):
            k1_upper_bound(100, 10, 1.0, 0.5)
        with pytest.raises(DomainError):
            k1_upper_bound(100, 10, 1.5, 0.0)


class TestK2Bound:
    def test_worked_example(self):
        assert k2_lower_bound(100, 2 * 100**6, 1.5) == 4

    def test_two_messages(self):
        assert k2_lower_bound(100, 2, 1.5) == 0

    def test_tiny_case_value(self):
        assert k2_lower_bound(2, 10, 2.0) == 1

    def test_hypothesis_guard(self):
        # alpha = 3, M = 3: the cap is J <= 2 * 3^9
        assert k2_lower_bound(3, 2 * 3**9, 3.0) >= 0
        with pytest.raises(DomainError, match="hypothesis"):
            k2_lower_bound(3, 2 * 3**9 + 700, 3.0)

    def test_pigeonhole_tiny_exhaustive(self):
        # all 10 size-2 multisets over 4 molecules: every 5 of them contain a
        # pair meeting the bound
        cws = [
            Codeword.from_molecules(pair)
            for pair in itertools.combinations_with_replacement(range(4), 2)
        ]
        assert len(cws) == 10
        bound = k2_lower_bound(2, 10, 2.0)
        for subset in itertools.combinations(cws, 5):
            best = max(
                a.intersection_size(b) for a, b in itertools.combinations(subset, 2)
            )
            assert best >= bound


class TestK3Bound:
    def test_worked_example(self):
        assert k3_lower_bound(8, 18, 4.0 / 3.0) == pytest.approx(3.0, abs=1e-9)

    def test_large_j_limit(self):
        assert k3_lower_bound(8, 10**15, 4.0 / 3.0) == pytest.approx(4.0, abs=1e-6)

    def test_fractional_example(self):
        got = k3_lower_bound(4, 65, 1.5)
        assert got == pytest.approx(2.0 - 4.0 / 31.5, abs=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            k3_lower_bound(8, 18, 2.0)
        with pytest.raises(DomainError):
            k3_lower_bound(8, 3, 1.5)

    def test_random_codebooks_respect_bound(self):
        rng = np.random.Generator(np.random.Philox(key=123))
        bound = math.ceil(k3_lower_bound(4, 65, 1.5) - 1e-9)
        for _ in range(200):
            rows = {tuple(sorted(rng.choice(8, size=4, replace=False))) for _ in range(40)}
            while len(rows) < 32:
                rows.add(tuple(sorted(rng.choice(8, size=4, replace=False))))
            rows = list(rows)[:32]
            best = max(
                len(set(a) & set(b)) for a, b in itertools.combinations(rows, 2)
            )
            assert best >= bound

    def test_separation_minimizing_codebook_respects_bound(self):
        # a greedy build actively minimizes intersections, yet the forced
        # separation survives: 9 no-multiset codewords at M = 8, inner 16
        sc = ScalingParams(M=8, inner_size=16, N=16, J=18)
        bound = math.ceil(k3_lower_bound(8, 18, sc.alpha) - 1e-9)
        for seed in range(30):
            cb = greedy_index_codebook(sc, 8, target_J=9, seed=seed, attempt_budget=900)
            assert max_pairwise_intersection(cb)[0] >= bound


class TestMultisetSeparation:
    def test_identical_codewords_trivially_pass(self):
        sc = scaling(M=8, inner=16, N=16, J=600)
        cw = Codeword.from_molecules([0] * 4 + [1] * 4)
        cb = Codebook(sc, (cw, cw), False, validate_distinct=False)
        report = verify_multiset_k2(cb)
        assert report.observed == 8
        assert report.passed

    def test_repetition_codebook_passes(self):
        sc = ScalingParams(M=8, inner_size=16, N=16, J=600)
        cb = repetition_codebook(sc, 2.0 / 3.0, target_J=40, seed=4)
        report = verify_multiset_k2(cb)
        assert report.passed
        assert report.bound == min(report.branch_low_mult, report.branch_high_mult)

    def test_random_multiset_codebook(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        sc = ScalingParams(M=8, inner_size=16, N=16, J=600)
        seen = set()
        while len(seen) < 300:
            seen.add(Codeword.from_molecules(rng.integers(0, 16, size=8)))
        cb = Codebook(sc, tuple(seen), False)
        report = verify_multiset_k2(cb)
        assert report.passed
        assert report.observed >= report.bound

    def test_hypothesis_guard(self):
        sc = ScalingParams(M=8, inner_size=16, N=16, J=100)
        cb = repetition_codebook(sc, 2.0 / 3.0, target_J=10, seed=4)
        with pytest.raises(DomainError, match="hypothesis"):
            verify_multiset_k2(cb)

    def test_needs_explicit_message_count(self):
        sc = ScalingParams(M=8, inner_size=16, N=16, R0=0.5)
        cb = repetition_codebook(sc, 2.0 / 3.0, target_J=10, seed=4)
        with pytest.raises(DomainError, match="message count"):
            verify_multiset_k2(cb)


class TestCodebookValidation:
    def test_wrong_size_rejected(self):
        sc = scaling(M=4, inner=16, N=8)
        with pytest.raises(DomainError, match="size"):
            Codebook(sc, (Codeword.from_molecules([0, 4, 8]),), False)

    def test_out_of_range_molecule(self):
        sc = scaling(M=2, inner=4, N=4)
        with pytest.raises(DomainError, match="range"):
            Codebook(sc, (Codeword.from_molecules([0, 7]),), False)

    def test_index_structure_enforced(self):
        sc = scaling(M=2, inner=4, N=4)
        with pytest.raises(DomainError, match="group"):
            Codebook(sc, (Codeword.from_molecules([0, 1]),), True, group_size=2)

    def test_duplicates_rejected_by_default(self):
        sc = scaling(M=2, inner=4, N=4)
        cw = Codeword.from_molecules([0, 2])
        with pytest.raises(DomainError, match="distinct"):
            Codebook(sc, (cw, cw), False)


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        sc = scaling(M=8, inner=32, N=16, J=100)
        cb = greedy_index_codebook(sc, 6, target_J=25, seed=8, attempt_budget=2500)
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        loaded = load_codebook(path)
        assert codebook_to_dict(loaded) == codebook_to_dict(cb)
        path2 = tmp_path / "cb2.json"
        save_codebook(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        sc = scaling(M=8, inner=32, N=16, J=100)
        cb = greedy_index_codebook(sc, 6, target_J=5, seed=8, attempt_budget=2500)
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        before = path.read_bytes()
        monkeypatch.setattr(
            codebook_module, "codebook_to_dict", lambda _: {"a": 1, "b": object()}
        )
        with pytest.raises(TypeError):
            save_codebook(cb, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cb.json"]

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "codewords": []}))
        with pytest.raises(DomainError, match="version"):
            load_codebook(path)


class TestSeparationSummary:
    def test_notes_collect_hypothesis_failures(self):
        rep = compute_separation_bounds(M=8, J=18, alpha=4.0 / 3.0)
        assert rep.K1_upper is not None
        assert rep.K2_lower is not None
        assert rep.K3_lower == pytest.approx(3.0, abs=1e-9)
        rep2 = compute_separation_bounds(M=8, J=3, alpha=4.0 / 3.0)
        assert rep2.K3_lower is None
        assert any("K3" in note for note in rep2.notes)
