import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnastore.errors import DomainError
from dnastore.exponents import (
    ExponentParams,
    binary_kl,
    exponent_multinomial,
    exponent_poisson,
    expected_distinct_fraction,
    lowrate_prediction,
    rate_threshold,
    solve_r,
)
from dnastore.params import ScalingParams


def f_of(c, delta):
    return exponent_multinomial(ExponentParams(c, delta)).f_value


def oracle_root(c, delta, tol=1e-15):
    """Independent bisection on x(1 - e^(-c/x)) - delta over [delta, 1]."""
    lo, hi = delta, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * (1.0 - math.exp(-c / mid)) < delta:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestSolveR:
    def test_boundary_ln2(self):
        # delta exactly equals 1 - e^-c, so the root sits at the right endpoint
        assert solve_r(ExponentParams(math.log(2.0), 0.5)) == 1.0

    def test_boundary_half(self):
        delta = 1.0 - math.exp(-0.5)
        assert solve_r(ExponentParams(0.5, delta)) == 1.0

    def test_interior_point(self):
        r = solve_r(ExponentParams(1.5, 0.5), tol=1e-12)
        assert abs(expected_distinct_fraction(r, 1.5) - 0.5) <= 1e-12
        assert abs(r - oracle_root(1.5, 0.5)) < 1e-9
        assert round(r, 4) == 0.5316

    def test_rejects_zero_exponent_region(self):
        with pytest.raises(DomainError, match="zero-exponent"):
            solve_r(ExponentParams(1.5, 0.9))

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="tol"):
                solve_r(ExponentParams(1.5, 0.5), tol=tol)
            # the zero-exponent region solves for no root, but checks tol too
            with pytest.raises(DomainError, match="tol"):
                exponent_multinomial(ExponentParams(0.1, 0.9), tol=tol)

    @given(
        c=st.floats(0.1, 5.0),
        delta=st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_residual_and_range(self, c, delta):
        if 1.0 - math.exp(-c) < delta:
            return
        r = solve_r(ExponentParams(c, delta), tol=1e-12)
        assert delta < r <= 1.0 or r == 1.0
        assert abs(expected_distinct_fraction(r, c) - delta) <= 1e-12


class TestMultinomialExponent:
    def test_boundary_is_zero(self):
        res = exponent_multinomial(ExponentParams(math.log(2.0), 0.5))
        assert res.regime == "positive_exponent"
        assert res.f_value <= 1e-9

    def test_zero_exponent_regime(self):
        res = exponent_multinomial(ExponentParams(1.5, 0.9))
        assert res.regime == "zero_exponent"
        assert res.f_value == 0.0
        assert res.r is None

    def test_interior_value(self):
        res = exponent_multinomial(ExponentParams(1.5, 0.5))
        r = oracle_root(1.5, 0.5)
        h2 = lambda x: -x * math.log(x) - (1 - x) * math.log(1 - x)
        expected = -1.5 * math.log(r) - h2(0.5) + r * h2(0.5 / r)
        assert res.f_value == pytest.approx(expected, abs=1e-9)
        assert res.f_value == pytest.approx(0.3747, abs=1e-3)

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 1.5, 5.0])
    def test_nonnegative_on_grid(self, c):
        for delta in [0.05, 0.2, 0.5, 0.8, 0.95]:
            assert f_of(c, delta) >= 0.0


class TestPoissonExponent:
    def test_boundary_zero(self):
        delta = 1.0 - math.exp(-1.5)
        assert exponent_poisson(ExponentParams(1.5, delta)) == pytest.approx(0.0, abs=1e-12)

    def test_interior_value(self):
        got = exponent_poisson(ExponentParams(1.5, 0.5))
        b = math.exp(-1.5)
        expected = 0.5 * math.log(0.5 / b) + 0.5 * math.log(0.5 / (1 - b))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.1831, abs=1e-4)

    def test_tiny_delta_approaches_coverage(self):
        assert exponent_poisson(ExponentParams(1.5, 1e-9)) == pytest.approx(1.5, abs=1e-6)

    def test_kl_conventions(self):
        assert binary_kl(0.0, 0.5) == pytest.approx(math.log(2.0))
        assert binary_kl(1.0, 0.5) == pytest.approx(math.log(2.0))


class TestRateThreshold:
    def test_large_coverage(self):
        assert rate_threshold(50.0, 1.0, 2.0) == pytest.approx(0.5, abs=1e-9)

    def test_unit_coverage(self):
        expected = (1.0 - math.exp(-1.0)) * 0.5
        assert rate_threshold(1.0, 1.0, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_capacity_term_rejected(self):
        with pytest.raises(DomainError, match="capacity"):
            rate_threshold(1.0, 0.4, 2.5)  # inner_capacity == 1/beta


class TestShapeProperties:
    @pytest.mark.parametrize("c", [0.1, 0.5, 1.5, 5.0])
    def test_psi_strictly_increasing(self, c):
        xs = [0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5]
        vals = [expected_distinct_fraction(x, c) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_f_continuous_in_delta(self):
        c = 1.5
        gaps = []
        for h in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            gaps.append(abs(f_of(c, 0.4) - f_of(c, 0.4 + h)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-5

    @pytest.mark.parametrize("c", [0.5, 1.5])
    def test_multinomial_dominates_poisson(self, c):
        deltas = [0.01 * k for k in range(1, 100)] + [1e-8, 1e-6, 1e-4]
        for delta in deltas:
            p = ExponentParams(c, delta)
            assert exponent_multinomial(p).f_value >= exponent_poisson(p) - 1e-12

    def test_small_delta_gap_shrinks(self):
        c = 1.5
        gaps = [abs(f_of(c, d) - c * math.log(1.0 / d)) for d in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_large_c_gap_bounded(self):
        delta = 0.3
        gaps = [abs(f_of(c, delta) - c * math.log(1.0 / delta)) for c in (2, 5, 10, 20, 50)]
        assert max(gaps) < 0.7  # stays within the entropy scale

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 1.5, 5.0])
    def test_zero_at_transition(self, c):
        assert f_of(c, 1.0 - math.exp(-c)) <= 1e-9


class TestLowRatePredictions:
    def test_superlinear(self):
        scaling = ScalingParams(M=64, inner_size=512, N=256, R0=0.5)
        pred = lowrate_prediction("superlinear", scaling)
        assert pred.normalizer == "N"
        assert pred.predicted_limit == pytest.approx(math.log(2.0), rel=1e-12)

    def test_superlinear_needs_many_reads(self):
        scaling = ScalingParams(M=64, inner_size=512, N=32, R0=0.5)
        with pytest.raises(DomainError, match="N > M"):
            lowrate_prediction("superlinear", scaling)

    def test_constant_rate_matches_exponent(self):
        scaling = ScalingParams(M=64, inner_size=512, N=96, R0=0.5)
        pred = lowrate_prediction("constant_rate", scaling)
        assert pred.normalizer == "M"
        assert pred.predicted_limit == pytest.approx(f_of(1.5, 0.5), rel=1e-12)

    def test_noerr_coefficient(self):
        # J = exp(M^s) with s = 0.5, alpha = 1.8
        scaling = ScalingParams(M=100, inner_size=3981, N=500, J=round(math.exp(10.0)))
        pred = lowrate_prediction("lowrate_noerr", scaling)
        assert pred.normalizer == "N*log(M)"
        assert pred.predicted_limit == pytest.approx(0.5, abs=1e-4)

    def test_noerr_hypothesis_checked(self):
        # s = 0.3 < 2 - alpha = 0.5 violates the regime
        scaling = ScalingParams(M=100, inner_size=1000, N=500, J=54)
        with pytest.raises(DomainError, match="lowrate_noerr"):
            lowrate_prediction("lowrate_noerr", scaling)

    def test_no_multiset_coefficient(self):
        # alpha = 1.5, 2 M^alpha < J <= exp(M^0.5)
        scaling = ScalingParams(M=100, inner_size=1000, N=500, J=10_000)
        pred = lowrate_prediction("lowrate_no_multiset", scaling)
        assert pred.predicted_limit == pytest.approx(0.5, rel=1e-12)

    def test_multiset_coefficient(self):
        scaling = ScalingParams(M=100, inner_size=1000, N=500, J=54)
        pred = lowrate_prediction("lowrate_multiset", scaling)
        assert pred.predicted_limit == pytest.approx(0.6, abs=5e-3)

    def test_sequencing_error_rows(self):
        # s ~ 0.78 > 2 - alpha = 0.5, p small enough that 1/p wins nowhere
        scaling = ScalingParams(
            M=100, inner_size=1000, N=500, J=round(math.exp(36.0)), p_seq=0.25
        )
        ratio = 100 * math.log(100) / 36.0
        erasure = lowrate_prediction("lowrate_erasure", scaling)
        assert erasure.predicted_limit == pytest.approx(math.log(min(4.0, ratio)))
        random_row = lowrate_prediction("lowrate_random", scaling)
        assert random_row.predicted_limit == erasure.predicted_limit
        adv = lowrate_prediction("lowrate_adversarial", scaling)
        assert adv.predicted_limit == pytest.approx(math.log(min(2.0, ratio)))
        adv_tab = lowrate_prediction(
            "lowrate_adversarial", scaling, adversarial_table_variant=True
        )
        assert adv_tab.predicted_limit == pytest.approx(math.log(min(4.0, ratio)))

    def test_sequencing_rows_need_positive_p(self):
        scaling = ScalingParams(M=100, inner_size=1000, N=500, J=round(math.exp(36.0)))
        with pytest.raises(DomainError, match="p_seq"):
            lowrate_prediction("lowrate_erasure", scaling)

    def test_unknown_tag(self):
        scaling = ScalingParams(M=64, inner_size=512, N=96, R0=0.5)
        with pytest.raises(DomainError, match="unknown regime"):
            lowrate_prediction("bogus", scaling)
