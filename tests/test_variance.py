"""Closed-form estimator-variance model: frozen values and structural laws."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from episcope.variance import (
    AccuracyPrior,
    EvalDesign,
    estimator_variance,
    estimator_variance_approx,
    per_episode_variance,
    queries_total,
    variance_asymptote,
    variance_report,
)


def priors(min_mean=0.0, max_mean=1.0, allow_zero_std=True):
    """Strategy over valid (mean, std) accuracy priors."""

    def build(mean, frac):
        bound = math.sqrt(mean * (1.0 - mean))
        if not allow_zero_std:
            frac = 0.05 + 0.9 * frac
        return AccuracyPrior(mean=mean, std=frac * bound)

    return st.builds(
        build,
        st.floats(min_mean, max_mean, allow_nan=False),
        st.floats(0.0, 0.95),
    )


class TestFrozenValues:
    def test_exact_variance_published_baseline_design(self):
        """600 episodes x 75 queries at (0.87, 0.05) lands just under 7e-6."""
        prior = AccuracyPrior(0.87, 0.05)
        v = estimator_variance(prior, EvalDesign(600, 75))
        assert v == pytest.approx(6.624444444444444e-06, rel=1e-12)

    def test_exact_variance_wide_query_design(self):
        prior = AccuracyPrior(0.93, 0.028)
        v = estimator_variance(prior, EvalDesign(120, 2975))
        assert v == pytest.approx(6.713490196078432e-06, rel=1e-12)

    def test_single_bernoulli_trial(self):
        """Kp = Kq = 1 with no episode spread is one coin flip."""
        v = estimator_variance(AccuracyPrior(0.5, 0.0), EvalDesign(1, 1))
        assert v == pytest.approx(0.25, abs=0.0)

    def test_approximation_values(self):
        assert estimator_variance_approx(
            AccuracyPrior(0.87, 0.05), EvalDesign(600, 75)
        ) == pytest.approx(6.68e-06, rel=1e-12)
        assert estimator_variance_approx(
            AccuracyPrior(0.93, 0.028), EvalDesign(120, 2975)
        ) == pytest.approx(6.7156862745098045e-06, rel=1e-12)

    def test_asymptote_values(self):
        assert variance_asymptote(AccuracyPrior(0.93, 0.028), 120) == pytest.approx(
            6.533333333333334e-06, rel=1e-12
        )
        assert variance_asymptote(AccuracyPrior(0.87, 0.05), 600) == pytest.approx(
            4.1666666666666676e-06, rel=1e-12
        )
        assert variance_asymptote(AccuracyPrior(0.9, 0.0), 600) == 0.0

    def test_report_bundles_the_three_forms(self):
        prior = AccuracyPrior(0.87, 0.05)
        design = EvalDesign(600, 75)
        report = variance_report(prior, design)
        assert report.exact_var == estimator_variance(prior, design)
        assert report.approx_var == estimator_variance_approx(prior, design)
        assert report.asymptote_var == variance_asymptote(prior, 600)
        assert report.ci95_halfwidth == pytest.approx(1.96 * math.sqrt(report.exact_var))

    def test_report_halfwidth_matches_published_interval(self):
        """At (0.93, 0.028, 120, 2975) the predicted 95% width is ~0.51 points."""
        report = variance_report(AccuracyPrior(0.93, 0.028), EvalDesign(120, 2975))
        assert 100.0 * report.ci95_halfwidth == pytest.approx(0.51, abs=0.02)

    def test_zero_spread_large_kq_collapses_to_zero(self):
        report = variance_report(AccuracyPrior(1.0, 0.0), EvalDesign(600, 10**6))
        assert report.exact_var == 0.0
        assert report.approx_var == 0.0
        assert report.asymptote_var == 0.0
        assert report.ci95_halfwidth == 0.0


class TestValidation:
    def test_mean_outside_unit_interval(self):
        with pytest.raises(ValueError, match="mean"):
            AccuracyPrior(1.2, 0.0)
        with pytest.raises(ValueError, match="mean"):
            AccuracyPrior(-0.1, 0.0)

    @pytest.mark.parametrize("std", [-0.01, math.nan])
    def test_std_must_be_non_negative(self, std):
        with pytest.raises(ValueError, match="prior std must be non-negative"):
            AccuracyPrior(0.5, std)

    def test_std_above_bernoulli_bound(self):
        """No [0,1]-valued variable has std^2 > mean*(1-mean)."""
        with pytest.raises(ValueError, match="exceeds"):
            AccuracyPrior(0.9, 0.4)

    def test_std_bound_allows_float_slack(self):
        bound = math.sqrt(0.5 * 0.5)
        AccuracyPrior(0.5, bound)  # boundary itself is fine

    def test_nonpositive_counts(self):
        with pytest.raises(ValueError, match="episodes"):
            EvalDesign(0, 10)
        with pytest.raises(ValueError, match="queries_per_episode"):
            EvalDesign(10, 0)
        with pytest.raises(ValueError, match="episodes"):
            EvalDesign(-3, 10)

    def test_counts_must_be_integers(self):
        with pytest.raises(ValueError):
            EvalDesign(10.0, 10)

    def test_queries_total(self):
        assert queries_total(15, 5) == 75
        assert queries_total(595, 5) == 2975
        with pytest.raises(ValueError):
            queries_total(0, 5)


class TestStructuralLaws:
    @given(priors(1e-6, 1.0 - 1e-6), st.integers(1, 10_000), st.integers(1, 10_000))
    def test_doubling_episodes_halves_variance_exactly(self, prior, kp, kq):
        """Exact float halving; means are bounded away from 0/1 because
        subnormal intermediate values would break exact division."""
        v1 = estimator_variance(prior, EvalDesign(kp, kq))
        v2 = estimator_variance(prior, EvalDesign(2 * kp, kq))
        assert v2 == v1 / 2.0

    @given(priors(0.01, 0.99), st.integers(1, 5_000), st.integers(1, 5_000))
    def test_symmetry_in_mean(self, prior, kp, kq):
        """Only mean*(1-mean) enters, so a and 1-a give the same variance.

        Tolerance covers the rounding of 1-mean itself, which need not be
        exactly representable.
        """
        flipped = AccuracyPrior(mean=1.0 - prior.mean, std=prior.std)
        design = EvalDesign(kp, kq)
        assert estimator_variance(prior, design) == pytest.approx(
            estimator_variance(flipped, design), rel=1e-12
        )

    @given(priors(), st.integers(1, 2_000), st.integers(1, 2_000))
    def test_ordering_approx_exact_asymptote(self, prior, kp, kq):
        design = EvalDesign(kp, kq)
        exact = estimator_variance(prior, design)
        approx = estimator_variance_approx(prior, design)
        limit = variance_asymptote(prior, kp)
        assert limit <= exact + 1e-18
        assert exact <= approx + 1e-18

    @given(priors(), st.integers(1, 500), st.integers(1, 1_000))
    @settings(max_examples=60)
    def test_nonincreasing_in_queries_with_known_gap(self, prior, kp, kq):
        """The excess over the asymptote is (a(1-a) - sigma^2)/(Kp*Kq)."""
        design = EvalDesign(kp, kq)
        exact = estimator_variance(prior, design)
        wider = estimator_variance(prior, EvalDesign(kp, kq + 1))
        assert wider <= exact + 1e-18
        gap = exact - variance_asymptote(prior, kp)
        expected = (prior.mean * (1 - prior.mean) - prior.variance) / (kp * kq)
        assert gap == pytest.approx(expected, rel=1e-9, abs=1e-18)

    @given(priors(0.01, 0.99, allow_zero_std=False), st.integers(1, 10_000))
    def test_pure_binomial_when_std_zero(self, prior, kq):
        """A zero-spread prior at Kp=1 reduces to binomial noise a(1-a)/Kq."""
        flat = AccuracyPrior(prior.mean, 0.0)
        v = estimator_variance(flat, EvalDesign(1, kq))
        assert v == pytest.approx(flat.mean * (1 - flat.mean) / kq, rel=1e-12)

    @given(priors())
    def test_per_episode_variance_is_kp_1_case(self, prior):
        assert per_episode_variance(prior, 75) == estimator_variance(prior, EvalDesign(1, 75))
