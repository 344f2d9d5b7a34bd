"""Monte Carlo simulator: Beta fit, moment agreement, determinism."""

import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from episcope import montecarlo
from episcope.montecarlo import (
    SimConfig,
    decompose_variance,
    episode_counts,
    fit_beta,
    simulate,
    sweep,
)
from episcope.seeds import philox_generator
from episcope.variance import AccuracyPrior, EvalDesign, estimator_variance


def config(mean, std, kp, kq, reps, seed):
    return SimConfig(
        prior=AccuracyPrior(mean, std),
        design=EvalDesign(episodes=kp, queries_per_episode=kq),
        replications=reps,
        master_seed=seed,
    )


def exact_cdf(prior, kq):
    """The count CDF in exact rational arithmetic, each entry rounded once to float.

    The same recurrence as ``_count_pmf``, pmf[k+1] / pmf[k] = (Kq-k)/(k+1) *
    s_k, over ``Fraction``: alpha, beta and the mean are floats, so their
    fractions are exact, and so is every later step.
    """
    alpha_beta = fit_beta(prior)
    p = Fraction(prior.mean)
    if alpha_beta is not None:
        a, b = map(Fraction, alpha_beta)
    pmf = [Fraction(1)]
    for k in range(kq):
        s = p / (1 - p) if alpha_beta is None else (k + a) / (kq - k - 1 + b)
        pmf.append(pmf[-1] * Fraction(kq - k, k + 1) * s)
    total, running, cdf = sum(pmf), Fraction(0), []
    for term in pmf:
        running += term
        cdf.append(float(running / total))
    return np.array(cdf)


class TestFitBeta:
    def test_frozen_values(self):
        alpha, beta = fit_beta(AccuracyPrior(0.93, 0.028))
        assert alpha == pytest.approx(76.29321428571429, rel=1e-9)
        assert beta == pytest.approx(5.7425, rel=1e-9)
        alpha, beta = fit_beta(AccuracyPrior(0.87, 0.05))
        assert alpha == pytest.approx(38.4888, rel=1e-9)
        assert beta == pytest.approx(5.7512, rel=1e-9)

    def test_uniform_distribution_moments(self):
        """Mean 1/2 and variance 1/12 are exactly Beta(1, 1)."""
        alpha, beta = fit_beta(AccuracyPrior(0.5, np.sqrt(1.0 / 12.0)))
        assert alpha == pytest.approx(1.0, rel=1e-9)
        assert beta == pytest.approx(1.0, rel=1e-9)

    def test_fit_reproduces_requested_moments(self):
        for mean, std in [(0.6, 0.01), (0.87, 0.05), (0.93, 0.028), (0.2, 0.1)]:
            alpha, beta = fit_beta(AccuracyPrior(mean, std))
            got_mean = alpha / (alpha + beta)
            got_var = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1.0))
            assert got_mean == pytest.approx(mean, rel=1e-12)
            assert got_var == pytest.approx(std**2, rel=1e-12)

    def test_zero_std_is_degenerate(self):
        assert fit_beta(AccuracyPrior(0.9, 0.0)) is None

    def test_boundary_variance_rejected(self):
        """std^2 = mean*(1-mean) is the two-point distribution, not a Beta."""
        with pytest.raises(ValueError, match="boundary"):
            fit_beta(AccuracyPrior(0.5, 0.5))

    def test_underflowing_variance_is_the_point_mass(self):
        """std 1e-170 squares to 0 in float: the same law as std 0."""
        assert AccuracyPrior(0.87, 1e-170).variance == 0.0
        assert fit_beta(AccuracyPrior(0.87, 1e-170)) is None

    def test_subnormal_variance_names_the_std(self):
        """std 1e-160 squares to a subnormal, and alpha and beta overflow."""
        with pytest.raises(ValueError, match="std 1e-160 is too small for a Beta fit"):
            fit_beta(AccuracyPrior(0.87, 1e-160))

    def test_boundary_mean_goes_down_degenerate_path(self):
        """mean 0 or 1 forces std 0, so the point-mass signal fires first."""
        assert fit_beta(AccuracyPrior(1.0, 0.0)) is None
        assert fit_beta(AccuracyPrior(0.0, 0.0)) is None


class TestSimConfigValidation:
    def test_replication_floor(self):
        with pytest.raises(ValueError, match="replications"):
            config(0.9, 0.02, 10, 10, 1, 0)

    def test_boundary_prior_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            config(0.5, 0.5, 10, 10, 100, 0)

    def test_seed_range(self):
        with pytest.raises(ValueError, match="master_seed"):
            config(0.9, 0.02, 10, 10, 100, -1)
        with pytest.raises(ValueError, match="master_seed"):
            config(0.9, 0.02, 10, 10, 100, 2**64)


class TestSimulate:
    def test_all_successes_exact(self):
        """A point mass at accuracy 1 succeeds on every query."""
        report = simulate(config(1.0, 0.0, 50, 20, 1000, 3))
        assert report.empirical_mean == 1.0
        assert report.empirical_var == 0.0
        assert report.theoretical_var == 0.0
        assert report.rel_var_error == 0.0

    def test_single_bernoulli_trial_variance(self):
        report = simulate(config(0.5, 0.0, 1, 1, 100_000, 11))
        assert report.theoretical_var == 0.25
        assert report.rel_var_error < 0.02

    def test_matches_closed_form_baseline_design(self):
        report = simulate(config(0.87, 0.05, 600, 75, 20_000, 2024))
        assert report.theoretical_var == pytest.approx(6.624444444444444e-06, rel=1e-12)
        assert report.rel_var_error < 0.03
        mean_tol = 4.0 * np.sqrt(report.theoretical_var / report.replications)
        assert abs(report.empirical_mean - 0.87) < mean_tol

    def test_zero_std_interior_mean(self):
        """Point-mass prior at 0.8: pure binomial noise a(1-a)/(Kp*Kq)."""
        report = simulate(config(0.8, 0.0, 40, 25, 50_000, 5))
        assert report.theoretical_var == pytest.approx(0.8 * 0.2 / (40 * 25), rel=1e-12)
        assert report.rel_var_error < 0.03

    def test_million_queries_per_episode(self):
        report = simulate(config(0.87, 0.05, 3, 10**6, 4, 1))
        assert report.replications == 4
        assert 0.0 < report.empirical_mean < 1.0
        assert math.isfinite(report.empirical_var)

    def test_report_serialization_keys(self):
        report = simulate(config(0.9, 0.02, 5, 5, 100, 17))
        assert list(asdict(report)) == [
            "empirical_mean",
            "empirical_var",
            "empirical_var_se",
            "theoretical_mean",
            "theoretical_var",
            "rel_var_error",
            "var_z",
            "replications",
        ]

    @pytest.mark.parametrize("kq", [1, 75, 2975])
    @pytest.mark.parametrize(
        "a, std",
        [(0.0, 0.0), (5e-324, 0.0), (1e-300, 0.0), (1.0 - 2.0**-53, 0.0), (1.0, 0.0),
         (0.5, 0.4999), (0.001, 0.0316)]
        + [(0.87, 10.0**-e) for e in (150, 100, 50, 20, 10, 8, 7, 6, 5)],
    )
    def test_edge_priors_draw_without_warnings(self, a, std, kq):
        """Point masses at and next to 0 and 1, U-shaped Betas and tiny stds.

        A RuntimeWarning (log of 0, overflow, NaN) fails the test, as in every
        test here; each total must lie in 0..Kp*Kq.
        """
        kp = 3
        totals = montecarlo._draw_totals(config(a, std, kp, kq, 200, 8))
        assert totals.min() >= 0 and totals.max() <= kp * kq


class TestVarianceStandardError:
    def test_se_from_fourth_central_moment(self):
        """SE = sqrt((m4 - (n-3)/(n-1) s^4) / n); var_z = (empirical - theory) / SE."""
        c = config(0.87, 0.05, 120, 75, 5000, 12)
        x = montecarlo._draw_totals(c) / (120 * 75)
        n, s2 = len(x), np.var(x, ddof=1)
        m4 = np.mean((x - x.mean()) ** 4)
        report = simulate(c)
        assert report.empirical_var_se == pytest.approx(
            math.sqrt((m4 - (n - 3) / (n - 1) * s2**2) / n), rel=1e-9
        )
        assert report.var_z == (
            (report.empirical_var - report.theoretical_var) / report.empirical_var_se
        )

    def test_se_matches_spread_of_sample_variances(self):
        """Across 200 seeds the sample variances spread as their median SE says."""
        reports = [simulate(config(0.87, 0.05, 120, 75, 500, seed)) for seed in range(200)]
        spread = np.std([r.empirical_var for r in reports], ddof=1)
        assert np.median([r.empirical_var_se for r in reports]) == pytest.approx(spread, rel=0.2)
        assert abs(np.mean([r.var_z for r in reports])) < 0.3

    def test_zero_variance_equal_to_theory(self):
        report = simulate(config(1.0, 0.0, 50, 20, 1000, 3))
        assert report.empirical_var_se == 0.0
        assert report.var_z == 0.0
        assert asdict(report)["var_z"] == 0.0

    def test_zero_variance_below_theory(self):
        """Every replication reads 1 while the theory has spread: z is -inf."""
        report = simulate(config(1.0 - 1e-9, 0.0, 1, 1, 2, 3))
        assert report.empirical_var == 0.0 and report.theoretical_var > 0.0
        assert report.empirical_var_se == 0.0
        assert report.var_z == -math.inf


class TestCountCdf:
    """The simulator's count table against the closed form, exactly."""

    @given(
        st.floats(0.01, 0.99),
        st.one_of(st.just(0.0), st.floats(1e-9, 0.95)),
        st.integers(1, 100_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_pmf_moments_match_closed_form(self, a, std_fraction, kq):
        """Mean/Kq is a and variance/Kq^2 is the Kp=1 estimator variance."""
        prior = AccuracyPrior(a, std_fraction * math.sqrt(a * (1.0 - a)))
        pmf = np.diff(montecarlo._cdf_of(montecarlo._count_pmf(prior, kq)), prepend=0.0)
        k = np.arange(kq + 1)
        mean = float(k @ pmf)
        var = float(((k - mean) ** 2) @ pmf)
        assert mean / kq == pytest.approx(a, rel=1e-8)
        expected = estimator_variance(prior, EvalDesign(1, kq))
        assert var / kq**2 == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_chunked_table_equals_one_shot_table(self, monkeypatch, chunk):
        """Chunking the pmf only bounds memory: the table is bit-identical."""
        cases = [(0.87, 0.05, 2975), (0.8, 0.0, 2975), (0.02, 0.01, 1000), (0.5, 0.1, 1)]
        priors = [(AccuracyPrior(a, std), kq) for a, std, kq in cases]
        one_shot = [montecarlo._cdf_of(montecarlo._count_pmf(prior, kq)) for prior, kq in priors]
        monkeypatch.setattr(montecarlo, "_CDF_CHUNK", chunk)
        for (prior, kq), table in zip(priors, one_shot):
            assert np.array_equal(montecarlo._cdf_of(montecarlo._count_pmf(prior, kq)), table)

    @pytest.mark.parametrize(
        "a, std, kq",
        [
            (0.87, 0.05, 75),
            (0.87, 0.05, 300),
            (0.99, 0.005, 25),
            (0.8, 0.0, 300),
            (0.5, 0.4999, 75),  # alpha, beta < 1: a U-shaped pmf
            # Tiny stds, where alpha + beta ~ 1e10 to 1e199.
            (0.87, 1e-5, 75),
            (0.87, 1e-6, 300),
            (0.87, 1e-7, 75),
            (0.87, 1e-8, 75),
            (0.87, 1e-100, 75),
        ],
    )
    def test_table_matches_exact_oracle(self, a, std, kq):
        """Every CDF entry within 1e-15 of the exact rational CDF.

        No terms of the ratio recurrence cancel, however large alpha + beta grows.
        """
        prior = AccuracyPrior(a, std)
        cdf = montecarlo._cdf_of(montecarlo._count_pmf(prior, kq))
        assert np.max(np.abs(cdf - exact_cdf(prior, kq))) <= 1e-15

    @pytest.mark.parametrize("a, std", [(0.87, 0.05), (0.93, 0.028), (0.02, 0.01), (0.8, 0.0)])
    def test_pmf_matches_scipy_stats(self, a, std):
        """``betabinom`` or ``binom`` at Kq 2975: normalised CDFs within 1e-12."""
        prior, kq = AccuracyPrior(a, std), 2975
        k = np.arange(kq + 1)
        alpha_beta = fit_beta(prior)
        if alpha_beta is None:
            reference = stats.binom.pmf(k, kq, a)
        else:
            reference = stats.betabinom.pmf(k, kq, *alpha_beta)
        cdf = montecarlo._cdf_of(montecarlo._count_pmf(prior, kq))
        assert np.max(np.abs(cdf - montecarlo._cdf_of(reference))) <= 1e-12

    def test_table_is_a_cdf(self):
        for a, std in [(0.02, 0.01), (0.87, 0.05), (0.8, 0.0)]:
            cdf = montecarlo._cdf_of(montecarlo._count_pmf(AccuracyPrior(a, std), 2975))
            assert cdf.shape == (2976,)
            assert np.all(np.diff(cdf) >= 0.0)
            assert cdf[-1] == 1.0

    @pytest.mark.parametrize(
        "a, std, kq, powers",
        [
            (0.87, 0.05, 75, (218, 164)),
            (0.8, 0.0, 75, (218, 82)),
            (0.93, 0.028, 10, (120,)),
            (0.87, 0.05, 2975, (5, 4)),
            (0.99, 0.005, 25, (655, 1)),
            (0.5, 0.1, 1, (2000, 3)),
            # Powers on both sides of k = 100, where numpy's complex ``**``
            # switches from multiplying to exp(k*log z).
            (0.87, 0.05, 75, (101, 100)),
            (0.93, 0.028, 10, (99, 1)),
            (0.8, 0.0, 75, (100, 99)),
        ],
    )
    def test_power_tables_match_direct_convolution(self, a, std, kq, powers):
        """The FFT-power CDF of k counts is the CDF of k-fold ``np.convolve``."""
        pmf = montecarlo._count_pmf(AccuracyPrior(a, std), kq)
        tables = montecarlo._power_cdfs(pmf, powers)
        for k, cdf in zip(powers, tables):
            direct = np.ones(1)
            for _ in range(k):
                direct = np.convolve(direct, pmf)
            assert cdf.shape == (k * kq + 1,)
            assert np.all(np.diff(cdf) >= 0.0)
            assert cdf[-1] == 1.0
            assert np.max(np.abs(cdf - np.cumsum(direct) / np.sum(direct))) < 1e-12

    def test_int_power_matches_numpy_power(self):
        """Repeated squaring gives ``z**k`` to 1e-12 relative, for k = 1..300.

        Entries with |z**k| <= 1e-200 are skipped: there both routes are
        dominated by underflow rather than by round-off.
        """
        rng = np.random.default_rng(18)
        radius = np.sqrt(rng.random(4096))
        z = radius * np.exp(2j * np.pi * rng.random(4096))
        original = z.copy()
        for k in range(1, 301):
            expected = z**k
            kept = np.abs(expected) > 1e-200
            got = montecarlo._int_power(z, k)
            rel = np.abs(got[kept] - expected[kept]) / np.abs(expected[kept])
            assert np.max(rel) < 1e-12, k
        assert np.array_equal(z, original)


@st.composite
def guided_cdfs(draw):
    """Non-decreasing tables ending at exactly 1.0, of length 2, 3, 2^k, 2^k+1 or 2^k+2.

    Leading 0.0 entries, trailing 1.0 entries, ties from snapping entries to a
    grid (a coarse one, or the guide's own bucket edges j/m), and entries that
    crowd into a narrow interval, as in a count CDF, all occur.
    """
    k = draw(st.integers(1, 12))
    n = draw(st.sampled_from([2, 3, 2**k, 2**k + 1, 2**k + 2]))
    m = 1 << (n - 2).bit_length()
    zeros = draw(st.integers(0, n - 1))
    ones = draw(st.integers(1, n - zeros))
    width = draw(st.sampled_from([1.0, 1e-3, 1e-12]))
    offset = draw(st.floats(0.0, 1.0 - width))
    grid = draw(st.sampled_from([None, 4, m, 4 * m]))
    middle = offset + width * np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(
        n - zeros - ones
    )
    if grid is not None:
        middle = np.floor(middle * grid) / grid
    return np.concatenate([np.zeros(zeros), np.sort(np.minimum(middle, 1.0)), np.ones(ones)])


def guided_uniforms(cdf, m):
    """Every bucket edge j/m, each CDF value, their float neighbours and some random uniforms."""
    edges = np.arange(m) / m
    points = np.concatenate([edges, cdf, np.random.default_rng(len(cdf)).random(64)])
    u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    return u[(u >= 0.0) & (u < 1.0)]


class TestTinyStd:
    """Stds near 0 give finite numbers or a ValueError naming the std, nothing else."""

    @pytest.mark.parametrize("std", [1e-4, 3e-7, 1e-8, 1e-100, 1e-160, 1e-170])
    @pytest.mark.parametrize("call", ["simulate", "decompose_variance", "episode_counts"])
    def test_finite_or_named_error(self, call, std):
        try:
            if call == "episode_counts":
                values = episode_counts(AccuracyPrior(0.87, std), EvalDesign(600, 75), 5)
            else:
                c = config(0.87, std, 600, 75, 50, 5)
                report = simulate(c) if call == "simulate" else decompose_variance(c)
                values = list(asdict(report).values())
        except ValueError as exc:
            assert f"std {std:.6g} is too small" in str(exc)
        else:
            assert np.all(np.isfinite(values))

    def test_std_squaring_to_zero_is_the_point_mass(self):
        tiny, zero = config(0.87, 1e-170, 60, 75, 300, 5), config(0.87, 0.0, 60, 75, 300, 5)
        assert simulate(tiny) == simulate(zero)
        assert decompose_variance(tiny) == decompose_variance(zero)
        assert np.array_equal(
            episode_counts(tiny.prior, tiny.design, 5), episode_counts(zero.prior, zero.design, 5)
        )


class TestGuidedInversion:
    """``_invert`` against its oracle, ``np.searchsorted(cdf, u, side="right")``."""

    @given(guided_cdfs())
    @settings(max_examples=200, deadline=None)
    def test_matches_binary_search(self, cdf):
        guide = montecarlo._guide(cdf)
        m = len(guide) - 1
        assert m >= len(cdf) - 1 and m & (m - 1) == 0 and m < 2 * max(1, len(cdf) - 1)
        assert guide.dtype == np.int32
        assert np.array_equal(guide, np.searchsorted(cdf, np.arange(m + 1) / m, side="right"))
        u = guided_uniforms(cdf, m)
        assert np.array_equal(montecarlo._invert(cdf, guide, u), np.searchsorted(cdf, u, side="right"))
        # The strided views ``_draw_totals`` passes: q group columns and the remainder column.
        q = 2
        grid = np.resize(u, (len(u) // (q + 1) + 1, q + 1))
        for view in (grid[:, :q], grid[:, q]):
            assert np.array_equal(
                montecarlo._invert(cdf, guide, view), np.searchsorted(cdf, view, side="right")
            )

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_chunked_guide_equals_one_shot_guide(self, monkeypatch, chunk):
        """Chunking the guide's build only bounds memory: the guide is identical."""
        pmf = montecarlo._count_pmf(AccuracyPrior(0.87, 0.05), 75)
        tables = montecarlo._power_cdfs(pmf, (218, 164))
        tables.append(montecarlo._cdf_of(montecarlo._count_pmf(AccuracyPrior(0.8, 0.0), 2975)))
        one_shot = [montecarlo._guide(cdf) for cdf in tables]
        monkeypatch.setattr(montecarlo, "_CDF_CHUNK", chunk)
        for cdf, guide in zip(tables, one_shot):
            assert np.array_equal(montecarlo._guide(cdf), guide)


def chi_square_pvalue(totals, pmf):
    """Pearson chi-square of observed totals against ``pmf``.

    Adjacent totals merge left to right into bins until each expects at least
    5 draws; a short tail folds into the last bin.
    """
    pmf = pmf / pmf.sum()
    expected = len(totals) * pmf
    observed = np.bincount(totals, minlength=len(pmf))
    assert len(observed) == len(pmf), "a total lies outside 0..Kp*Kq"
    starts, acc = [0], 0.0
    for i, e in enumerate(expected):
        acc += e
        if acc >= 5.0:
            starts.append(i + 1)
            acc = 0.0
    starts = starts[:-1]
    assert len(starts) > 10
    f_exp = np.add.reduceat(expected, starts)
    f_obs = np.add.reduceat(observed, starts)
    assert f_exp.min() >= 5.0
    return stats.chisquare(f_obs, f_exp).pvalue


class TestDistribution:
    """Simulated totals against their exact law, the Kp-fold power of the count pmf."""

    @pytest.mark.parametrize(
        "a, std, kp, kq",
        [(0.87, 0.05, 30, 40), (0.87, 0.05, 600, 75), (0.8, 0.0, 300, 75)],
        ids=["one_group", "groups_and_remainder", "point_mass"],
    )
    def test_totals_follow_exact_pmf(self, a, std, kp, kq):
        c = config(a, std, kp, kq, 20_000, 606)
        pmf = montecarlo._count_pmf(c.prior, kq)
        exact = np.ones(1)
        for _ in range(kp):
            exact = np.convolve(exact, pmf)
        assert chi_square_pvalue(montecarlo._draw_totals(c), exact) > 1e-3


class TestDeterminism:
    def test_repeat_runs_bit_identical(self):
        c = config(0.9, 0.03, 30, 40, 4000, 99)
        assert simulate(c) == simulate(c)

    @pytest.mark.parametrize("block_reps", [1, 7, 1000])
    def test_block_size_is_not_part_of_the_stream(self, monkeypatch, block_reps):
        """Blocks of 1 replication, an odd size, or the whole run: same totals.

        The reference draws every uniform in one call. With g episodes per
        group, q, r = divmod(Kp, g) and D = q + (r > 0), replication i takes
        uniforms i*D .. (i+1)*D-1 of the Philox stream at the master seed: the
        first q through the g-fold CDF, the last (if r > 0) through the r-fold.
        30x40 is one group (g = 30); 600x75 is q = 2 groups of g = 218 and r = 164.
        """
        for kp, kq in [(30, 40), (600, 75)]:
            c = config(0.87, 0.05, kp, kq, 1000, 2024)
            g = min(kp, montecarlo._GROUP_COUNTS // kq)
            q, r = divmod(kp, g)
            d = q + (r > 0)
            powers = (g, r) if r else (g,)
            tables = montecarlo._power_cdfs(montecarlo._count_pmf(c.prior, kq), powers)
            u = philox_generator(2024).random(1000 * d).reshape(1000, d)
            totals = np.searchsorted(tables[0], u[:, :q], side="right").sum(axis=1)
            if r:
                totals += np.searchsorted(tables[1], u[:, q], side="right")
            a_tilde = totals / (kp * kq)
            monkeypatch.setattr(montecarlo, "_BLOCK_DRAWS", block_reps * d + d // 2)
            report = simulate(c)
            assert report.empirical_mean == float(np.mean(a_tilde))
            assert report.empirical_var == float(np.var(a_tilde, ddof=1))

    @pytest.mark.parametrize("kq", [2**14, 3 * 10**4])
    @pytest.mark.parametrize("std", [0.05, 0.0], ids=["beta", "point_mass"])
    def test_one_episode_per_group_keeps_the_per_episode_stream(self, kq, std):
        """At Kq >= 2**14, g = 1: one uniform per episode through the count CDF.

        Replication i inverts uniforms i*Kp .. (i+1)*Kp-1, the stream that
        ``simulate`` drew for every design before episodes were grouped.
        """
        kp, reps = 7, 300
        c = config(0.87, std, kp, kq, reps, 41)
        u = philox_generator(41).random(reps * kp)
        cdf = montecarlo._cdf_of(montecarlo._count_pmf(c.prior, kq))
        counts = np.searchsorted(cdf, u, side="right")
        a_tilde = counts.reshape(reps, kp).sum(axis=1) / (kp * kq)
        report = simulate(c)
        assert report.empirical_mean == float(np.mean(a_tilde))
        assert report.empirical_var == float(np.var(a_tilde, ddof=1))

    def test_different_seeds_differ(self):
        a = simulate(config(0.9, 0.03, 30, 40, 2000, 1))
        b = simulate(config(0.9, 0.03, 30, 40, 2000, 2))
        assert a.empirical_var != b.empirical_var


class TestSweep:
    def test_variance_decreases_toward_asymptote(self):
        prior = AccuracyPrior(0.9, 0.02)
        reports = sweep(prior, [1, 10, 100, 10_000], kp=20, replications=20_000, master_seed=7)
        variances = [r.empirical_var for r in reports]
        assert variances == sorted(variances, reverse=True)
        assert variances[-1] == pytest.approx(prior.variance / 20, rel=0.1)

    def test_single_element_matches_simulate(self):
        from episcope.seeds import substream_seeds

        prior = AccuracyPrior(0.9, 0.02)
        (report,) = sweep(prior, [50], kp=10, replications=2000, master_seed=31)
        direct = simulate(config(0.9, 0.02, 10, 50, 2000, substream_seeds(31, 1).tolist()[0]))
        assert report == direct

    def test_equal_seeds_identical_reports(self):
        prior = AccuracyPrior(0.85, 0.04)
        first = sweep(prior, [5, 50], kp=10, replications=2000, master_seed=8)
        second = sweep(prior, [5, 50], kp=10, replications=2000, master_seed=8)
        assert first == second

    def test_empty_kq_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep(AccuracyPrior(0.9, 0.02), [], kp=10, replications=100, master_seed=0)


class TestVarianceDecomposition:
    def test_between_and_within_match_their_formulas(self):
        """Total variance splits into inter-episode and query-noise parts."""
        decomp = decompose_variance(config(0.87, 0.05, 120, 75, 5000, 77))
        assert decomp.between_expected == pytest.approx(0.0025, rel=1e-12)
        assert decomp.within_expected == pytest.approx((0.1131 - 0.0025) / 75, rel=1e-9)
        assert decomp.between_measured == pytest.approx(decomp.between_expected, rel=0.02)
        assert decomp.within_measured == pytest.approx(decomp.within_expected, rel=0.02)

    def test_point_mass_has_no_between_component(self):
        decomp = decompose_variance(config(0.8, 0.0, 50, 30, 3000, 5))
        assert decomp.between_measured == 0.0
        assert decomp.within_measured == pytest.approx(0.8 * 0.2 / 30, rel=0.03)

    def test_components_sum_to_per_episode_variance(self):
        """Eve's law: within + between equals the Kp=1 estimator variance."""
        c = config(0.9, 0.03, 80, 50, 5000, 13)
        decomp = decompose_variance(c)
        total = decomp.within_measured + decomp.between_measured
        expected = estimator_variance(c.prior, EvalDesign(1, 50))
        assert total == pytest.approx(expected, rel=0.02)


class TestEpisodeCounts:
    def test_shape_and_range(self):
        counts = episode_counts(AccuracyPrior(0.9, 0.02), EvalDesign(200, 75), seed=4)
        assert counts.shape == (200,)
        assert counts.min() >= 0 and counts.max() <= 75

    def test_deterministic_per_seed(self):
        prior = AccuracyPrior(0.9, 0.02)
        design = EvalDesign(50, 30)
        assert np.array_equal(episode_counts(prior, design, 9), episode_counts(prior, design, 9))
        assert not np.array_equal(
            episode_counts(prior, design, 9), episode_counts(prior, design, 10)
        )

    def test_certain_prior_all_correct(self):
        counts = episode_counts(AccuracyPrior(1.0, 0.0), EvalDesign(20, 55), seed=0)
        assert np.all(counts == 55)


class TestPinnedStream:
    """Exact outputs for fixed seeds: any change to the random stream fails here.

    A deliberate stream change must update these values and be recorded as a
    stream-version change.
    """

    def test_simulate_beta_prior(self):
        report = simulate(config(0.87, 0.05, 30, 20, 500, 2024))
        assert asdict(report) == {
            "empirical_mean": 0.8691966666666667,
            "empirical_var": 0.00027719237363616123,
            "empirical_var_se": 1.6025904336518214e-05,
            "theoretical_mean": 0.87,
            "theoretical_var": 0.0002676666666666667,
            "rel_var_error": 0.03558794633684137,
            "var_z": 0.5943943486414249,
            "replications": 500,
        }

    def test_simulate_point_mass(self):
        report = simulate(config(0.8, 0.0, 30, 20, 500, 5))
        assert asdict(report) == {
            "empirical_mean": 0.7994433333333334,
            "empirical_var": 0.00029773559340904037,
            "empirical_var_se": 1.980133408842981e-05,
            "theoretical_mean": 0.8,
            "theoretical_var": 0.0002666666666666667,
            "rel_var_error": 0.1165084752839014,
            "var_z": 1.5690319957041523,
            "replications": 500,
        }

    def test_decompose_variance(self):
        decomp = decompose_variance(config(0.9, 0.03, 40, 25, 300, 13))
        assert decomp.__dict__ == {
            "between_measured": 0.0008932203007451603,
            "between_expected": 0.0009,
            "within_measured": 0.0034958342009525785,
            "within_expected": 0.0035639999999999995,
            "replications": 300,
        }

    def test_decompose_variance_point_mass(self):
        decomp = decompose_variance(config(0.8, 0.0, 40, 25, 300, 13))
        assert decomp.__dict__ == {
            "between_measured": 0.0,
            "between_expected": 0.0,
            "within_measured": 0.006412,
            "within_expected": 0.0063999999999999994,
            "replications": 300,
        }

    @pytest.mark.parametrize("std", [0.03, 0.0], ids=["beta", "point_mass"])
    def test_decompose_variance_reads_one_philox_stream(self, std):
        """Replication after replication, Kp Beta then Kp binomial draws from one stream."""
        mean, kp, kq, reps, seed = 0.9, 40, 25, 300, 13
        rng = philox_generator(seed)
        a, counts = [], []
        for _ in range(reps):
            if std == 0.0:
                a_p = np.full(kp, mean)
                counts.append(rng.binomial(kq, mean, size=kp))
            else:
                a_p = rng.beta(*fit_beta(AccuracyPrior(mean, std)), size=kp)
                counts.append(rng.binomial(kq, a_p))
            a.append(a_p)
        a, counts = np.concatenate(a), np.concatenate(counts)
        decomp = decompose_variance(config(mean, std, kp, kq, reps, seed))
        # Only the summation order differs from the reference; another stream
        # would move both figures by far more than the tolerance.
        assert decomp.between_measured == pytest.approx(
            np.var(a - mean, ddof=1), rel=1e-12, abs=0.0
        )
        assert decomp.within_measured == pytest.approx(
            np.mean((counts / kq - a) ** 2), rel=1e-12
        )

    @pytest.mark.parametrize(
        "a, std, kp, kq, seed, mean, var, var_se",
        [
            (0.87, 0.05, 120, 10, 9000, 0.8697383333333334, 0.00010409746817853372, 3.3884458383525843e-06),
            (0.93, 0.028, 120, 10, 9001, 0.9303070833333333, 5.90383439983881e-05, 1.8719906375159592e-06),
            (0.87, 0.05, 120, 75, 9002, 0.8702434444444445, 3.227069731161878e-05, 9.915848572797241e-07),
            (0.93, 0.028, 120, 75, 9003, 0.9300546111111111, 1.3120386461749409e-05, 3.893551561934759e-07),
            (0.87, 0.05, 120, 2975, 9004, 0.8699682661064426, 2.2024552937902145e-05, 6.80783542238429e-07),
            (0.93, 0.028, 120, 2975, 9005, 0.9300632436974791, 6.712377184567142e-06, 2.1325339947001284e-07),
            (0.87, 0.0, 120, 75, 9006, 0.8700867222222223, 1.2227179265558705e-05, 3.7797619713025934e-07),
            (0.87, 0.05, 600, 75, 9007, 0.8699896333333333, 6.953871443252497e-06, 2.0999721004939647e-07),
            (0.87, 0.05, 7, 20_000, 9008, 0.8693284285714286, 0.0003662560149768762, 1.1398776792179311e-05),
        ],
    )
    def test_simulate_benchmark_designs(self, a, std, kp, kq, seed, mean, var, var_se):
        """The benchmark's eight designs and one with a group per episode, 2000 replications.

        Recorded with binary-search inversion and scipy.stats pmfs; a table or
        lookup edit that moves any total fails here.
        """
        report = simulate(config(a, std, kp, kq, 2000, seed))
        assert (report.empirical_mean, report.empirical_var, report.empirical_var_se) == (
            mean, var, var_se
        )

    def test_episode_counts(self):
        counts = episode_counts(AccuracyPrior(0.9, 0.02), EvalDesign(12, 75), seed=4)
        assert counts.tolist() == [68, 68, 67, 70, 66, 71, 72, 71, 65, 69, 66, 74]
        counts = episode_counts(AccuracyPrior(0.8, 0.0), EvalDesign(12, 10), seed=4)
        assert counts.tolist() == [10, 8, 6, 9, 8, 5, 10, 5, 9, 9, 8, 8]
