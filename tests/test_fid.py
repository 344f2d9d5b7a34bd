"""Gaussian feature statistics and the Frechet distance."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from episcope.fid import GaussianStats, fid, fit_gaussian, frechet_distance


class TestFitGaussian:
    def test_hand_computed_two_points(self):
        stats = fit_gaussian(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_allclose(stats.mean, [1.0, 0.0])
        np.testing.assert_allclose(stats.cov, [[2.0, 0.0], [0.0, 0.0]])

    def test_identical_rows_zero_covariance(self):
        stats = fit_gaussian(np.ones((10, 3)))
        np.testing.assert_allclose(stats.cov, np.zeros((3, 3)))

    def test_protocol_scale_accepted(self):
        """300 samples in 64 dimensions, the intended operating point."""
        rng = np.random.default_rng(42)
        stats = fit_gaussian(rng.normal(size=(300, 64)))
        assert stats.dim == 64
        np.testing.assert_allclose(stats.cov, stats.cov.T)

    def test_uses_unbiased_divisor(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 4))
        np.testing.assert_allclose(fit_gaussian(x).cov, np.cov(x, rowvar=False), atol=1e-12)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_gaussian(np.ones((1, 8)))

    def test_rejects_a_non_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            fit_gaussian(np.ones(5))

    def test_rejects_non_finite(self):
        bad = np.ones((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_gaussian(bad)

    def test_overflowing_covariance_refused_without_a_warning(self):
        """300 x 64 at 1e160: the covariance overflows, which is an error, not a warning."""
        x = np.random.default_rng(3).normal(size=(300, 64)) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                fit_gaussian(x)

    @pytest.mark.parametrize("sign", ["positive", "mixed"])
    @pytest.mark.parametrize("n", [300, 60], ids=["n_gt_d", "n_le_d"])
    def test_overflowing_mean_refused_without_a_warning(self, n, sign):
        """n x 64 near 1e307: the column sums overflow, which is an error, not a warning."""
        rng = np.random.default_rng(n)
        x = rng.uniform(1.0, 1.5, size=(n, 64)) * 1e307
        if sign == "mixed":
            x *= rng.choice([-1.0, 1.0], size=x.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                fit_gaussian(x)


class TestGaussianStatsValidation:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianStats(np.zeros(2), np.array([[1.0, 1e-3], [0.0, 1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            GaussianStats(np.zeros(3), np.eye(2))

    @pytest.mark.parametrize(
        ("mean", "message"),
        [(np.zeros((1, 2)), "mean must be a vector"), (np.array([np.nan, 0.0]), "finite")],
        ids=["matrix_mean", "nan_mean"],
    )
    def test_malformed_mean_rejected(self, mean, message):
        with pytest.raises(ValueError, match=message):
            GaussianStats(mean, np.eye(2))

    def test_overflowing_trace_refused_without_a_warning(self):
        """Finite entries whose trace overflows are refused where the stats are built.

        At 1e307 * I in 64 dimensions, ``frechet_distance`` would return inf against I
        and fail in ``eigh`` against itself; the trace is summed without a RuntimeWarning.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                GaussianStats(np.zeros(64), 1e307 * np.eye(64))


class TestFrechetDistance:
    def test_identical_gaussians(self):
        g = GaussianStats(np.arange(5.0), np.eye(5) * 2.0)
        assert frechet_distance(g, g) < 1e-8

    def test_pure_mean_shift(self):
        """Unit covariance, unit mean offset: distance is exactly 1."""
        mean2 = np.zeros(64)
        mean2[0] = 1.0
        g1 = GaussianStats(np.zeros(64), np.eye(64))
        g2 = GaussianStats(mean2, np.eye(64))
        assert frechet_distance(g1, g2) == pytest.approx(1.0, abs=1e-10)

    def test_scalar_closed_form(self):
        """dim 1: (mu1-mu2)^2 + (s1-s2)^2 with s the std; 4 vs 1 gives 1."""
        g1 = GaussianStats(np.zeros(1), np.array([[4.0]]))
        g2 = GaussianStats(np.zeros(1), np.array([[1.0]]))
        assert frechet_distance(g1, g2) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_consistency_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m1, m2 = rng.normal(size=2)
            v1, v2 = rng.uniform(0.1, 5.0, size=2)
            g1 = GaussianStats(np.array([m1]), np.array([[v1]]))
            g2 = GaussianStats(np.array([m2]), np.array([[v2]]))
            expected = (m1 - m2) ** 2 + (np.sqrt(v1) - np.sqrt(v2)) ** 2
            assert frechet_distance(g1, g2) == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self):
        g1 = GaussianStats(np.zeros(2), np.eye(2))
        g2 = GaussianStats(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="mismatch"):
            frechet_distance(g1, g2)

    def test_commuting_covariances_closed_form(self):
        """Diagonal covariances: distance is sum over (sqrt(a_i)-sqrt(b_i))^2."""
        rng = np.random.default_rng(8)
        d1 = rng.uniform(0.5, 3.0, size=6)
        d2 = rng.uniform(0.5, 3.0, size=6)
        g1 = GaussianStats(np.zeros(6), np.diag(d1))
        g2 = GaussianStats(np.zeros(6), np.diag(d2))
        expected = np.sum((np.sqrt(d1) - np.sqrt(d2)) ** 2)
        assert frechet_distance(g1, g2) == pytest.approx(expected, rel=1e-10)

    def test_strongly_negative_eigenvalue_warns(self):
        g_bad = GaussianStats(np.zeros(1), np.array([[-1e-3]]))
        g_ok = GaussianStats(np.zeros(1), np.array([[1.0]]))
        with pytest.warns(RuntimeWarning, match="eigenvalue"):
            value = frechet_distance(g_bad, g_ok)
        assert value >= 0.0

    def test_indefinite_zero_diagonal_warns(self):
        """The Cholesky fails on a zero pivot, and the eigh route finds eigenvalue -1."""
        g_bad = GaussianStats(np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        g_ok = GaussianStats(np.zeros(2), np.eye(2))
        with pytest.warns(RuntimeWarning, match="eigenvalue -1.000e\\+00"):
            frechet_distance(g_bad, g_ok)
        with pytest.warns(RuntimeWarning, match="eigenvalue -1.000e\\+00"):
            frechet_distance(g_ok, g_bad)

    def test_invalid_covariance_warns_in_its_own_units_as_either_argument(self):
        """Beside 4 I, [[0, 1], [1, 0]] reports its own eigenvalue -1 as S1 and as S2."""
        g_bad = GaussianStats(np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        g_ok = GaussianStats(np.zeros(2), 4.0 * np.eye(2))
        for pair in ((g_bad, g_ok), (g_ok, g_bad)):
            with pytest.warns(RuntimeWarning, match="eigenvalue -1.000e\\+00") as record:
                frechet_distance(*pair)
            assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("scale", [1e3, 1e-3])
    @pytest.mark.parametrize("n_x,n_y", [(50, 50), (50, 10), (10, 50)])
    def test_valid_features_do_not_warn_at_any_scale(self, scale, n_x, n_y):
        """n < d sample covariances are singular; their round-off must not read as invalid."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n_x, 64))
        y = rng.normal(size=(n_y, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fid(x * scale, y * scale) == pytest.approx(fid(x, y) * scale**2, rel=1e-6)

    @pytest.mark.parametrize("k", [-400, -332, -200, 0, 200, 266, 400])
    @pytest.mark.parametrize("n", [20, 300])
    def test_power_of_two_scaling_is_exact(self, k, n):
        """fid(2**k x, 2**k y) = 4**k fid(x, y), far past where the Gram matrix leaves range."""
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 64))
        y = rng.normal(size=(n, 64)) * 1.5 + 0.2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = fid(2.0**k * x, 2.0**k * y)
        assert scaled / 4.0**k == pytest.approx(fid(x, y), rel=1e-12)

    def test_rank_deficient_diagonal_closed_form(self):
        """d = 200 with zero variances in both: sum (sqrt(a_i) - sqrt(b_i))^2 still holds."""
        rng = np.random.default_rng(9)
        d1 = rng.uniform(0.5, 3.0, size=200)
        d2 = rng.uniform(0.5, 3.0, size=200)
        d1[::3] = 0.0
        d2[::5] = 0.0
        mean2 = rng.normal(size=200)
        g1 = GaussianStats(np.zeros(200), np.diag(d1))
        g2 = GaussianStats(mean2, np.diag(d2))
        expected = mean2 @ mean2 + np.sum((np.sqrt(d1) - np.sqrt(d2)) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frechet_distance(g1, g2) == pytest.approx(expected, rel=1e-12)
            assert frechet_distance(g2, g1) == pytest.approx(expected, rel=1e-12)


class TestFid:
    def test_self_distance_vanishes(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(300, 64))
        assert fid(x, x) < 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(200, 16))
        y = rng.normal(loc=0.3, size=(250, 16))
        assert abs(fid(x, y) - fid(y, x)) < 1e-8

    def test_translation_invariance_of_spread_term(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=(150, 8))
        y = rng.normal(scale=1.5, size=(150, 8))
        shift = rng.normal(size=8) * 10.0
        assert fid(x + shift, y + shift) == pytest.approx(fid(x, y), abs=1e-8)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(45)
        x = rng.normal(size=(200, 8))
        y = rng.normal(scale=2.0, size=(200, 8))
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        assert fid(x @ q, y @ q) == pytest.approx(fid(x, y), abs=1e-6)

    def test_known_gaussian_pair(self):
        """N(0, I) vs N(0, 4I) in dim 2: Tr(I + 4I - 2*2I) = 2."""
        rng = np.random.default_rng(46)
        x = rng.normal(size=(100_000, 2))
        y = rng.normal(scale=2.0, size=(100_000, 2))
        assert fid(x, y) == pytest.approx(2.0, rel=0.05)

    def test_nonnegative_on_noisy_inputs(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            x = rng.normal(size=(40, 12))
            y = x + rng.normal(scale=1e-9, size=(40, 12))
            assert fid(x, y) >= 0.0


def nuclear_norm_fid(a, b):
    """Reference FID through Tr (S1^(1/2) S2 S1^(1/2))^(1/2) = ||B A^T||_* (nuclear norm).

    With A, B the centred rows scaled by 1/sqrt(n-1), S1 = A^T A and S2 = B^T B, and
    the nuclear norm of the small n_b x n_a matrix B A^T needs no matrix square root.
    """
    ca = (a - a.mean(axis=0)) / np.sqrt(a.shape[0] - 1)
    cb = (b - b.mean(axis=0)) / np.sqrt(b.shape[0] - 1)
    diff = a.mean(axis=0) - b.mean(axis=0)
    nuclear = np.linalg.svd(cb @ ca.T, compute_uv=False).sum()
    return diff @ diff + np.sum(ca * ca) + np.sum(cb * cb) - 2.0 * nuclear


SCALES = st.floats(-3.0, 3.0).map(lambda exponent: 10.0**exponent)


class TestFidOracle:
    @given(
        st.integers(2, 80),
        st.integers(2, 80),
        st.integers(1, 60),
        SCALES,
        SCALES,
        st.floats(-3.0, 3.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_nuclear_norm_reference(self, n_a, n_b, dim, scale_a, scale_b, shift, seed):
        """Both n < d (singular S1) and n >= d, over six decades of scale and mean shifts."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n_a, dim)) * scale_a
        b = (rng.normal(size=(n_b, dim)) + shift) * scale_b
        assert fid(a, b) == pytest.approx(nuclear_norm_fid(a, b), rel=1e-6)

    @given(st.integers(3, 60), SCALES, SCALES, st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_lower_rank_second_set_matches_to_round_off(self, dim, scale_a, scale_b, shift, seed):
        """n_b < n_a <= d: S2 has lower rank than S1, so the Gram matrix has round-off eigenvalues.

        Their square roots, ~sqrt(eps ||S1|| ||S2||) each, must not reach the trace.
        """
        rng = np.random.default_rng(seed)
        n_a = int(rng.integers(3, dim + 1))
        n_b = int(rng.integers(2, n_a))
        a = rng.normal(size=(n_a, dim)) * scale_a
        b = (rng.normal(size=(n_b, dim)) + shift) * scale_b
        assert fid(a, b) == pytest.approx(nuclear_norm_fid(a, b), rel=1e-12)


class TestSingularCovarianceRoute:
    """Fits with n > d whose covariance is singular: the Cholesky of S1 fails and its
    eigendecomposition is the factor, which must neither warn nor lose accuracy."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("kind", ["duplicated_columns", "constant_columns"])
    def test_matches_nuclear_norm_reference_without_warning(self, kind, scale):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(300, 64))
        y = rng.normal(size=(300, 64)) * 1.3 + 0.4
        if kind == "duplicated_columns":
            x[:, 48:] = x[:, :16]
            y[:, 40:] = y[:, 8:32]
        else:
            x[:, ::4] = 1.5
            y[:, 1::8] = -2.0
        x, y = x * scale, y * scale
        for z in (x, y):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(fit_gaussian(z).cov)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in ((x, y), (y, x)):
                assert fid(a, b) == pytest.approx(nuclear_norm_fid(a, b), rel=1e-9)


class TestSampleFactorRoute:
    """A fit of n <= d samples keeps them as its covariance factor and forms no d x d matrix."""

    def test_wide_pair_forms_no_d_by_d_matrix(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(20, 4096))
        y = rng.normal(size=(20, 4096)) + 0.5
        tracemalloc.start()
        try:
            value = fid(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value > 0.0
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB; one 4096 x 4096 float64 matrix is 134 MB"

    @pytest.mark.parametrize(
        ("n_x", "n_y", "dim"),
        [(10, 15, 40), (40, 40, 40), (41, 41, 40), (12, 90, 40), (90, 12, 40), (40, 41, 40)],
        ids=["both_n_lt_d", "n_eq_d", "n_eq_d_plus_1", "samples_then_cov", "cov_then_samples",
             "n_eq_d_then_d_plus_1"],
    )
    def test_routes_agree(self, n_x, n_y, dim):
        rng = np.random.default_rng(n_x * 1000 + n_y)
        x = rng.normal(size=(n_x, dim)) * 2.0
        y = rng.normal(size=(n_y, dim)) + 0.3
        fx, fy = fit_gaussian(x), fit_gaussian(y)
        covs = GaussianStats(fx.mean, fx.cov), GaussianStats(fy.mean, fy.cov)
        assert fid(x, y) == pytest.approx(frechet_distance(*covs), rel=1e-10)
        assert fid(x, y) == pytest.approx(nuclear_norm_fid(x, y), rel=1e-6)

    @pytest.mark.parametrize(("n", "dim"), [(2, 2), (5, 30), (30, 30)])
    def test_covariance_read_back_matches_np_cov(self, n, dim):
        x = np.random.default_rng(n).normal(size=(n, dim)) * 3.0 + 1.0
        cov = fit_gaussian(x).cov
        np.testing.assert_allclose(cov, np.cov(x, rowvar=False), rtol=0, atol=1e-12)
        assert np.array_equal(cov, cov.T)

    def test_overflowing_covariance_rejected(self):
        """As on the covariance route, a covariance beyond the float64 range is refused."""
        x = np.zeros((2, 3))
        x[0, 0], x[1, 0] = 1e200, -1e200
        with pytest.raises(ValueError, match="finite"):
            fit_gaussian(x)

    @pytest.mark.parametrize(
        "bad",
        [np.array([[0.0, 1.0], [1.0, 0.0]]), -1e-3 * np.eye(2)],
        ids=["indefinite", "negative"],
    )
    def test_invalid_covariance_warns_against_a_sample_fit(self, bad):
        """The bad covariance warns at its own factorization, as S1 and as S2."""
        g_bad = GaussianStats(np.zeros(2), bad)
        g_samples = fit_gaussian(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.warns(RuntimeWarning, match="eigenvalue"):
            frechet_distance(g_bad, g_samples)
        with pytest.warns(RuntimeWarning, match="eigenvalue"):
            frechet_distance(g_samples, g_bad)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_sample_fits_never_warn(self, scale):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 50)) * scale
        fits = [fit_gaussian(x), fit_gaussian(x[:3]), fit_gaussian(x[::-1] * 1.5 + 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in fits:
                for b in fits:
                    assert frechet_distance(a, b) >= 0.0
