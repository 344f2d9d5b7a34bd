"""Raw and norm-corrected latent blends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from episcope.blend import (
    DegenerateBlendError,
    blend_norm_corrected,
    blend_raw,
    sample_blend_batch,
)


def random_pair(seed, dim, scale_z=1.0, scale_n=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=dim) * scale_z, rng.normal(size=dim) * scale_n


class TestBlendRaw:
    def test_endpoints_exact(self):
        z, n = random_pair(0, 16)
        np.testing.assert_array_equal(blend_raw(z, n, 0.0), z)
        np.testing.assert_array_equal(blend_raw(z, n, 1.0), n)

    def test_hand_midpoint(self):
        out = blend_raw(np.array([2.0, 0.0]), np.array([0.0, 2.0]), 0.5)
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            blend_raw(np.zeros(3), np.zeros(4), 0.5)

    @pytest.mark.parametrize("z", [np.zeros((2, 2)), np.zeros(0)], ids=["2d", "empty"])
    def test_inputs_must_be_non_empty_vectors(self, z):
        with pytest.raises(ValueError, match="z must be a non-empty 1-D vector"):
            blend_raw(z, np.zeros(2), 0.5)

    def test_alpha_range(self):
        z, n = random_pair(1, 4)
        with pytest.raises(ValueError, match="alpha"):
            blend_raw(z, n, 1.5)
        with pytest.raises(ValueError, match="alpha"):
            blend_raw(z, n, -0.01)


class TestBlendNormCorrected:
    def test_hand_example(self):
        """(3,0) with (0,4) at 1/2: direction (1.5,2), norm 3.5 -> (2.1, 2.8)."""
        out = blend_norm_corrected(np.array([3.0, 0.0]), np.array([0.0, 4.0]), 0.5)
        np.testing.assert_allclose(out, [2.1, 2.8], rtol=1e-12)

    def test_norm_interpolates_input_norms(self):
        z = np.array([10.0, 0.0, 0.0])
        n = np.array([0.0, 8.0, 0.0])
        out = blend_norm_corrected(z, n, 0.5)
        assert np.linalg.norm(out) == pytest.approx(9.0, rel=1e-12)

    # 1e300 squares past the float range, so the norms take _norm's rescaled route.
    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_endpoints_bit_exact(self, scale):
        z, n = random_pair(2, 64, scale_z=3.0 * scale, scale_n=scale)
        np.testing.assert_array_equal(blend_norm_corrected(z, n, 0.0), z)
        np.testing.assert_array_equal(blend_norm_corrected(z, n, 1.0), n)

    @given(st.integers(0, 2**32), st.sampled_from([2, 64, 4096]), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_norm_identity_and_collinearity(self, seed, dim, alpha):
        z, n = random_pair(seed, dim, scale_z=2.0, scale_n=0.5)
        out = blend_norm_corrected(z, n, alpha)
        target = (1 - alpha) * np.linalg.norm(z) + alpha * np.linalg.norm(n)
        assert np.linalg.norm(out) == pytest.approx(target, rel=1e-9)
        raw = blend_raw(z, n, alpha)
        cross = np.linalg.norm(out * np.linalg.norm(raw) - raw * np.linalg.norm(out))
        assert cross <= 1e-9 * np.linalg.norm(out) * np.linalg.norm(raw)
        assert np.dot(out, raw) >= 0.0

    def test_antipodal_blend_is_degenerate(self):
        z = np.array([1.0, 0.0])
        with pytest.raises(DegenerateBlendError):
            blend_norm_corrected(z, -z, 0.5)

    def test_high_dimensional_raw_blend_shrinks(self):
        """At d=4096 the raw midpoint has smaller norm than the corrected one."""
        rng = np.random.default_rng(11)
        for _ in range(5):
            z = rng.normal(size=4096)
            n = rng.normal(size=4096)
            raw_norm = np.linalg.norm(blend_raw(z, n, 0.5))
            corrected_norm = np.linalg.norm(blend_norm_corrected(z, n, 0.5))
            assert raw_norm < corrected_norm

    def test_non_finite_rejected(self):
        z = np.array([np.inf, 1.0])
        with pytest.raises(ValueError, match="finite"):
            blend_norm_corrected(z, np.ones(2), 0.5)

    @pytest.mark.parametrize("scale", [2.0**520, 2.0**1000])
    def test_norms_past_the_square_overflow(self, scale):
        """Norms above ~1.3e154 overflow a plain sum of squares; the blend scales with z and n."""
        z, n = random_pair(4, 64, scale_z=2.0, scale_n=0.5)
        out = blend_norm_corrected(z * scale, n * scale, 0.3)
        np.testing.assert_allclose(out / scale, blend_norm_corrected(z, n, 0.3), rtol=1e-14)

    def test_target_norm_out_of_range_rejected(self):
        z = np.full(64, 1e308)
        with pytest.raises(ValueError, match="target norm"):
            blend_norm_corrected(z, np.ones(64), 0.5)


class TestSampleBlend:
    def test_deterministic_per_seed(self):
        latents = [np.arange(8.0), np.arange(8.0) * 2.0, np.ones(8)]
        k1, v1 = sample_blend_batch(latents, 0.3, seed=99, count=1)[0]
        k2, v2 = sample_blend_batch(latents, 0.3, seed=99, count=1)[0]
        assert k1 == k2
        np.testing.assert_array_equal(v1, v2)
        k3, v3 = sample_blend_batch(latents, 0.3, seed=100, count=1)[0]
        assert k3 != k1 or not np.array_equal(v3, v1)

    def test_alpha_zero_returns_chosen_latent(self):
        latents = [np.arange(1.0, 9.0), np.arange(2.0, 10.0)]
        k, out = sample_blend_batch(latents, 0.0, seed=5, count=1)[0]
        np.testing.assert_array_equal(out, latents[k])

    def test_alpha_one_ignores_latent_values(self):
        """At alpha 1 the output is pure noise: latent contents are irrelevant."""
        a = [np.full(16, 3.0), np.full(16, -2.0)]
        b = [np.full(16, 100.0), np.full(16, 55.0)]
        k_a, out_a = sample_blend_batch(a, 1.0, seed=21, count=1)[0]
        k_b, out_b = sample_blend_batch(b, 1.0, seed=21, count=1)[0]
        assert k_a == k_b
        np.testing.assert_array_equal(out_a, out_b)

    def test_batch_prefix_matches_single(self):
        latents = [np.arange(6.0), np.ones(6)]
        single = sample_blend_batch(latents, 0.4, seed=77, count=1)[0]
        batch = sample_blend_batch(latents, 0.4, seed=77, count=4)
        assert len(batch) == 4
        assert batch[0][0] == single[0]
        np.testing.assert_array_equal(batch[0][1], single[1])

    def test_noise_moments(self):
        """alpha=1 outputs are standard normal: check pooled mean and variance."""
        latents = [np.zeros(64)]
        draws = np.concatenate(
            [vec for _, vec in sample_blend_batch(latents, 1.0, seed=8, count=500)]
        )
        assert abs(draws.mean()) < 0.02
        assert draws.var() == pytest.approx(1.0, rel=0.03)

    def test_empty_latents_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sample_blend_batch([], 0.5, seed=0, count=1)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            sample_blend_batch([np.zeros(4), np.zeros(5)], 0.5, seed=0, count=1)
