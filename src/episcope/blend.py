"""Norm-corrected interpolation between a latent vector and noise.

A plain convex blend of two high-dimensional vectors usually lands at a
smaller norm than either input. The corrected blend keeps the blend's
direction but rescales it so the output norm equals the interpolation of the
input norms, and reproduces the endpoints exactly at alpha 0 and 1.
"""

from __future__ import annotations

import math

import numpy as np

from .seeds import check_seed, philox_generator
from .variance import _check_positive_int

# Blend norms below this are treated as a degenerate (antipodal) combination.
DEGENERATE_NORM = 1e-12


class DegenerateBlendError(ArithmeticError):
    """The blended vector vanished, so no direction survives to rescale."""


def _as_vector(value, name: str) -> np.ndarray:
    vec = np.asarray(value, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} contains non-finite values")
    return vec


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def blend_raw(z, noise, alpha: float) -> np.ndarray:
    """Plain convex combination (1-alpha)*z + alpha*noise."""
    z = _as_vector(z, "z")
    n = _as_vector(noise, "noise")
    if z.shape != n.shape:
        raise ValueError(f"dimension mismatch: {z.shape} vs {n.shape}")
    alpha = _check_alpha(alpha)
    return (1.0 - alpha) * z + alpha * n


def blend_norm_corrected(z, noise, alpha: float) -> np.ndarray:
    """Convex blend rescaled to the interpolated input norms.

    The output points along blend_raw(z, noise, alpha) with norm exactly
    (1-alpha)*||z|| + alpha*||noise||. Raises DegenerateBlendError when the
    raw blend is (numerically) the zero vector, which only happens for
    antipodal inputs at the balancing alpha.
    """
    mixed = blend_raw(z, noise, alpha)
    z, n, alpha = np.asarray(z, np.float64), np.asarray(noise, np.float64), float(alpha)
    with np.errstate(over="ignore"):  # a sum of squares that overflows is rescaled in _norm
        mixed_norm = _norm(mixed)
        target = (1.0 - alpha) * _norm(z) + alpha * _norm(n)
    if mixed_norm < DEGENERATE_NORM:
        raise DegenerateBlendError(
            f"blended vector norm {mixed_norm:.3e} is numerically zero at alpha={alpha}"
        )
    if not math.isfinite(target):
        raise ValueError(
            f"target norm (1-alpha)*||z|| + alpha*||noise|| exceeds the float64 range "
            f"at alpha={alpha}"
        )
    return mixed * (target / mixed_norm)


def _norm(vec: np.ndarray) -> float:
    """Euclidean norm, rescaled by max |x| when the plain sum of squares overflows."""
    norm = float(np.linalg.norm(vec))
    if math.isinf(norm):
        peak = float(np.max(np.abs(vec)))
        norm = peak * float(np.linalg.norm(vec / peak))
    return norm


def sample_blend_batch(
    latents, alpha: float, seed: int, count: int
) -> list[tuple[int, np.ndarray]]:
    """``count`` sequential draws of (chosen index, corrected blend).

    Each draw blends a uniformly chosen latent with fresh standard-normal
    noise. All randomness comes from one generator keyed by ``seed``, so the
    first k draws of a run are the draws of a run with ``count=k``.
    """
    _check_positive_int(count, "count")
    check_seed(seed, "seed")
    vectors = [_as_vector(vec, f"latents[{i}]") for i, vec in enumerate(latents)]
    if not vectors:
        raise ValueError("latents must be non-empty")
    dim = vectors[0].size
    for i, vec in enumerate(vectors):
        if vec.size != dim:
            raise ValueError(f"latents[{i}] has dimension {vec.size}, expected {dim}")
    alpha = _check_alpha(alpha)

    rng = philox_generator(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(0, len(vectors)))
        noise = rng.standard_normal(dim)
        out.append((k, blend_norm_corrected(vectors[k], noise, alpha)))
    return out
