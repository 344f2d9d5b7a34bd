"""Frechet distance between Gaussian fits of two feature sets, at any dimensionality.

Each covariance is used through a factor S = F F^T, and both are factored the same way.
A fit of n <= d samples keeps its centred samples scaled by 1/sqrt(n-1) as F (d x n)
and forms no d x d matrix; any other covariance is factored by numpy's Cholesky,
S = L L^T, or, when that fails because S is singular or not a covariance, by its
eigendecomposition, F = V sqrt(max(w, 0)). One eigvalsh of the smaller Gram matrix of
F1^T F2 gives Tr (S1^(1/2) S2 S1^(1/2))^(1/2) for every pair. Only numpy is used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Eigenvalues below -NEG_EIG_WARN_TOL * max(1, max |diagonal|) mean a broken covariance.
NEG_EIG_WARN_TOL = 1e-6

_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class GaussianStats:
    """Mean vector and covariance matrix of a feature distribution."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"cov shape {cov.shape} does not match mean dimension {mean.size}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("Gaussian stats must be finite")
        with np.errstate(over="ignore"):  # finite entries can still sum past the float range
            trace = np.trace(cov)
        if not np.isfinite(trace):  # frechet_distance works in units of tr S
            raise ValueError("Gaussian stats must be finite")
        if np.max(np.abs(cov - cov.T), initial=0.0) > _SYMMETRY_TOL:
            raise ValueError("covariance must be symmetric to within 1e-9")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


class _SampleFit(GaussianStats):
    """A fit of n <= d samples: S = factor @ factor.T, factor the d x n scaled centred samples.

    ``trace`` is tr S = ||factor||_F^2; ``cov`` is formed only when first read.
    """

    def __init__(self, mean: np.ndarray, factor: np.ndarray, trace: float) -> None:
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "trace", trace)

    @cached_property
    def cov(self) -> np.ndarray:
        cov = self.factor @ self.factor.T
        return (cov + cov.T) / 2.0


def fit_gaussian(features: np.ndarray) -> GaussianStats:
    """Sample mean and covariance (divisor n-1) of a feature matrix.

    ``features`` is (n, d) with n >= 2. For n > d the covariance is formed and symmetrized
    as (C + C^T)/2 to scrub accumulation asymmetry; for n <= d the fit keeps the centred
    samples instead and forms the (exactly symmetric) covariance only when ``cov`` is read.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be a 2-D (n, dim) array, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValueError(f"need at least 2 feature rows to fit a covariance, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite values")
    # Features near the float64 limit can overflow the mean, the centring or the
    # covariance (and then meet inf - inf); the finite checks refuse such a fit, so
    # numpy's warnings would only come before that error.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        centered = x - mean
        if x.shape[0] <= x.shape[1]:
            centered /= np.sqrt(x.shape[0] - 1)
            trace = float(np.vdot(centered, centered))
            if not np.isfinite(trace):  # every |covariance entry| is at most the trace
                raise ValueError("Gaussian stats must be finite")
            return _SampleFit(mean, centered.T, trace)
        cov = centered.T @ centered / (x.shape[0] - 1)
        cov = (cov + cov.T) / 2.0
    return GaussianStats(mean=mean, cov=cov)


def _warn_if_negative(eigvals: np.ndarray, scale: float) -> None:
    """Warn if the ascending ``eigvals`` start below -NEG_EIG_WARN_TOL * max(1, scale)."""
    if eigvals.size and eigvals[0] < -NEG_EIG_WARN_TOL * max(1.0, scale):
        warnings.warn(f"covariance eigenvalue {eigvals[0]:.3e} is well below zero; input is not "
                      "a valid covariance matrix", RuntimeWarning, stacklevel=4)


def _factor(g: GaussianStats) -> tuple[np.ndarray, float]:
    """A factor F of S = F F^T, d x r, and tr S.

    A fit of n <= d samples gives its kept samples (r = n). Any other S is factored by
    numpy's Cholesky, F = L (r = d); when that fails, S is singular or not a covariance,
    and F = V sqrt(max(w, 0)) from S = V diag(w) V^T, warning if an eigenvalue w lies
    below -NEG_EIG_WARN_TOL * max(1, max |diag S|).
    """
    if isinstance(g, _SampleFit):
        return g.factor, g.trace
    try:
        root = np.linalg.cholesky(g.cov)
    except np.linalg.LinAlgError:  # S is singular, or not a covariance
        w, v = np.linalg.eigh(g.cov)
        _warn_if_negative(w, np.max(np.abs(np.diag(g.cov)), initial=0.0))
        root = v * np.sqrt(np.maximum(w, 0.0))
    return root, np.trace(g.cov)


def frechet_distance(g1: GaussianStats, g2: GaussianStats) -> float:
    """Squared Frechet distance ||mu1 - mu2||^2 + Tr(S1 + S2 - 2 (S1^(1/2) S2 S1^(1/2))^(1/2)).

    Both covariances are factored by ``_factor``, S1 = F1 F1^T (d x r1) and S2 = F2 F2^T
    (d x r2): the kept samples of an n <= d fit, else the Cholesky factor, else the
    clipped eigendecomposition, which alone can warn, in its own matrix's units. The
    root's trace is the sum of the singular values of F1^T F2, the square roots of the
    eigenvalues of its Gram matrix formed on the shorter side, in O(d r1 r2 + min(r1,
    r2)^3) flops. Eigenvalues at or below eps tr S1 tr S2, the round-off of forming the
    Gram matrix, count as 0, and the result is clipped at 0.

    The Gram matrix scales as tr S1 tr S2, which would leave the float64 range for
    features beyond about 1e80 or below 1e-100, so F1^T F2 is scaled by 2**-m, with 4**m
    near tr S1 tr S2, and the root trace is scaled back by 2**m. Powers of two scale
    exactly, so results within that range are unchanged, and the range reaches features
    of about 1e-150 to 1e150.
    """
    if g1.dim != g2.dim:
        raise ValueError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    (root1, trace1), (root2, trace2) = _factor(g1), _factor(g2)
    # tr S1 = 4**h1 and tr S2 = 4**h2 to within a factor of 2; m = h1 + h2.
    h1, h2 = (math.frexp(abs(trace))[1] // 2 for trace in (trace1, trace2))
    m = h1 + h2
    cross = root1.T @ root2
    np.ldexp(cross, -m, out=cross)
    inner = cross @ cross.T if cross.shape[0] <= cross.shape[1] else cross.T @ cross
    eigvals = np.linalg.eigvalsh(inner)
    # Round-off in the factors and in forming the Gram matrix moves its eigenvalues by
    # about eps ||S1|| ||S2|| <= eps tr S1 tr S2; anything at or below that counts as 0.
    floor = np.finfo(np.float64).eps * abs(
        math.ldexp(trace1, -2 * h1) * math.ldexp(trace2, -2 * h2)
    )
    root_trace = math.ldexp(np.sum(np.sqrt(eigvals[eigvals > floor])), m)
    trace_term = float(trace1 + trace2 - 2.0 * root_trace)
    return max(0.0, float(np.sum((g1.mean - g2.mean) ** 2)) + trace_term)


def fid(features_a: np.ndarray, features_b: np.ndarray) -> float:
    """Frechet distance between the Gaussian fits of two feature sets."""
    return frechet_distance(fit_gaussian(features_a), fit_gaussian(features_b))
