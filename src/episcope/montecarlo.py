"""Beta-Binomial simulator for the accuracy estimator.

Checks the closed-form variance model empirically: per-episode accuracies
follow a Beta distribution moment-matched to the prior (the model itself is
distribution-free over [0,1], so any family with the right two moments works,
and Beta fits in closed form), each episode is evaluated with Kq Bernoulli
queries, and the spread of the resulting mean accuracy across many
replications is compared against the formula.

Under that model one episode's correct count is exactly BetaBinomial(Kq,
alpha, beta), or Binomial(Kq, mean) for a zero-variance prior. ``simulate``
draws this marginal directly: one uniform per episode, inverted through the
(Kq+1)-entry count CDF from ``_count_cdf``. Every uniform comes from one
Philox stream keyed by the master seed, and replication r uses uniforms
r*Kp .. (r+1)*Kp-1 of it, so results are bit-identical for a given master
seed; the block size that bounds the draw's memory is not part of the stream.

``decompose_variance`` and ``episode_counts`` need the true accuracies, so
they keep the two-stage draw in ``_draw_episodes``: a_p ~ Beta, then counts ~
Binomial(Kq, a_p). Each reads one Philox stream keyed by its seed;
``decompose_variance`` makes one ``_draw_episodes`` call per replication, in
replication order, on that stream. ``sweep`` keys sweep point i with child
seed i of its master seed (``seeds.substream_seeds``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .seeds import check_seed, philox_generator, substream_seeds
from .variance import AccuracyPrior, EvalDesign, _check_positive_int, estimator_variance

# Margin keeping the Beta fit away from the two-point boundary distribution.
_INTERIOR_SLACK = 1e-12

# Uniforms ``simulate`` draws per block (at least one replication's worth).
# It bounds memory only: the stream does not depend on it.
_BLOCK_DRAWS = 1 << 16

# Counts per pmf evaluation in ``_count_cdf``; bounds memory only.
_CDF_CHUNK = 1 << 16


class DegeneratePriorError(ValueError):
    """A zero-variance prior has no Beta fit; sample the point mass instead."""


def fit_beta(prior: AccuracyPrior) -> tuple[float, float]:
    """Moment-matched Beta(alpha, beta) for the prior's mean and variance.

    With nu = mean*(1-mean)/var - 1, alpha = mean*nu and beta = (1-mean)*nu
    reproduce both moments exactly.
    """
    mean, var = prior.mean, prior.variance
    if var == 0.0:
        raise DegeneratePriorError(
            "prior std is 0; there is no Beta fit (use the point mass at the mean)"
        )
    if not 0.0 < mean < 1.0:
        raise ValueError(f"Beta fit needs 0 < mean < 1, got {mean}")
    bound = mean * (1.0 - mean)
    if var >= bound - _INTERIOR_SLACK:
        raise ValueError(
            f"prior variance {var:.6g} is at or beyond the two-point boundary "
            f"{bound:.6g}; no interior Beta distribution has these moments"
        )
    nu = bound / var - 1.0
    return mean * nu, (1.0 - mean) * nu


@dataclass(frozen=True)
class SimConfig:
    """One simulation: prior, design, replication count and master seed."""

    prior: AccuracyPrior
    design: EvalDesign
    replications: int
    master_seed: int

    def __post_init__(self) -> None:
        _check_positive_int(self.replications, "replications")
        if self.replications < 2:
            raise ValueError("replications must be >= 2 (sample variance needs two points)")
        check_seed(self.master_seed, "master_seed")
        if self.prior.std > 0.0:
            # Raises unless an interior Beta fit exists.
            fit_beta(self.prior)


@dataclass(frozen=True)
class SimReport:
    """Empirical vs. theoretical moments of the mean-accuracy estimator."""

    empirical_mean: float
    empirical_var: float
    theoretical_mean: float
    theoretical_var: float
    rel_var_error: float
    replications: int

    def to_dict(self) -> dict[str, float | int]:
        return {
            "empirical_mean": self.empirical_mean,
            "empirical_var": self.empirical_var,
            "theoretical_mean": self.theoretical_mean,
            "theoretical_var": self.theoretical_var,
            "rel_var_error": self.rel_var_error,
            "replications": self.replications,
        }


@dataclass(frozen=True)
class VarianceDecomposition:
    """Measured vs. expected pieces of the total-variance split.

    ``between`` is the variance of the true per-episode accuracies across all
    draws; ``within`` is the mean squared deviation of the query-estimated
    accuracy from the episode's true accuracy, expected a*(1-a)-adjusted and
    divided by Kq.
    """

    between_measured: float
    between_expected: float
    within_measured: float
    within_expected: float
    replications: int


def _draw_episodes(
    rng: np.random.Generator,
    alpha_beta: tuple[float, float] | None,
    mean: float,
    kp: int,
    kq: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One simulated evaluation: Kp true accuracies and their correct counts.

    a_p ~ Beta(alpha, beta), or the point mass at ``mean`` when ``alpha_beta``
    is None; counts[p] ~ Binomial(Kq, a_p). The point mass passes the scalar
    mean with ``size=kp``: binomial's scalar-p path is faster and draws the
    same stream as a constant array.
    """
    if alpha_beta is None:
        a_p, p = np.full(kp, mean), mean
    else:
        a_p = p = rng.beta(alpha_beta[0], alpha_beta[1], size=kp)
    return a_p, rng.binomial(kq, p, size=kp)


def _count_cdf(prior: AccuracyPrior, kq: int) -> np.ndarray:
    """CDF of one episode's correct count over 0..Kq.

    The count is BetaBinomial(Kq, alpha, beta) under the Beta fit, or
    Binomial(Kq, mean) for the point mass. The running sum is divided by its
    total, which keeps it non-decreasing and ends it at exactly 1.0 even when
    the pmf's rounding makes the raw sum overshoot 1 before Kq.

    The pmf is evaluated over ``_CDF_CHUNK`` counts at a time, so scipy's
    temporaries scale with the chunk rather than with Kq. Each chunk's first
    term absorbs the running sum before its ``cumsum``, which adds in the same
    order as one ``cumsum`` over the whole pmf.
    """
    if prior.std == 0.0:
        pmf_of, params = stats.binom.pmf, (kq, prior.mean)
    else:
        pmf_of, params = stats.betabinom.pmf, (kq, *fit_beta(prior))
    cdf = np.empty(kq + 1)
    carry = 0.0
    for start in range(0, kq + 1, _CDF_CHUNK):
        pmf = pmf_of(np.arange(start, min(start + _CDF_CHUNK, kq + 1)), *params)
        pmf[0] += carry
        chunk = np.cumsum(pmf, out=cdf[start:start + len(pmf)])
        carry = chunk[-1]
    cdf /= cdf[-1]
    return cdf


def simulate(config: SimConfig) -> SimReport:
    """Run the full simulation and compare moments against the closed form.

    Each replication draws Kp episode counts from their exact marginal,
    BetaBinomial(Kq, alpha, beta) or Binomial(Kq, mean) for a zero-variance
    prior, by inverting one uniform per episode through ``_count_cdf``, and
    averages the per-episode empirical accuracies. The uniforms come from one
    Philox stream keyed by the master seed, replication r taking uniforms
    r*Kp .. (r+1)*Kp-1; they are drawn in blocks of whole replications, and
    the block size is not part of the stream. Reported variance uses divisor
    replications-1.
    """
    design = config.design
    kp, reps = design.episodes, config.replications
    cdf = _count_cdf(config.prior, design.queries_per_episode)
    rng = philox_generator(config.master_seed)
    block = max(1, _BLOCK_DRAWS // kp)
    totals = np.empty(reps, dtype=np.int64)
    for start in range(0, reps, block):
        m = min(block, reps - start)
        counts = np.searchsorted(cdf, rng.random(m * kp), side="right")
        totals[start:start + m] = counts.reshape(m, kp).sum(axis=1)
    a_tilde = totals / (kp * design.queries_per_episode)
    empirical_mean = float(np.mean(a_tilde))
    empirical_var = float(np.var(a_tilde, ddof=1))
    theoretical_var = estimator_variance(config.prior, design)
    if theoretical_var > 0.0:
        rel_var_error = abs(empirical_var / theoretical_var - 1.0)
    else:
        rel_var_error = 0.0 if empirical_var == 0.0 else float("inf")
    return SimReport(
        empirical_mean=empirical_mean,
        empirical_var=empirical_var,
        theoretical_mean=config.prior.mean,
        theoretical_var=theoretical_var,
        rel_var_error=rel_var_error,
        replications=config.replications,
    )


def sweep(
    prior: AccuracyPrior,
    kq_values: list[int],
    kp: int,
    replications: int,
    master_seed: int,
) -> list[SimReport]:
    """One simulation per Kq value, each on its own derived master seed."""
    if not kq_values:
        raise ValueError("kq_values must be non-empty")
    check_seed(master_seed, "master_seed")
    reports = []
    for kq, seed in zip(kq_values, substream_seeds(master_seed, len(kq_values)).tolist()):
        config = SimConfig(
            prior=prior,
            design=EvalDesign(episodes=kp, queries_per_episode=kq),
            replications=replications,
            master_seed=seed,
        )
        reports.append(simulate(config))
    return reports


def decompose_variance(config: SimConfig) -> VarianceDecomposition:
    """Instrument the two variance sources separately.

    Pools the true accuracy draws and the squared estimation errors across
    all replications and episodes. Every replication draws from one Philox
    stream keyed by the master seed: Kp Beta draws, then Kp binomial draws,
    replication after replication.
    """
    prior, kp, kq = config.prior, config.design.episodes, config.design.queries_per_episode
    alpha_beta = None if prior.std == 0.0 else fit_beta(prior)
    rng = philox_generator(config.master_seed)
    # Accumulate deviations from the known prior mean: numerically stable and
    # exactly zero for the point-mass case.
    sum_dev = np.empty(config.replications)
    sum_dev2 = np.empty(config.replications)
    sum_sq_err = np.empty(config.replications)
    for r in range(config.replications):
        a_p, counts = _draw_episodes(rng, alpha_beta, prior.mean, kp, kq)
        err = counts / kq - a_p
        dev = a_p - prior.mean
        sum_dev[r] = dev.sum()
        sum_dev2[r] = (dev * dev).sum()
        sum_sq_err[r] = (err * err).sum()

    n_draws = config.replications * kp
    total_dev = float(np.sum(sum_dev))
    between = (float(np.sum(sum_dev2)) - total_dev * total_dev / n_draws) / (n_draws - 1)
    within = float(np.sum(sum_sq_err)) / n_draws
    a = prior.mean
    return VarianceDecomposition(
        between_measured=between,
        between_expected=prior.variance,
        within_measured=within,
        within_expected=(a * (1.0 - a) - prior.variance) / kq,
        replications=config.replications,
    )


def episode_counts(prior: AccuracyPrior, design: EvalDesign, seed: int) -> np.ndarray:
    """Per-episode correct-answer counts from one simulated evaluation.

    Useful for feeding downstream aggregation the same way a real run would:
    episode p contributes (counts[p], Kq).
    """
    check_seed(seed, "seed")
    alpha_beta = None if prior.std == 0.0 else fit_beta(prior)
    _, counts = _draw_episodes(
        philox_generator(seed), alpha_beta, prior.mean,
        design.episodes, design.queries_per_episode,
    )
    return counts
