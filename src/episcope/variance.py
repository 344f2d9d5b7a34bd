"""Closed-form moments of the episode-averaged accuracy estimator.

An evaluation runs Kp episodes and estimates each episode's accuracy from Kq
queries (Kq counts queries per episode, totalled across classes). With a the
mean and sigma_a the standard deviation of the true per-episode accuracy, the
estimator's variance decomposes into a query-sampling (binomial) term and an
inter-episode term:

    Var = (1/Kp) * ( a*(1-a)/Kq + (1 - 1/Kq) * sigma_a^2 )

For large Kq the (1 - 1/Kq) factor is commonly dropped, and as Kq grows the
variance approaches sigma_a^2 / Kp, the perfect-per-episode-estimation limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# 97.5% standard-normal quantile, used for planning-time interval widths.
Z95 = 1.96

# Absolute slack on the std^2 <= mean*(1-mean) bound, tolerating floats that
# went through serialization round trips.
STD_BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class AccuracyPrior:
    """Mean and standard deviation of the true per-episode accuracy."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean) or not 0.0 <= self.mean <= 1.0:
            raise ValueError(f"prior mean must lie in [0, 1], got {self.mean}")
        if not math.isfinite(self.std) or self.std < 0.0:
            raise ValueError(f"prior std must be non-negative, got {self.std}")
        bound = self.mean * (1.0 - self.mean)
        if self.std**2 > bound + STD_BOUND_SLACK:
            raise ValueError(
                f"prior std^2 ({self.std**2:.17g}) exceeds mean*(1-mean) "
                f"({bound:.17g}); no [0,1]-valued accuracy has these moments"
            )

    @property
    def variance(self) -> float:
        return self.std * self.std


@dataclass(frozen=True)
class EvalDesign:
    """Evaluation shape: Kp episodes, Kq queries per episode (total)."""

    episodes: int
    queries_per_episode: int

    def __post_init__(self) -> None:
        _check_positive_int(self.episodes, "episodes")
        _check_positive_int(self.queries_per_episode, "queries_per_episode")


@dataclass(frozen=True)
class VarianceReport:
    """Exact, approximate and limiting variance plus a 95% half-width."""

    exact_var: float
    approx_var: float
    asymptote_var: float
    ci95_halfwidth: float


def _check_positive_int(value: int, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def queries_total(queries_per_class: int, ways: int) -> int:
    """Total queries per episode from a per-class count and episode width.

    Kq in the variance formulas is the total per episode; benchmark protocols
    usually quote queries per class, so this is the conversion point.
    """
    _check_positive_int(queries_per_class, "queries_per_class")
    _check_positive_int(ways, "ways")
    return queries_per_class * ways


def per_episode_variance(prior: AccuracyPrior, queries_per_episode: int) -> float:
    """Variance of a single episode's accuracy estimate around the mean a.

    This is the bracketed term a*(1-a)/Kq + (1 - 1/Kq)*sigma_a^2; dividing by
    Kp gives the full estimator variance.
    """
    _check_positive_int(queries_per_episode, "queries_per_episode")
    return _per_episode_variance(prior, queries_per_episode)


def _per_episode_variance(prior: AccuracyPrior, kq):
    """Unchecked ``per_episode_variance``; ``kq`` may also be a float array."""
    a = prior.mean
    return (1.0 / kq) * a * (1.0 - a) + (1.0 - 1.0 / kq) * prior.variance


def estimator_variance(prior: AccuracyPrior, design: EvalDesign) -> float:
    """Exact variance of the mean accuracy over Kp episodes of Kq queries."""
    return per_episode_variance(prior, design.queries_per_episode) / design.episodes


def estimator_variance_approx(prior: AccuracyPrior, design: EvalDesign) -> float:
    """Large-Kq approximation: drops the (1 - 1/Kq) factor on sigma_a^2."""
    a = prior.mean
    kq = design.queries_per_episode
    return ((1.0 / kq) * a * (1.0 - a) + prior.variance) / design.episodes


def variance_asymptote(prior: AccuracyPrior, episodes: int) -> float:
    """Kq -> infinity limit sigma_a^2 / Kp: only inter-episode scatter remains."""
    _check_positive_int(episodes, "episodes")
    return prior.variance / episodes


def variance_report(prior: AccuracyPrior, design: EvalDesign) -> VarianceReport:
    """Bundle the three variance forms with a normal-approximation 95% half-width."""
    exact = estimator_variance(prior, design)
    return VarianceReport(
        exact_var=exact,
        approx_var=estimator_variance_approx(prior, design),
        asymptote_var=variance_asymptote(prior, design.episodes),
        ci95_halfwidth=Z95 * math.sqrt(exact),
    )
