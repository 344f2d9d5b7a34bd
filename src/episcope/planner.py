"""Inverse problems over the estimator-variance model.

Solves for the episode count needed to hit a target variance or interval
width, tabulates episode/query trade-offs, and picks the cheapest design
under a linear cost model (fixed specialization cost per episode plus a
per-query inference cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .variance import (
    Z95,
    AccuracyPrior,
    EvalDesign,
    VarianceReport,
    _check_positive_int,
    estimator_variance,
    per_episode_variance,
    variance_report,
)

TRADEOFF_CSV_HEADER = "kp,kq,exact_var,approx_var,asymptote_var,ci95"

# Episode counts must stay exact as floats, where the solver compares them.
_MAX_EXACT_EPISODES = 2**53

# Kq values ``min_cost_design`` evaluates per numpy step; bounds memory only.
_KQ_CHUNK = 1 << 16


@dataclass(frozen=True)
class CostModel:
    """Linear evaluation cost: episodes are expensive, queries are cheap."""

    cost_per_episode: float
    cost_per_query: float

    def __post_init__(self) -> None:
        for name in ("cost_per_episode", "cost_per_query"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.cost_per_episode == 0.0 and self.cost_per_query == 0.0:
            raise ValueError("cost model must have at least one non-zero rate")

    def total(self, episodes: int, queries_per_episode: int) -> float:
        return episodes * self.cost_per_episode + episodes * queries_per_episode * self.cost_per_query


@dataclass(frozen=True)
class PlanResult:
    episodes: int
    queries_per_episode: int
    predicted_var: float
    predicted_ci95: float
    total_cost: float

    def to_dict(self) -> dict[str, float | int]:
        return {
            "episodes": self.episodes,
            "queries_per_episode": self.queries_per_episode,
            "predicted_var": self.predicted_var,
            "predicted_ci95": self.predicted_ci95,
            "total_cost": self.total_cost,
        }


@dataclass(frozen=True)
class TradeoffCell:
    episodes: int
    queries_per_episode: int
    report: VarianceReport


def min_episodes_for_variance(
    prior: AccuracyPrior, queries_per_episode: int, target_var: float
) -> int:
    """Smallest Kp whose estimator variance at Kq queries meets ``target_var``.

    Computed as the ceiling of the real-valued solution, then verified by
    evaluating the forward formula at Kp and Kp-1 so float rounding at the
    boundary cannot shift the answer. Raises ``ValueError`` when the answer
    would reach 2**53, past which consecutive counts share one float.
    """
    if not (math.isfinite(target_var) and target_var > 0.0):
        raise ValueError(f"target_var must be > 0, got {target_var}")
    v1 = per_episode_variance(prior, queries_per_episode)
    if v1 <= 0.0:
        return 1
    ratio = v1 / target_var
    if not ratio < _MAX_EXACT_EPISODES:
        raise ValueError(
            f"target_var={target_var:g} needs about {ratio:.3g} episodes at "
            f"Kq={queries_per_episode}, beyond the 2**53 an episode count may reach"
        )
    episodes = max(1, math.ceil(ratio))
    while episodes > 1 and v1 / (episodes - 1) <= target_var:
        episodes -= 1
    while v1 / episodes > target_var:
        episodes += 1
    return episodes


def min_episodes_for_ci(
    prior: AccuracyPrior, queries_per_episode: int, target_halfwidth: float
) -> int:
    """Smallest Kp whose predicted 95% half-width meets ``target_halfwidth``."""
    if not (math.isfinite(target_halfwidth) and 0.0 < target_halfwidth < 1.0):
        raise ValueError(f"target_halfwidth must lie in (0, 1), got {target_halfwidth}")
    return min_episodes_for_variance(prior, queries_per_episode, (target_halfwidth / Z95) ** 2)


def tradeoff_table(
    prior: AccuracyPrior, kp_values: list[int], kq_values: list[int]
) -> list[TradeoffCell]:
    """Variance reports over the (Kp, Kq) grid, row-major by Kp."""
    if not kp_values or not kq_values:
        raise ValueError("kp_values and kq_values must be non-empty")
    cells = []
    for kp in kp_values:
        for kq in kq_values:
            design = EvalDesign(episodes=kp, queries_per_episode=kq)
            cells.append(TradeoffCell(kp, kq, variance_report(prior, design)))
    return cells


def tradeoff_csv(cells: list[TradeoffCell]) -> str:
    """Render a trade-off table as CSV text (header row included)."""
    lines = [TRADEOFF_CSV_HEADER]
    for cell in cells:
        r = cell.report
        lines.append(
            f"{cell.episodes},{cell.queries_per_episode},"
            f"{r.exact_var:.10g},{r.approx_var:.10g},{r.asymptote_var:.10g},"
            f"{r.ci95_halfwidth:.10g}"
        )
    return "\n".join(lines) + "\n"


def min_cost_design(
    prior: AccuracyPrior, cost: CostModel, target_var: float, kq_max: int
) -> PlanResult:
    """Cheapest (Kp, Kq) with Kq <= kq_max meeting the variance target.

    Exhaustive over Kq, with the matching Kp solved in closed form. Always
    feasible: variance vanishes as Kp grows. Cost ties prefer fewer episodes,
    then more queries (extra free queries only lower the achieved variance).

    Kq is scanned in numpy chunks of ``_KQ_CHUNK`` values. Each chunk repeats
    ``min_episodes_for_variance`` elementwise with the same float operations
    in the same order, and its best row is kept by the key (cost, Kp, -Kq),
    so the answer is bit-identical to calling the scalar solver per Kq.
    """
    if not (math.isfinite(target_var) and target_var > 0.0):
        raise ValueError(f"target_var must be > 0, got {target_var}")
    _check_positive_int(kq_max, "kq_max")
    a, var = prior.mean, prior.variance
    best: tuple[float, int, int] | None = None
    for start in range(1, kq_max + 1, _KQ_CHUNK):
        kq = np.arange(start, min(start + _KQ_CHUNK, kq_max + 1))
        inv_kq = 1.0 / kq
        v1 = inv_kq * a * (1.0 - a) + (1.0 - inv_kq) * var
        with np.errstate(over="ignore"):  # inf, like the scalar division
            ratio = v1 / target_var
        unreachable = ~(ratio < _MAX_EXACT_EPISODES)
        if unreachable.any():
            # The scalar solver raises there, naming the target.
            min_episodes_for_variance(prior, int(kq[np.argmax(unreachable)]), target_var)
        kp = np.maximum(np.ceil(ratio), 1.0).astype(np.int64)
        while True:
            down = (kp > 1) & (v1 / np.maximum(kp - 1, 1) <= target_var)
            if not down.any():
                break
            kp -= down
        while True:
            up = v1 / kp > target_var
            if not up.any():
                break
            kp += up
        # kp and kq are exact floats, so kp * kq rounds as the integer product does.
        kp_f = kp.astype(np.float64)
        total = kp_f * cost.cost_per_episode + (kp_f * kq) * cost.cost_per_query
        i = np.lexsort((-kq, kp, total))[0]
        key = (float(total[i]), int(kp[i]), -int(kq[i]))
        if best is None or key < best:
            best = key
    total, episodes, neg_kq = best
    queries = -neg_kq
    design = EvalDesign(episodes=episodes, queries_per_episode=queries)
    predicted = estimator_variance(prior, design)
    return PlanResult(
        episodes=episodes,
        queries_per_episode=queries,
        predicted_var=predicted,
        predicted_ci95=Z95 * math.sqrt(predicted),
        total_cost=total,
    )
