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
    _per_episode_variance,
    variance_report,
)

TRADEOFF_CSV_HEADER = "kp,kq,exact_var,approx_var,asymptote_var,ci95"

# Episode counts must stay exact as floats, where the solver compares them.
_MAX_EXACT_EPISODES = 2**53

# Below the smallest normal float, v1 / Kp rounds so coarsely that the solver's
# -1/+1 steps from ceil(v1 / target_var) could take ~Kp steps.
_MIN_NORMAL = float(np.finfo(np.float64).tiny)

# Kq values ``min_cost_design`` evaluates per numpy step after the first (which
# holds at most this many), and so how often it checks its early stop; bounds
# memory only, as results do not depend on it.
_KQ_CHUNK = 1 << 13


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

    def total(self, episodes, queries_per_episode):
        """Cost of Kp episodes of Kq queries; also elementwise on float arrays."""
        return episodes * self.cost_per_episode + episodes * queries_per_episode * self.cost_per_query


@dataclass(frozen=True)
class PlanResult:
    episodes: int
    queries_per_episode: int
    predicted_var: float
    predicted_ci95: float
    total_cost: float


@dataclass(frozen=True)
class TradeoffCell:
    episodes: int
    queries_per_episode: int
    report: VarianceReport


def _check_target_var(target_var: float) -> None:
    if not (math.isfinite(target_var) and target_var > 0.0):
        raise ValueError(f"target_var must be > 0, got {target_var}")


def _min_episodes(prior: AccuracyPrior, kq: np.ndarray, target_var: float) -> np.ndarray:
    """``min_episodes_for_variance`` at each Kq of the float array ``kq``.

    The 2**53 error names the first unreachable Kq; the caller checks that the
    target is positive.
    """
    v1 = _per_episode_variance(prior, kq)
    with np.errstate(over="ignore"):  # inf for a tiny target: unreachable
        ratio = v1 / target_var
    unreachable = ~(ratio < _MAX_EXACT_EPISODES)
    if unreachable.any():
        i = int(np.argmax(unreachable))
        raise ValueError(
            f"target_var={target_var:g} needs about {ratio[i]:.3g} episodes at "
            f"Kq={int(kq[i])}, beyond the 2**53 an episode count may reach"
        )
    if target_var < _MIN_NORMAL and (v1 > 0.0).any():
        raise ValueError(
            f"target_var={target_var:g} is below the smallest normal float "
            f"({_MIN_NORMAL:g}), too fine for the variance formula to resolve"
        )
    kp = np.maximum(np.ceil(ratio), 1.0)
    while (down := (kp > 1.0) & (v1 / np.maximum(kp - 1.0, 1.0) <= target_var)).any():
        kp -= down
    while (up := v1 / kp > target_var).any():
        kp += up
    return kp


def min_episodes_for_variance(
    prior: AccuracyPrior, queries_per_episode: int, target_var: float
) -> int:
    """Smallest Kp whose estimator variance at Kq queries meets ``target_var``.

    Computed as the ceiling of the real-valued solution, then verified by
    evaluating the forward formula at Kp and Kp-1 so float rounding at the
    boundary cannot shift the answer. Raises ``ValueError`` when the answer
    would reach 2**53, past which consecutive counts share one float, and
    when a positive per-episode variance meets a target below the smallest
    normal float.
    """
    _check_target_var(target_var)
    _check_positive_int(queries_per_episode, "queries_per_episode")
    kq = np.array([queries_per_episode], dtype=np.float64)
    return int(_min_episodes(prior, kq, target_var)[0])


def min_episodes_for_ci(
    prior: AccuracyPrior, queries_per_episode: int, target_halfwidth: float
) -> int:
    """Smallest Kp whose predicted 95% half-width meets ``target_halfwidth``.

    The predicted half-width is Z95 sqrt(v), v the model's variance of the estimate.
    ``episodes.aggregate`` reports t(Kp - 1) s / sqrt(Kp) from the sample std s
    instead, so at small Kp the reported half-width is wider than the target on
    average (see the README's ``--target-ci`` paragraph); the rule is kept as it is.
    """
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


def _first_chunk_end(prior: AccuracyPrior, cost: CostModel, target_var: float) -> int:
    """Last Kq of ``min_cost_design``'s first chunk: where the scan should be able to stop.

    The solver's Kp is never below v1(Kq) / target_var, with v1(Kq) =
    sigma^2 + D / Kq and D = a(1-a) - sigma^2, so a design at Kq costs at least
    f(Kq) = v1(Kq)(c_e + c_q Kq) / target_var, least near
    Kq_c = sqrt(max(D, 0) c_e / (sigma^2 c_q)); the design there costs at most
    one episode more. ``_tail_cost_floor`` of [K, kq_max] is at least
    max(sigma^2 / target_var - 2, 1) episodes at K, so the chunk ends at the K
    where that floor reaches the design near Kq_c, capped at ``_KQ_CHUNK``.
    It is ``_KQ_CHUNK`` long when sigma^2 c_q = 0, and under a target below the
    smallest normal float, where the solver raises and which error comes
    first depends on the chunk.
    """
    s2 = prior.variance
    rate = s2 * cost.cost_per_query
    if rate == 0.0 or target_var < _MIN_NORMAL:
        return _KQ_CHUNK
    spread = max(prior.mean * (1.0 - prior.mean) - s2, 0.0)
    kq_c = max(math.sqrt(spread * cost.cost_per_episode / rate), 1.0)
    near = ((s2 + spread / kq_c) / target_var + 1.0) * cost.total(1.0, kq_c)
    end = (near / max(s2 / target_var - 2.0, 1.0) - cost.cost_per_episode) / cost.cost_per_query
    if not end < _KQ_CHUNK:
        return _KQ_CHUNK
    return max(math.ceil(end), 1)


def _tail_cost_floor(
    prior: AccuracyPrior, cost: CostModel, target_var: float, kq_low: int, kq_high: int
) -> float:
    """A lower bound on the computed cost of every design with Kq in [kq_low, kq_high].

    v1(Kq) = sigma^2 + (a(1-a) - sigma^2) / Kq is monotone in Kq, so v1 at the
    two ends bounds it over the range to within a few ulps; the 1e-12 margins
    cover that rounding. The solver's Kp is then at least
    floor(v1_low / target_var) - 1, and since rounding is monotone and both
    rates are non-negative, ``cost.total`` at that Kp and kq_low is at most
    the computed total of any design in the range. Returns -inf when the
    solver could raise somewhere in the range (a count at or past 2**53, or a
    positive v1 under a target below the smallest normal float), so that such
    a range is never skipped.
    """
    v_low, v_high = sorted(_per_episode_variance(prior, float(kq)) for kq in (kq_low, kq_high))
    if target_var < _MIN_NORMAL and v_high > 0.0:
        return -math.inf
    if not v_high / target_var * (1.0 + 1e-12) < _MAX_EXACT_EPISODES:
        return -math.inf
    kp_low = max(math.floor(v_low / target_var * (1.0 - 1e-12)) - 1, 1)
    return cost.total(float(kp_low), float(kq_low))


def _cheapest_row(total: np.ndarray, kp: np.ndarray) -> int:
    """Row of a Kq chunk with the least total, then the fewest episodes, then the most queries.

    The chunk's Kq rises with the row, so the last row left is the one with the
    most queries: the first row of ``np.lexsort((-kq, kp, total))``, without
    sorting the chunk. Totals are never NaN (finite rates times finite counts).
    """
    rows = np.flatnonzero(total == total.min())
    fewest = kp[rows]
    return int(rows[fewest == fewest.min()][-1])


def min_cost_design(
    prior: AccuracyPrior, cost: CostModel, target_var: float, kq_max: int
) -> PlanResult:
    """Cheapest (Kp, Kq) with Kq <= kq_max meeting the variance target.

    Scans Kq upward, with the matching Kp solved in closed form. Always
    feasible: variance vanishes as Kp grows. Cost ties prefer fewer episodes,
    then more queries (extra free queries only lower the achieved variance).

    Kq is scanned in numpy chunks, each solved by the same episode-count
    solver as ``min_episodes_for_variance``, and each chunk's best row is kept
    by the key (cost, Kp, -Kq), so the answer equals calling the scalar
    solver per Kq. The first chunk ends where ``_first_chunk_end`` says: at the
    Kq where the tail floor below reaches the cost of the design near the
    minimiser Kq_c of the cost's continuous relaxation, capped at ``_KQ_CHUNK``
    (Kq 180 for a = 0.87, sigma = 0.05, costs 100 and 1, target 6.62e-6); every
    later chunk holds ``_KQ_CHUNK`` values.

    Before the chunk starting at Kq = K, ``_tail_cost_floor`` bounds the cost
    of every design with Kq in [K, kq_max] from below, and the scan stops when
    that bound is strictly greater than the best cost so far. The stop is
    exact: no skipped design could cost less or tie, and a tail on which the
    solver could raise is never skipped, so the result and every error are
    those of the full scan. With ``cost_per_query=0`` and sigma^2 <= a(1-a),
    Kp never rises with Kq, so the bound never passes the best cost and the
    scan still runs to ``kq_max``.
    """
    _check_target_var(target_var)
    _check_positive_int(kq_max, "kq_max")
    end = _first_chunk_end(prior, cost, target_var)
    best: tuple[float, int, int] | None = None
    start = 1
    while start <= kq_max:
        if best is not None and _tail_cost_floor(prior, cost, target_var, start, kq_max) > best[0]:
            break
        kq = np.arange(start, min(end, kq_max) + 1, dtype=np.float64)
        kp = _min_episodes(prior, kq, target_var)
        # kp and kq are exact floats, so kp * kq rounds as the integer product does.
        total = cost.total(kp, kq)
        i = _cheapest_row(total, kp)
        key = (float(total[i]), int(kp[i]), -int(kq[i]))
        if best is None or key < best:
            best = key
        start, end = end + 1, end + _KQ_CHUNK
    total, episodes, neg_kq = best
    report = variance_report(prior, EvalDesign(episodes=episodes, queries_per_episode=-neg_kq))
    return PlanResult(
        episodes=episodes,
        queries_per_episode=-neg_kq,
        predicted_var=report.exact_var,
        predicted_ci95=report.ci95_halfwidth,
        total_cost=total,
    )
