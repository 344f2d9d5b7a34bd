#!/usr/bin/env python3
"""Worked evaluation-planning session.

Starts from a reference method's evaluation (its accuracy spread and design),
computes the variance that design achieved, then solves for the smallest
episode count a new method needs to match it when every remaining query
example is used, and prices the design under a per-episode cost.

Defaults mirror a standard 5-way miniImageNet test-split evaluation: a
600x75 reference at (0.87, 0.05) and a new method at (0.93, 0.028) with 595
queries per class.

Usage:
    python scripts/plan_evaluation.py [--target-var 7e-6] [--table out.csv]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from episcope.cli import _nonnegative_float, _positive_float, _positive_int, _unit_closed
from episcope.planner import (
    CostModel,
    min_cost_design,
    min_episodes_for_variance,
    tradeoff_csv,
    tradeoff_table,
)
from episcope.variance import (
    AccuracyPrior,
    EvalDesign,
    estimator_variance,
    queries_total,
    variance_report,
)


def _prior(parser: argparse.ArgumentParser, mean: float, std: float, flags: str) -> AccuracyPrior:
    try:
        return AccuracyPrior(mean, std)
    except ValueError as exc:  # each flag is in range, so only the pair can be at fault
        parser.error(f"{flags}: {exc}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ref-a", type=_unit_closed, default=0.87)
    parser.add_argument("--ref-sigma", type=_nonnegative_float, default=0.05)
    parser.add_argument("--ref-kp", type=_positive_int, default=600)
    parser.add_argument("--ref-kq-per-class", type=_positive_int, default=15)
    parser.add_argument("--new-a", type=_unit_closed, default=0.93)
    parser.add_argument("--new-sigma", type=_nonnegative_float, default=0.028)
    parser.add_argument("--queries-per-class", type=_positive_int, default=595)
    parser.add_argument("--ways", type=_positive_int, default=5)
    parser.add_argument("--target-var", type=_positive_float, default=None,
                        help="override the reference-derived variance target")
    parser.add_argument("--cost-per-episode", type=_positive_float, default=5.59,
                        help="hours of specialization per episode")
    parser.add_argument("--table", type=str, default=None,
                        help="also write a (kp x kq) trade-off CSV here")
    args = parser.parse_args(argv)

    ref_prior = _prior(parser, args.ref_a, args.ref_sigma, "--ref-a/--ref-sigma")
    new_prior = _prior(parser, args.new_a, args.new_sigma, "--new-a/--new-sigma")
    ref_kq = queries_total(args.ref_kq_per_class, args.ways)
    ref_var = estimator_variance(ref_prior, EvalDesign(args.ref_kp, ref_kq))
    target = args.target_var if args.target_var is not None else ref_var
    new_kq = queries_total(args.queries_per_class, args.ways)
    cost = CostModel(cost_per_episode=args.cost_per_episode, cost_per_query=0.0)
    try:
        episodes = min_episodes_for_variance(new_prior, new_kq, target)
        plan = min_cost_design(new_prior, cost, target, kq_max=new_kq)
    except ValueError as exc:  # a zero or unreachable variance target
        source = "--target-var" if args.target_var is not None else "--ref-a/--ref-sigma"
        parser.error(f"{source}: {exc}")
    report = variance_report(new_prior, EvalDesign(episodes, new_kq))

    print(f"reference design: {args.ref_kp} episodes x {ref_kq} queries")
    print(f"reference estimator variance: {ref_var:.4e}")
    print(f"target variance: {target:.4e}")
    print(f"episodes needed at {new_kq} queries/episode: {episodes}")
    print(
        f"predicted: var {report.exact_var:.4e}, 95% half-width "
        f"{100 * report.ci95_halfwidth:.2f} pts"
    )
    print(
        f"cheapest design at {args.cost_per_episode}h/episode: "
        f"{plan.episodes} episodes x {plan.queries_per_episode} queries, "
        f"{plan.total_cost:.1f}h total"
    )

    if args.table:
        cells = tradeoff_table(
            new_prior,
            kp_values=[60, 120, 240, 600],
            kq_values=[ref_kq, 5 * ref_kq, new_kq],
        )
        Path(args.table).write_text(tradeoff_csv(cells), encoding="utf-8")
        print(f"wrote trade-off table to {args.table}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
