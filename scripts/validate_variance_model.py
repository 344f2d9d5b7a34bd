#!/usr/bin/env python3
"""Empirical check of the estimator-variance model across a query-count sweep.

Simulates the hierarchical Beta-Bernoulli evaluation at several Kq values,
compares against the closed form and the large-Kq asymptote, and writes a CSV
(kq, theory, simulated, rel_error, asymptote). Deterministic per seed.

Usage:
    python scripts/validate_variance_model.py [--reps 50000] [--out sweep.csv]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from episcope.cli import (
    _int_list,
    _nonnegative_float,
    _positive_int,
    _replications,
    _seed_int,
    _unit_closed,
)
from episcope.montecarlo import sweep
from episcope.variance import AccuracyPrior, variance_asymptote


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=_unit_closed, default=0.87)
    parser.add_argument("--sigma", type=_nonnegative_float, default=0.05)
    parser.add_argument("--kp", type=_positive_int, default=120)
    parser.add_argument("--kq", type=_int_list, default="1,5,15,75,595,2975")
    parser.add_argument("--reps", type=_replications, default=50_000)
    parser.add_argument("--seed", type=_seed_int, default=2024)
    parser.add_argument("--out", type=str, default="-")
    args = parser.parse_args(argv)

    try:
        prior = AccuracyPrior(args.a, args.sigma)
        reports = sweep(prior, args.kq, args.kp, args.reps, args.seed)
    except ValueError as exc:  # the other flags passed their checks, so only the prior is left
        parser.error(f"--a/--sigma: {exc}")
    limit = variance_asymptote(prior, args.kp)

    lines = ["kq,theoretical_var,empirical_var,rel_var_error,asymptote_var"]
    for kq, report in zip(args.kq, reports):
        lines.append(
            f"{kq},{report.theoretical_var:.10g},{report.empirical_var:.10g},"
            f"{report.rel_var_error:.10g},{limit:.10g}"
        )
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")

    worst = max(r.rel_var_error for r in reports)
    print(
        f"# {len(args.kq)} sweep points, {args.reps} replications each, "
        f"worst relative error {worst:.4f}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
