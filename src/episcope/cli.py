"""Command-line front end.

Every subsystem is exposed as a subcommand with plain-text output by default
and JSON/CSV where scripted pipelines need it. Exit codes: 0 success, 2 for
flag/validation problems (message names the flag), 1 for runtime errors.
Flags may also be supplied through ``--config FILE`` (JSON object whose keys
mirror the flag names); explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import blend as blend_mod
from . import episodes as ep
from . import featureio, montecarlo, planner
from .seeds import MASK64
from .variance import AccuracyPrior, EvalDesign, _check_positive_int, variance_report


class CliUsageError(Exception):
    """Flag-level problem; maps to exit status 2."""


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _config_value(config: dict, dest: str):
    if dest in config:
        return config[dest]
    return config.get(dest.replace("_", "-"))


def _get(args, config: dict, dest: str, convert, required: bool = False, default=None):
    value = getattr(args, dest)
    if value is None:
        value = _config_value(config, dest)
    if value is None:
        if required:
            raise CliUsageError(f"--{dest.replace('_', '-')} is required")
        return default
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise CliUsageError(f"--{dest.replace('_', '-')}: {exc}") from exc


def _float(value) -> float:
    return float(value)


def _positive_int(value) -> int:
    number = int(str(value))
    _check_positive_int(number, "value")
    return number


def _seed_int(value) -> int:
    number = int(str(value))
    if not 0 <= number <= MASK64:
        raise ValueError(f"must be an unsigned 64-bit integer, got {number}")
    return number


def _nonnegative_float(value) -> float:
    number = float(value)
    if not 0 <= number < math.inf:
        raise ValueError(f"must be finite and non-negative, got {number}")
    return number


def _positive_float(value) -> float:
    number = float(value)
    if not 0 < number < math.inf:
        raise ValueError(f"must be finite and > 0, got {number}")
    return number


def _unit_open(value) -> float:
    number = float(value)
    if not 0.0 < number < 1.0:
        raise ValueError(f"must lie in (0, 1), got {number}")
    return number


def _unit_closed(value) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise ValueError(f"must lie in [0, 1], got {number}")
    return number


def _int_list(value) -> list[int]:
    if isinstance(value, list):
        items = value
    else:
        items = str(value).split(",")
    out = [_positive_int(item) for item in items if str(item).strip() != ""]
    if not out:
        raise ValueError("must be a non-empty comma-separated list of positive integers")
    return out


def _queries_spec(value) -> int | None:
    text = str(value).strip().lower()
    if text == "all":
        return None
    return _positive_int(text)


def _build_prior(args, config) -> AccuracyPrior:
    mean = _get(args, config, "a", _unit_closed, required=True)
    std = _get(args, config, "sigma", _nonnegative_float, required=True)
    try:
        return AccuracyPrior(mean=mean, std=std)
    except ValueError as exc:
        raise CliUsageError(f"--a/--sigma: {exc}") from exc


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliUsageError(f"--config: {exc}") from exc
    if not isinstance(config, dict):
        raise CliUsageError("--config: file must hold a JSON object")
    return config


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# --- subcommand handlers ----------------------------------------------------


def _cmd_variance(args, config) -> int:
    prior = _build_prior(args, config)
    kp = _get(args, config, "kp", _positive_int, required=True)
    kq = _get(args, config, "kq", _positive_int, required=True)
    report = variance_report(prior, EvalDesign(episodes=kp, queries_per_episode=kq))
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"exact_var {_fmt(report.exact_var)}")
        print(f"approx_var {_fmt(report.approx_var)}")
        print(f"asymptote_var {_fmt(report.asymptote_var)}")
        print(
            f"ci95_halfwidth {_fmt(report.ci95_halfwidth)}"
            f" ({100.0 * report.ci95_halfwidth:.2f} pts)"
        )
    return 0


def _cmd_plan_episodes(args, config) -> int:
    prior = _build_prior(args, config)
    kq = _get(args, config, "kq", _positive_int, required=True)
    target_var = _get(args, config, "target_var", _positive_float)
    target_ci = _get(args, config, "target_ci", _unit_open)
    if (target_var is None) == (target_ci is None):
        raise CliUsageError("exactly one of --target-var or --target-ci is required")
    if target_var is not None:
        episodes = planner.min_episodes_for_variance(prior, kq, target_var)
    else:
        episodes = planner.min_episodes_for_ci(prior, kq, target_ci)
    print(episodes)
    return 0


def _cmd_plan_cost(args, config) -> int:
    prior = _build_prior(args, config)
    cost_episode = _get(args, config, "cost_episode", _nonnegative_float, required=True)
    cost_query = _get(args, config, "cost_query", _nonnegative_float, required=True)
    target_var = _get(args, config, "target_var", _positive_float, required=True)
    kq_max = _get(args, config, "kq_max", _positive_int, required=True)
    try:
        cost = planner.CostModel(cost_per_episode=cost_episode, cost_per_query=cost_query)
    except ValueError as exc:
        raise CliUsageError(f"--cost-episode/--cost-query: {exc}") from exc
    result = planner.min_cost_design(prior, cost, target_var, kq_max)
    print(json.dumps(result.to_dict()))
    return 0


def _cmd_plan_table(args, config) -> int:
    prior = _build_prior(args, config)
    kp_values = _get(args, config, "kp_list", _int_list, required=True)
    kq_values = _get(args, config, "kq_list", _int_list, required=True)
    out = _get(args, config, "out", str)
    cells = planner.tradeoff_table(prior, kp_values, kq_values)
    _write_text(out, planner.tradeoff_csv(cells))
    return 0


def _cmd_simulate(args, config) -> int:
    prior = _build_prior(args, config)
    kp = _get(args, config, "kp", _positive_int, required=True)
    kq = _get(args, config, "kq", _positive_int, required=True)
    reps = _get(args, config, "reps", _positive_int, required=True)
    seed = _get(args, config, "seed", _seed_int, required=True)
    try:
        sim_config = montecarlo.SimConfig(
            prior=prior,
            design=EvalDesign(episodes=kp, queries_per_episode=kq),
            replications=reps,
            master_seed=seed,
        )
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    report = montecarlo.simulate(sim_config)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"empirical_mean {_fmt(report.empirical_mean)}")
        print(f"empirical_var {_fmt(report.empirical_var)}")
        print(f"theoretical_mean {_fmt(report.theoretical_mean)}")
        print(f"theoretical_var {_fmt(report.theoretical_var)}")
        print(f"rel_var_error {_fmt(report.rel_var_error)}")
        print(f"replications {report.replications}")
    return 0


def _cmd_episodes_sample(args, config) -> int:
    index_path = _get(args, config, "index", str, required=True)
    ways = _get(args, config, "ways", _positive_int, required=True)
    shots = _get(args, config, "shots", _positive_int, required=True)
    queries = _get(args, config, "queries", _queries_spec, required=True)
    count = _get(args, config, "count", _positive_int, required=True)
    seed = _get(args, config, "seed", _seed_int, required=True)
    out = _get(args, config, "out", str, required=True)

    index = ep.DatasetIndex.load(index_path)
    episodes = ep.sample_episodes(index, ways, shots, queries, count, seed)
    if out == "-":
        ep.write_episodes(sys.stdout, episodes)
    else:
        ep.write_episodes(out, episodes)
    return 0


def _cmd_episodes_aggregate(args, config) -> int:
    results_path = _get(args, config, "results", str, required=True)
    results = ep.read_results_csv(results_path)
    report = ep.aggregate(results)
    # Fit the prior before printing, so a failed fit leaves stdout empty.
    prior = ep.prior_from_results(results) if args.prior else None
    print(f"episodes {report.episodes}")
    print(f"accuracy {report.formatted()}")
    print(f"mean_acc {_fmt(report.mean_acc)}")
    print(f"std_acc {_fmt(report.std_acc)}")
    print(f"ci95_halfwidth {_fmt(report.ci95_halfwidth)}")
    if prior is not None:
        print(f"prior_mean {_fmt(prior.mean)}")
        print(f"prior_std {_fmt(prior.std)}")
    return 0


def _cmd_fid(args, config) -> int:
    path_a = _get(args, config, "a", str, required=True)
    path_b = _get(args, config, "b", str, required=True)
    from .fid import fid as fid_fn

    features_a, features_b = featureio.load_features(path_a), featureio.load_features(path_b)
    value = fid_fn(features_a, features_b)
    if args.json:
        n_a, n_b = features_a.shape[0], features_b.shape[0]
        print(json.dumps({"fid": value, "dim": features_a.shape[1], "n_a": n_a, "n_b": n_b}))
    else:
        print(_fmt(value))
    return 0


def _cmd_blend(args, config) -> int:
    latents_path = _get(args, config, "latents", str, required=True)
    alpha = _get(args, config, "alpha", _unit_closed, required=True)
    seed = _get(args, config, "seed", _seed_int, required=True)
    count = _get(args, config, "count", _positive_int, default=1)
    out = _get(args, config, "out", str)

    latents = featureio.load_features(latents_path)
    samples = blend_mod.sample_blend_batch(list(latents), alpha, seed, count)
    lines = "".join(",".join(f"{v:.17g}" for v in vec) + "\n" for _, vec in samples)
    _write_text(out, lines)
    return 0


# --- parser -----------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file whose keys mirror the flags; flags win")


def _add_prior_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", help="mean true episode accuracy, in [0, 1]")
    parser.add_argument("--sigma", help="std of true episode accuracy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="episcope",
        description="Plan, simulate and summarize episode-based few-shot evaluations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("variance", help="variance model at a fixed design")
    _add_prior_flags(p)
    p.add_argument("--kp", help="number of episodes")
    p.add_argument("--kq", help="queries per episode (total across classes)")
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_variance)

    plan = sub.add_parser("plan", help="inverse problems over the variance model")
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)

    p = plan_sub.add_parser("episodes", help="minimum episode count for a target")
    _add_prior_flags(p)
    p.add_argument("--kq")
    p.add_argument("--target-var", dest="target_var")
    p.add_argument("--target-ci", dest="target_ci")
    _add_common(p)
    p.set_defaults(handler=_cmd_plan_episodes)

    p = plan_sub.add_parser("cost", help="minimum-cost design meeting a variance target")
    _add_prior_flags(p)
    p.add_argument("--cost-episode", dest="cost_episode")
    p.add_argument("--cost-query", dest="cost_query")
    p.add_argument("--target-var", dest="target_var")
    p.add_argument("--kq-max", dest="kq_max")
    _add_common(p)
    p.set_defaults(handler=_cmd_plan_cost)

    p = plan_sub.add_parser("table", help="episode/query trade-off grid as CSV")
    _add_prior_flags(p)
    p.add_argument("--kp-list", dest="kp_list")
    p.add_argument("--kq-list", dest="kq_list")
    p.add_argument("--out", help="output path, or - for stdout")
    _add_common(p)
    p.set_defaults(handler=_cmd_plan_table)

    p = sub.add_parser("simulate", help="Monte Carlo check of the variance model")
    _add_prior_flags(p)
    p.add_argument("--kp")
    p.add_argument("--kq")
    p.add_argument("--reps")
    p.add_argument("--seed")
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    episodes = sub.add_parser("episodes", help="episode sampling and aggregation")
    episodes_sub = episodes.add_subparsers(dest="episodes_command", required=True)

    p = episodes_sub.add_parser("sample", help="draw reproducible episodes to JSONL")
    p.add_argument("--index", help="dataset index JSON (class -> example IDs)")
    p.add_argument("--ways")
    p.add_argument("--shots")
    p.add_argument("--queries", help="queries per class, or 'all' for the full remainder")
    p.add_argument("--count")
    p.add_argument("--seed")
    p.add_argument("--out", help="output path, or - for stdout")
    _add_common(p)
    p.set_defaults(handler=_cmd_episodes_sample)

    p = episodes_sub.add_parser("aggregate", help="summarize per-episode results")
    p.add_argument("--results", help="CSV with header episode_id,correct,total")
    p.add_argument("--prior", action="store_true", help="also report the fitted accuracy prior")
    _add_common(p)
    p.set_defaults(handler=_cmd_episodes_aggregate)

    p = sub.add_parser("fid", help="Frechet distance between two feature files")
    p.add_argument("--a", help="feature file (CSV or FSFE)")
    p.add_argument("--b", help="feature file (CSV or FSFE)")
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_fid)

    p = sub.add_parser("blend", help="norm-corrected latent/noise blends")
    p.add_argument("--latents", help="latent vectors, one per row (CSV or FSFE)")
    p.add_argument("--alpha")
    p.add_argument("--seed")
    p.add_argument("--count")
    p.add_argument("--out", help="output path, or - for stdout")
    _add_common(p)
    p.set_defaults(handler=_cmd_blend)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        return args.handler(args, config)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
