"""Command-line front end.

Every subsystem is exposed as a subcommand with plain-text output by default
and JSON/CSV where scripted pipelines need it. Exit codes: 0 success, 2 for
flag/validation problems (message names the flag), 1 for runtime errors.
Flags may also be supplied through ``--config FILE``, a JSON object whose keys
are the subcommand's flag names, spelled with ``_`` or ``-``. Each entry is read
as if given as ``--flag=value`` ahead of the command line, so it passes the same
type, range and required checks, and an explicit flag wins. Unknown or repeated
keys and flag prefixes exit 2; on/off flags take ``true``/``false``; lists may
be JSON arrays or comma-separated strings; ``null`` means absent.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import episodes as ep
from . import planner
from .seeds import check_seed
from .variance import AccuracyPrior, EvalDesign, _ascii_number, _check_positive_int, variance_report


class CliUsageError(Exception):
    """Flag-level problem; maps to exit status 2."""


# Prefixes of argparse's messages for required flags, and for required groups.
_MISSING = ("the following arguments are required: ", "one of the arguments ")


class _UsageParser(argparse.ArgumentParser):
    """Subcommand parser: flags match only in full, and errors return exit 2.

    argparse checks required flags before it hands back unrecognised tokens,
    so a missing flag is collected in the namespace's ``missing_flags``
    instead of raised, and ``_parse_args`` can name both in one message.
    ``_missing`` is emptied at the start of every parse, so a parser shared
    between calls carries nothing from one parse to the next.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)
        self._missing: list[str] = []

    def parse_known_args(self, args=None, namespace=None):
        self._missing = []
        namespace, extras = super().parse_known_args(args, namespace)
        namespace.missing_flags = [*getattr(namespace, "missing_flags", []), *self._missing]
        return namespace, extras

    def error(self, message: str):
        if not message.startswith(_MISSING):
            raise CliUsageError(message)
        self._missing.append(message)  # the parse goes on past the required checks


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _flag_type(convert):
    """Make argparse report why a value was rejected, not only the value."""

    def checked(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return checked


@_flag_type
def _positive_int(text: str) -> int:
    number = _ascii_number(text, int)
    _check_positive_int(number, "value")
    try:
        float(number)  # the variance model and the planner compute in floats
    except OverflowError:
        raise ValueError(
            f"too large for a float (max ~1.8e308), got a {len(str(number))}-digit integer"
        ) from None
    return number


@_flag_type
def _seed_int(text: str) -> int:
    return check_seed(_ascii_number(text, int), "value")


def _ranged(kind: type[int] | type[float], test, where: str):
    @_flag_type
    def convert(text: str):
        number = _ascii_number(text, kind)
        if not test(number):
            raise ValueError(f"must {where}, got {number}")
        return number

    return convert


_nonnegative_float = _ranged(float, lambda x: 0 <= x < math.inf, "be finite and non-negative")
_positive_float = _ranged(float, lambda x: 0 < x < math.inf, "be finite and > 0")
_unit_open = _ranged(float, lambda x: 0.0 < x < 1.0, "lie in (0, 1)")
_unit_closed = _ranged(float, lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]")

# The longest array of 8-byte items numpy can size. A longer count could only
# fail inside numpy, with a message that names no flag; below it, a count whose
# memory cannot be had still fails at run time.
_MAX_ITEMS = (2**63 - 1) // 8


def _array_length(convert):
    """``convert``, refusing a count above ``_MAX_ITEMS``."""

    def capped(text: str) -> int:
        number = convert(text)
        if number > _MAX_ITEMS:
            raise argparse.ArgumentTypeError(
                f"must be <= {_MAX_ITEMS} (the longest array numpy can size),"
                f" got a {len(str(number))}-digit integer"
            )
        return number

    return capped


_replications = _array_length(
    _ranged(int, lambda n: n >= 2, "be >= 2 (sample variance needs two points)")
)


@_flag_type
def _int_list(text: str) -> list[int]:
    try:
        return [_positive_int(item) for item in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(
            f"must be a comma-separated list of positive integers, got {text!r} ({exc})"
        ) from exc


def _queries_spec(text: str) -> int | None:
    return None if text.strip().lower() == "all" else _positive_int(text)


def _build_prior(args) -> AccuracyPrior:
    try:
        return AccuracyPrior(mean=args.a, std=args.sigma)
    except ValueError as exc:
        raise CliUsageError(f"--a/--sigma: {exc}") from exc


def _print_json(fields: dict) -> None:
    """The one JSON writer: RFC 8259 has no NaN or Infinity, so those fail, at exit 1."""
    print(json.dumps(fields, allow_nan=False))


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# --- subcommand handlers ----------------------------------------------------
# montecarlo, fid, featureio and blend are imported inside the handlers that
# use them, so the other commands start without loading them.


def _cmd_variance(args) -> int:
    prior = _build_prior(args)
    report = variance_report(prior, EvalDesign(episodes=args.kp, queries_per_episode=args.kq))
    if args.json:
        _print_json(vars(report))
    else:
        print(f"exact_var {_fmt(report.exact_var)}")
        print(f"approx_var {_fmt(report.approx_var)}")
        print(f"asymptote_var {_fmt(report.asymptote_var)}")
        print(
            f"ci95_halfwidth {_fmt(report.ci95_halfwidth)}"
            f" ({100.0 * report.ci95_halfwidth:.2f} pts)"
        )
    return 0


def _cmd_plan_episodes(args) -> int:
    prior = _build_prior(args)
    if args.target_var is not None:
        episodes = planner.min_episodes_for_variance(prior, args.kq, args.target_var)
    else:
        episodes = planner.min_episodes_for_ci(prior, args.kq, args.target_ci)
    print(episodes)
    return 0


def _cmd_plan_cost(args) -> int:
    prior = _build_prior(args)
    try:
        cost = planner.CostModel(
            cost_per_episode=args.cost_episode, cost_per_query=args.cost_query
        )
    except ValueError as exc:
        raise CliUsageError(f"--cost-episode/--cost-query: {exc}") from exc
    result = planner.min_cost_design(prior, cost, args.target_var, args.kq_max)
    _print_json(vars(result))
    return 0


def _cmd_plan_table(args) -> int:
    prior = _build_prior(args)
    cells = planner.tradeoff_table(prior, args.kp_list, args.kq_list)
    _write_text(args.out, planner.tradeoff_csv(cells))
    return 0


def _cmd_simulate(args) -> int:
    from . import montecarlo

    prior = _build_prior(args)
    try:
        sim_config = montecarlo.SimConfig(
            prior=prior,
            design=EvalDesign(episodes=args.kp, queries_per_episode=args.kq),
            replications=args.reps,
            master_seed=args.seed,
        )
    except ValueError as exc:  # the other flags have passed their checks, so only the prior is left
        raise CliUsageError(f"--a/--sigma: {exc}") from exc
    report = montecarlo.simulate(sim_config)
    if args.json:
        # var_z is infinite when the variances differ at zero SE; JSON writes that as null.
        var_z = report.var_z if math.isfinite(report.var_z) else None
        _print_json(vars(report) | {"var_z": var_z})
    else:
        for key, value in vars(report).items():
            print(f"{key} {_fmt(value)}")
    return 0


def _cmd_episodes_sample(args) -> int:
    index = ep.DatasetIndex.load(args.index)
    episodes = ep.sample_episodes(
        index, args.ways, args.shots, args.queries, args.count, args.seed
    )
    ep.write_episodes(sys.stdout if args.out == "-" else args.out, episodes)
    return 0


def _cmd_episodes_aggregate(args) -> int:
    results = ep.read_results_csv(args.results)
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


def _cmd_fid(args) -> int:
    from . import featureio, fid

    features_a, features_b = featureio.load_features(args.a), featureio.load_features(args.b)
    value = fid.fid(features_a, features_b)
    if args.json:
        n_a, n_b = features_a.shape[0], features_b.shape[0]
        _print_json({"fid": value, "dim": features_a.shape[1], "n_a": n_a, "n_b": n_b})
    else:
        print(_fmt(value))
    return 0


def _cmd_blend(args) -> int:
    from . import blend, featureio

    latents = featureio.load_features(args.latents)
    samples = blend.sample_blend_batch(list(latents), args.alpha, args.seed, args.count)
    out = sys.stdout if args.out in (None, "-") else args.out
    featureio.save_features_csv(out, [vec for _, vec in samples])
    return 0


# --- parser -----------------------------------------------------------------


def _add_prior_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--a", type=_unit_closed, required=True, help="mean true episode accuracy, in [0, 1]"
    )
    p.add_argument(
        "--sigma", type=_nonnegative_float, required=True, help="std of true episode accuracy"
    )


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser tree for every subcommand; ``main`` builds one per process."""
    return _build_tree()[()]


def _build_tree() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """Every parser of the tree, keyed by the words that name it; the root is ``()``."""
    root = argparse.ArgumentParser(
        prog="episcope",
        description="Plan, simulate and summarize episode-based few-shot evaluations.",
        allow_abbrev=False,
    )
    parsers: dict[tuple[str, ...], argparse.ArgumentParser] = {(): root}
    subparsers = {(): root.add_subparsers(required=True, parser_class=_UsageParser)}
    leaves = []

    def command(path: str, help: str, handler=None) -> _UsageParser:
        """The parser of ``path``'s words: a leaf that runs ``handler``, or a group."""
        words = tuple(path.split())
        parsers[words] = p = subparsers[words[:-1]].add_parser(words[-1], help=help)
        if handler is None:
            subparsers[words] = p.add_subparsers(required=True)
        else:
            p.set_defaults(handler=handler)
            leaves.append(p)
        return p

    p = command("variance", "variance model at a fixed design", _cmd_variance)
    _add_prior_flags(p)
    p.add_argument("--kp", type=_positive_int, required=True, help="number of episodes")
    p.add_argument(
        "--kq", type=_positive_int, required=True,
        help="queries per episode (total across classes)",
    )
    p.add_argument("--json", action="store_true")

    command("plan", "inverse problems over the variance model")

    p = command("plan episodes", "minimum episode count for a target", _cmd_plan_episodes)
    _add_prior_flags(p)
    p.add_argument("--kq", type=_positive_int, required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--target-var", type=_positive_float)
    target.add_argument("--target-ci", type=_unit_open)

    p = command("plan cost", "minimum-cost design meeting a variance target", _cmd_plan_cost)
    _add_prior_flags(p)
    p.add_argument("--cost-episode", type=_nonnegative_float, required=True)
    p.add_argument("--cost-query", type=_nonnegative_float, required=True)
    p.add_argument("--target-var", type=_positive_float, required=True)
    p.add_argument("--kq-max", type=_positive_int, required=True)

    p = command("plan table", "episode/query trade-off grid as CSV", _cmd_plan_table)
    _add_prior_flags(p)
    p.add_argument("--kp-list", type=_int_list, required=True)
    p.add_argument("--kq-list", type=_int_list, required=True)
    p.add_argument("--out", help="output path, or - for stdout")

    p = command("simulate", "Monte Carlo check of the variance model", _cmd_simulate)
    _add_prior_flags(p)
    p.add_argument("--kp", type=_positive_int, required=True)
    p.add_argument("--kq", type=_positive_int, required=True)
    p.add_argument("--reps", type=_replications, required=True)
    p.add_argument("--seed", type=_seed_int, required=True)
    p.add_argument("--json", action="store_true")

    command("episodes", "episode sampling and aggregation")

    p = command("episodes sample", "draw reproducible episodes to JSONL", _cmd_episodes_sample)
    p.add_argument("--index", required=True, help="dataset index JSON (class -> example IDs)")
    p.add_argument("--ways", type=_positive_int, required=True)
    p.add_argument("--shots", type=_positive_int, required=True)
    p.add_argument(
        "--queries", type=_queries_spec, required=True,
        help="queries per class, or 'all' for the full remainder",
    )
    p.add_argument("--count", type=_array_length(_positive_int), required=True)
    p.add_argument("--seed", type=_seed_int, required=True)
    p.add_argument("--out", required=True, help="output path, or - for stdout")

    p = command("episodes aggregate", "summarize per-episode results", _cmd_episodes_aggregate)
    p.add_argument("--results", required=True, help="CSV with header episode_id,correct,total")
    p.add_argument("--prior", action="store_true", help="also report the fitted accuracy prior")

    p = command("fid", "Frechet distance between two feature files", _cmd_fid)
    p.add_argument("--a", required=True, help="feature file (CSV or FSFE)")
    p.add_argument("--b", required=True, help="feature file (CSV or FSFE)")
    p.add_argument("--json", action="store_true")

    p = command("blend", "norm-corrected latent/noise blends", _cmd_blend)
    p.add_argument("--latents", required=True, help="latent vectors, one per row (CSV or FSFE)")
    p.add_argument("--alpha", type=_unit_closed, required=True)
    p.add_argument("--seed", type=_seed_int, required=True)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--out", help="output path, or - for stdout")

    for p in leaves:  # added last, so every help text lists it last
        p.add_argument("--config", help="JSON file whose keys mirror the flags; flags win")
    return parsers


# Building the tree takes several times as long as a small command's own work,
# so ``main`` builds it on its first call and reuses it; importing builds nothing.
_shared_parser = functools.cache(_build_tree)


@functools.cache
def _config_parser() -> _UsageParser:
    """Reads only ``--config``, ahead of the full parse."""
    pre = _UsageParser(add_help=False)
    pre.add_argument("--config")
    return pre


def _config_tokens(path: str) -> tuple[dict[str, str], list[str]]:
    """Map the ``--flag=value`` tokens a config file stands for to their keys.

    Keys set to ``false`` add no token; they are returned to be checked as on/off flags.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh, object_pairs_hook=ep._unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliUsageError(f"--config: {exc}") from exc
    if not isinstance(config, dict):
        raise CliUsageError("--config: file must hold a JSON object")
    if len({key.replace("_", "-") for key in config}) < len(config):
        raise CliUsageError("--config: a key is given both with '_' and with '-'")
    tokens: dict[str, str] = {}
    switched_off = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if key in ("config", "help") or not key.replace("-", "_").isidentifier():
            raise CliUsageError(f"--config: unknown key {key!r}")
        if isinstance(value, dict):
            raise CliUsageError(f"--config: {key!r} must not be a JSON object")
        if value is True:
            tokens[flag] = key
        elif value is False:
            switched_off.append(key)
        elif isinstance(value, list):
            tokens[f"{flag}={','.join(str(item) for item in value)}"] = key
        elif value is not None:
            tokens[f"{flag}={value}"] = key
    return tokens, switched_off


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the ``--config`` entries spliced in ahead of its flags.

    Config values pass the same checks as flags; argparse keeps the last of a
    repeated flag, so an explicit flag wins. One rule picks the parser: the
    deepest parser that the words ahead of the first ``-`` token name parses
    the rest. ``plan cost --a 1`` goes to ``plan cost``'s parser, ``plan -h``
    and ``plan bogus`` to ``plan``'s, and ``frobnicate`` or an argv with no
    words to the root, so each parser prints the usage texts and exits it would
    in the full tree. The tree is shared by every call in the process, and
    nothing carries over from one parse to the next: each parse gets a new
    namespace, and the one per-parse state, ``_UsageParser._missing``, is reset
    whenever a parse enters a parser. Flags match only in full, so the
    ``--config`` pre-parse can only find a path in a token that is ``--config``
    or starts with ``--config=``; without one it is skipped.
    """
    config_path = None
    if any(token == "--config" or token.startswith("--config=") for token in argv):
        config_path = _config_parser().parse_known_args(argv)[0].config
    tokens, switched_off = _config_tokens(config_path) if config_path else ({}, [])
    at = next((i for i, token in enumerate(argv) if token.startswith("-")), len(argv))
    parsers = _shared_parser()
    words = tuple(argv[:at])
    while words not in parsers:
        words = words[:-1]
    args, extra = parsers[words].parse_known_args(argv[len(words):at] + list(tokens) + argv[at:])
    named = [f"--config key {tokens[t]!r}" if t in tokens else t for t in extra]
    problems = [f"unrecognized arguments: {' '.join(named)}"] if named else []
    if problems or args.missing_flags:
        raise CliUsageError("; ".join(problems + args.missing_flags))
    for key in switched_off:
        if not isinstance(getattr(args, key.replace("-", "_"), None), bool):
            raise CliUsageError(f"--config: {key!r} is not an on/off flag of this command")
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status; see the module docstring.

    A bad or missing top-level subcommand raises argparse's ``SystemExit(2)``;
    one under ``plan`` or ``episodes`` returns 2 like any usage error. The parser
    tree is built on the first call and reused by later ones in the same
    process; the deepest parser that argv's leading words name parses the rest
    (see ``_parse_args``). ``main`` is not meant for concurrent calls from
    several threads.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        return args.handler(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
