"""Command-line surface: flags, outputs, exit codes, config files."""

import hashlib
import json
import math
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from episcope import cli
from episcope import episodes as episodes_mod
from episcope import montecarlo
from episcope.cli import CliUsageError, build_parser, main
from episcope.episodes import EpisodeResult, read_episodes, write_results_csv
from episcope.featureio import save_features_csv, save_features_fsfe


SIMULATE_BASE = ["simulate", "--a", "0.5", "--sigma", "0", "--kp", "2", "--kq", "2"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def index_file(tmp_path):
    path = tmp_path / "index.json"
    mapping = {f"c{i}": [f"c{i}_e{j}" for j in range(40)] for i in range(8)}
    path.write_text(json.dumps(mapping))
    return str(path)


class TestVariance:
    def test_single_trial(self, capsys):
        code, out, _ = run(
            capsys, "variance", "--a", "0.5", "--sigma", "0", "--kp", "1", "--kq", "1"
        )
        assert code == 0
        assert "exact_var 0.25" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "variance", "--a", "0.87", "--sigma", "0.05", "--kp", "600", "--kq", "75",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["exact_var", "approx_var", "asymptote_var", "ci95_halfwidth"]
        assert payload["exact_var"] == pytest.approx(6.624444444444444e-06, rel=1e-9)

    def test_json_bytes_pinned(self, capsys):
        code, out, _ = run(
            capsys,
            "variance", "--a", "0.87", "--sigma", "0.05", "--kp", "600", "--kq", "75",
            "--json",
        )
        assert code == 0
        assert out == (
            '{"exact_var": 6.624444444444447e-06, "approx_var": 6.680000000000002e-06, '
            '"asymptote_var": 4.166666666666668e-06, "ci95_halfwidth": 0.005044647240172278}\n'
        )

    def test_missing_flag_names_it(self, capsys):
        code, _, err = run(capsys, "variance", "--a", "0.5", "--sigma", "0", "--kp", "1")
        assert code == 2
        assert "--kq" in err

    def test_invalid_prior_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "variance", "--a", "0.9", "--sigma", "0.5", "--kp", "1", "--kq", "1"
        )
        assert code == 2
        assert "--a/--sigma" in err

    def test_prior_bound_message_tells_the_numbers_apart(self, capsys):
        code, out, err = run(
            capsys, "variance", "--a", "0.5", "--sigma", "0.5000001", "--kp", "1", "--kq", "1"
        )
        assert (code, out) == (2, "")
        assert "prior std^2 (0.25000010000000994) exceeds mean*(1-mean) (0.25)" in err

    def test_non_numeric_flag(self, capsys):
        code, _, err = run(
            capsys, "variance", "--a", "zero", "--sigma", "0", "--kp", "1", "--kq", "1"
        )
        assert code == 2
        assert "--a" in err

    @pytest.mark.parametrize(
        "flag, value, argv, reason",
        [
            ("--a", "0.8_7", ["variance", "--sigma", "0", "--kp", "1", "--kq", "1"],
             "ASCII digits"),
            ("--a", "\u0660.\u0668\u0667", ["variance", "--sigma", "0", "--kp", "1", "--kq", "1"],
             "ASCII digits"),
            ("--kp", "6_00", ["variance", "--a", "0.5", "--sigma", "0", "--kq", "1"],
             "ASCII digits"),
            ("--kp", "\uff16\uff10\uff10", ["variance", "--a", "0.5", "--sigma", "0", "--kq", "1"],
             "ASCII digits"),
            ("--reps", "1_000", SIMULATE_BASE + ["--seed", "1"], "ASCII digits"),
            ("--seed", "\u0661", SIMULATE_BASE + ["--reps", "100"], "ASCII digits"),
            # int() reads 401 digits, but no float holds them (int() refuses 4,301 and more).
            ("--kp", "9" * 401, ["variance", "--a", "0.5", "--sigma", "0", "--kq", "1"],
             "too large for a float"),
            ("--kq", "9" * 401, ["variance", "--a", "0.5", "--sigma", "0", "--kp", "1"],
             "too large for a float"),
            ("--kq", "9" * 401,
             ["plan", "episodes", "--a", "0.5", "--sigma", "0.1", "--target-var", "1e-3"],
             "too large for a float"),
            ("--kq-max", "9" * 401,
             ["plan", "cost", "--a", "0.5", "--sigma", "0.1", "--cost-episode", "1",
              "--cost-query", "1", "--target-var", "1e-3"],
             "too large for a float"),
            ("--kp-list", "1," + "9" * 401,
             ["plan", "table", "--a", "0.5", "--sigma", "0.1", "--kq-list", "3"],
             "too large for a float"),
        ],
        ids=["a_underscore", "a_arabic_indic", "kp_underscore", "kp_fullwidth", "reps", "seed",
             "kp_401_digits", "kq_401_digits", "plan_kq_401_digits", "kq_max_401_digits",
             "kp_list_401_digits"],
    )
    def test_underscore_or_non_ascii_number_names_the_flag(self, capsys, flag, value, argv, reason):
        """int() and float() accept these, or a float cannot hold them; every numeric flag
        refuses them."""
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (2, "")
        assert f"argument {flag}: " in err and reason in err


# `plan cost` stdout byte for byte, as printed when the scan's first chunk held
# 8,192 Kq values: the benchmark's plan at both of its Kq ranges, the README's
# free-query example, then c_e / c_q of 1e3 and 1e5 at kq_max 1, 2975 and 1e6
# for the README prior, the published prior and two priors whose optima lie
# past 8,192 queries. Columns: a, sigma, cost-episode, cost-query, target-var,
# kq-max.
BENCH_PLAN_STDOUT = (
    '{"episodes": 631, "queries_per_episode": 66, "predicted_var": 6.617682370455747e-06, '
    '"predicted_ci95": 0.005042071855333162, "total_cost": 104746.0}'
)
PLAN_COST_STDOUT = [
    *(
        pytest.param(("0.87", "0.05", "100.0", "1.0", "6.62e-06", kq_max), BENCH_PLAN_STDOUT, id=kq_max)
        for kq_max in ("2975", "1000000")
    ),
    *(pytest.param(flags, stdout, id="-".join(flags)) for flags, stdout in [
        (('0.93', '0.028', '5.59', '0', '7e-6', '2975'),
         '{"episodes": 116, "queries_per_episode": 2975, "predicted_var": 6.944989858012171e-06, "predicted_ci95": 0.00516525633812491, "total_cost": 648.4399999999999}'),
        (('0.87', '0.05', '1e3', '1', '6.62e-6', '1'),
         '{"episodes": 17085, "queries_per_episode": 1, "predicted_var": 6.619841966637401e-06, "predicted_ci95": 0.0050428944961236535, "total_cost": 17102085.0}'),
        (('0.87', '0.05', '1e3', '1', '6.62e-6', '2975'),
         '{"episodes": 458, "queries_per_episode": 208, "predicted_var": 6.619499496137051e-06, "predicted_ci95": 0.00504276405003844, "total_cost": 553264.0}'),
        (('0.87', '0.05', '1e3', '1', '6.62e-6', '1000000'),
         '{"episodes": 458, "queries_per_episode": 208, "predicted_var": 6.619499496137051e-06, "predicted_ci95": 0.00504276405003844, "total_cost": 553264.0}'),
        (('0.87', '0.05', '1e5', '1', '6.62e-6', '1'),
         '{"episodes": 17085, "queries_per_episode": 1, "predicted_var": 6.619841966637401e-06, "predicted_ci95": 0.0050428944961236535, "total_cost": 1708517085.0}'),
        (('0.87', '0.05', '1e5', '1', '6.62e-6', '2975'),
         '{"episodes": 386, "queries_per_episode": 2000, "predicted_var": 6.619948186528499e-06, "predicted_ci95": 0.005042934954306657, "total_cost": 39372000.0}'),
        (('0.87', '0.05', '1e5', '1', '6.62e-6', '1000000'),
         '{"episodes": 386, "queries_per_episode": 2000, "predicted_var": 6.619948186528499e-06, "predicted_ci95": 0.005042934954306657, "total_cost": 39372000.0}'),
        (('0.93', '0.028', '1e3', '1', '7e-6', '1'),
         '{"episodes": 9300, "queries_per_episode": 1, "predicted_var": 6.999999999999996e-06, "predicted_ci95": 0.005185672569686596, "total_cost": 9309300.0}'),
        (('0.93', '0.028', '1e3', '1', '7e-6', '2975'),
         '{"episodes": 145, "queries_per_episode": 279, "predicted_var": 6.9967123964899255e-06, "predicted_ci95": 0.005184454681290569, "total_cost": 185455.0}'),
        (('0.93', '0.028', '1e3', '1', '7e-6', '1000000'),
         '{"episodes": 145, "queries_per_episode": 279, "predicted_var": 6.9967123964899255e-06, "predicted_ci95": 0.005184454681290569, "total_cost": 185455.0}'),
        (('0.93', '0.028', '1e5', '1', '7e-6', '1'),
         '{"episodes": 9300, "queries_per_episode": 1, "predicted_var": 6.999999999999996e-06, "predicted_ci95": 0.005185672569686596, "total_cost": 930009300.0}'),
        (('0.93', '0.028', '1e5', '1', '7e-6', '2975'),
         '{"episodes": 116, "queries_per_episode": 2298, "predicted_var": 6.9998949611356205e-06, "predicted_ci95": 0.005185633662600801, "total_cost": 11866568.0}'),
        (('0.93', '0.028', '1e5', '1', '7e-6', '1000000'),
         '{"episodes": 115, "queries_per_episode": 3063, "predicted_var": 6.999980127468099e-06, "predicted_ci95": 0.0051856652087925465, "total_cost": 11852245.0}'),
        (('0.99', '5e-4', '1e3', '1', '1e-7', '1'),
         '{"episodes": 99001, "queries_per_episode": 1, "predicted_var": 9.999898990919293e-08, "predicted_ci95": 0.0006198032910812555, "total_cost": 99100001.0}'),
        (('0.99', '5e-4', '1e3', '1', '1e-7', '2975'),
         '{"episodes": 36, "queries_per_episode": 2956, "predicted_var": 9.997321831303572e-08, "predicted_ci95": 0.0006197234185274572, "total_cost": 142416.0}'),
        (('0.99', '5e-4', '1e3', '1', '1e-7', '1000000'),
         '{"episodes": 18, "queries_per_episode": 6387, "predicted_var": 9.999913017761781e-08, "predicted_ci95": 0.0006198037257796508, "total_cost": 132966.0}'),
        (('0.99', '5e-4', '1e5', '1', '1e-7', '1'),
         '{"episodes": 99001, "queries_per_episode": 1, "predicted_var": 9.999898990919293e-08, "predicted_ci95": 0.0006198032910812555, "total_cost": 9900199001.0}'),
        (('0.99', '5e-4', '1e5', '1', '1e-7', '2975'),
         '{"episodes": 36, "queries_per_episode": 2956, "predicted_var": 9.997321831303572e-08, "predicted_ci95": 0.0006197234185274572, "total_cost": 3706416.0}'),
        (('0.99', '5e-4', '1e5', '1', '1e-7', '1000000'),
         '{"episodes": 4, "queries_per_episode": 65999, "predicted_var": 9.999962120638194e-08, "predicted_ci95": 0.0006198052474983064, "total_cost": 663996.0}'),
        (('0.99', '5e-5', '1e3', '1', '1e-9', '1'),
         '{"episodes": 9900001, "queries_per_episode": 1, "predicted_var": 9.999998989899101e-10, "predicted_ci95": 6.198063900896504e-05, "total_cost": 9909901001.0}'),
        (('0.99', '5e-5', '1e3', '1', '1e-9', '2975'),
         '{"episodes": 3331, "queries_per_episode": 2975, "predicted_var": 9.99768913869962e-10, "predicted_ci95": 6.197348029216083e-05, "total_cost": 13240725.0}'),
        (('0.99', '5e-5', '1e3', '1', '1e-9', '1000000'),
         '{"episodes": 162, "queries_per_episode": 62069, "predicted_var": 9.999992043900175e-10, "predicted_ci95": 6.198061748308653e-05, "total_cost": 10217178.0}'),
        (('0.99', '5e-5', '1e5', '1', '1e-9', '1'),
         '{"episodes": 9900001, "queries_per_episode": 1, "predicted_var": 9.999998989899101e-10, "predicted_ci95": 6.198063900896504e-05, "total_cost": 990010000001.0}'),
        (('0.99', '5e-5', '1e5', '1', '1e-9', '2975'),
         '{"episodes": 3331, "queries_per_episode": 2975, "predicted_var": 9.99768913869962e-10, "predicted_ci95": 6.197348029216083e-05, "total_cost": 343009725.0}'),
        (('0.99', '5e-5', '1e5', '1', '1e-9', '1000000'),
         '{"episodes": 18, "queries_per_episode": 638710, "predicted_var": 9.999993476434276e-10, "predicted_ci95": 6.198062192255732e-05, "total_cost": 13296780.0}'),
    ]),
]


class TestPlan:
    def test_episodes_for_target_variance(self, capsys):
        code, out, _ = run(
            capsys,
            "plan", "episodes", "--a", "0.93", "--sigma", "0.028", "--kq", "2975",
            "--target-var", "7e-6",
        )
        assert code == 0
        assert out.strip() == "116"

    def test_episodes_for_target_ci(self, capsys):
        code, out, _ = run(
            capsys,
            "plan", "episodes", "--a", "0.93", "--sigma", "0.028", "--kq", "2975",
            "--target-ci", "0.0051",
        )
        assert code == 0
        assert out.strip() == "119"

    def test_exactly_one_target_required(self, capsys):
        base = ["plan", "episodes", "--a", "0.9", "--sigma", "0.02", "--kq", "100"]
        code, _, err = run(capsys, *base)
        assert code == 2 and "target" in err
        code, _, err = run(capsys, *base, "--target-var", "1e-5", "--target-ci", "0.01")
        assert code == 2 and "target" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_target_var_is_usage_error(self, capsys, value):
        code, _, err = run(
            capsys,
            "plan", "episodes", "--a", "0.9", "--sigma", "0.02", "--kq", "100",
            "--target-var", value,
        )
        assert code == 2
        assert "--target-var" in err and "finite" in err

    def test_non_finite_cost_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "plan", "cost", "--a", "0.9", "--sigma", "0.02", "--cost-episode", "nan",
            "--cost-query", "1", "--target-var", "1e-5",
        )
        assert code == 2
        assert "--cost-episode" in err

    def test_zero_costs_are_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "plan", "cost", "--a", "0.9", "--sigma", "0.02", "--cost-episode", "0",
            "--cost-query", "0", "--target-var", "1e-5", "--kq-max", "10",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --cost-episode/--cost-query: ")

    def test_cost_json(self, capsys):
        code, out, _ = run(
            capsys,
            "plan", "cost", "--a", "0.93", "--sigma", "0.028",
            "--cost-episode", "5.59", "--cost-query", "0",
            "--target-var", "7e-6", "--kq-max", "2975",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["episodes"] == 116
        assert payload["queries_per_episode"] == 2975
        assert payload["total_cost"] == pytest.approx(648.44, abs=0.01)

    @pytest.mark.parametrize("flags, stdout", PLAN_COST_STDOUT)
    def test_cost_json_pinned(self, capsys, flags, stdout):
        """Exact bytes, whatever the Kq range scanned."""
        names = ("--a", "--sigma", "--cost-episode", "--cost-query", "--target-var", "--kq-max")
        code, out, err = run(capsys, "plan", "cost", *(t for pair in zip(names, flags) for t in pair))
        assert (code, out, err) == (0, stdout + "\n", "")

    @pytest.mark.parametrize("target", ["1e-30", "1e-310"])
    @pytest.mark.parametrize("command", ["episodes", "cost"])
    def test_unreachable_episode_count_is_runtime_error(self, capsys, command, target):
        """Targets needing 2**53+ episodes fail fast, naming the target."""
        extra = (["--kq", "75"] if command == "episodes"
                 else ["--cost-episode", "1", "--cost-query", "1", "--kq-max", "100"])
        code, out, err = run(
            capsys,
            "plan", command, "--a", "0.87", "--sigma", "0.05", *extra, "--target-var", target,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "target_var" in err and "2**53" in err

    def test_table_csv(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys,
            "plan", "table", "--a", "0.9", "--sigma", "0.02",
            "--kp-list", "100,200", "--kq-list", "10,75", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "kp,kq,exact_var,approx_var,asymptote_var,ci95"
        assert len(lines) == 5

    def test_table_stdout(self, capsys):
        code, out, _ = run(
            capsys,
            "plan", "table", "--a", "0.9", "--sigma", "0.02",
            "--kp-list", "100", "--kq-list", "10",
        )
        assert code == 0
        assert out.startswith("kp,kq,")

    @pytest.mark.parametrize("kp_list", ["100,,200", "100,", ""])
    def test_table_rejects_empty_list_items(self, capsys, kp_list):
        code, out, err = run(
            capsys,
            "plan", "table", "--a", "0.9", "--sigma", "0.02",
            "--kp-list", kp_list, "--kq-list", "10",
        )
        assert code == 2 and out == ""
        assert "--kp-list" in err and "comma-separated list of positive integers" in err


class TestSimulate:
    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--a", "0.9", "--sigma", "0.02", "--kp", "20", "--kq", "30",
            "--reps", "2000", "--seed", "7", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["replications"] == 2000
        assert payload["rel_var_error"] < 0.2

    def test_reports_variance_se_and_z(self, capsys):
        argv = [
            "simulate", "--a", "0.9", "--sigma", "0.02", "--kp", "20", "--kq", "30",
            "--reps", "2000", "--seed", "7",
        ]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["empirical_var_se"] > 0.0
        assert payload["var_z"] == pytest.approx(
            (payload["empirical_var"] - payload["theoretical_var"]) / payload["empirical_var_se"]
        )
        code, out, _ = run(capsys, *argv)
        fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert list(fields) == list(payload)
        assert float(fields["var_z"]) == pytest.approx(payload["var_z"], rel=1e-9)

    def test_byte_identical_repeat(self, capsys):
        argv = [
            "simulate", "--a", "0.9", "--sigma", "0.02", "--kp", "10", "--kq", "10",
            "--reps", "500", "--seed", "42",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "a, sigma",
        [pytest.param("0.5", "0.5", id="two_point"), pytest.param("0", "1e-6", id="mean_at_edge")],
    )
    def test_boundary_prior_rejected(self, capsys, a, sigma):
        """A prior with no interior Beta fit is blamed on the prior flags."""
        code, out, err = run(
            capsys,
            "simulate", "--a", a, "--sigma", sigma, "--kp", "10", "--kq", "10",
            "--reps", "100", "--seed", "0",
        )
        assert (code, out) == (2, "")
        assert "--a/--sigma" in err and "--reps" not in err

    @pytest.mark.parametrize(
        "sigma, code",
        [("1e-4", 0), ("3e-7", 0), ("1e-8", 0), ("1e-100", 0), ("1e-160", 2), ("1e-170", 0)],
    )
    def test_tiny_sigma_runs_or_names_the_std(self, capsys, sigma, code):
        """Finite output, or a message naming the std: never a traceback.

        Exit 2 is a std whose square is subnormal, so no Beta fit exists.
        """
        got, out, err = run(
            capsys,
            "simulate", "--a", "0.87", "--sigma", sigma, "--kp", "600", "--kq", "75",
            "--reps", "200", "--seed", "5", "--json",
        )
        assert got == code
        if code == 0:
            assert all(math.isfinite(value) for value in json.loads(out).values())
        else:
            assert out == "" and err.startswith("error: --a/--sigma: ")
            assert f"std {float(sigma):.6g} is too small" in err

    def test_sigma_squaring_to_zero_is_the_point_mass(self, capsys):
        argv = ["simulate", "--a", "0.87", "--kp", "600", "--kq", "75", "--reps", "500"]
        runs = [run(capsys, *argv, "--seed", "5", "--sigma", sigma) for sigma in ("1e-170", "0")]
        assert runs[0] == runs[1] and runs[0][0] == 0

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_names_seed(self, capsys, seed):
        code, out, err = run(
            capsys,
            "simulate", "--a", "0.5", "--sigma", "0", "--kp", "2", "--kq", "2",
            "--reps", "2", "--seed", seed,
        )
        assert code == 2 and out == ""
        assert "--seed" in err and "unsigned 64-bit integer" in err

    def test_memory_exhaustion_is_runtime_error(self, capsys, monkeypatch):
        """A count table too large to allocate ends in exit 1 and a message, no traceback.

        The allocation is faked: whether a real one fails depends on the host's overcommit.
        """
        message = "Unable to allocate 29.1 TiB for an array with shape (4000000000001,)"

        def exhausted(prior, kq):
            raise MemoryError(message)

        monkeypatch.setattr(montecarlo, "_count_pmf", exhausted)
        code, out, err = run(
            capsys,
            "simulate", "--a", "0.9", "--sigma", "0.05", "--kp", "2", "--kq", "4000000000000",
            "--reps", "2", "--seed", "1",
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_full_size_run_matches_theory(self, capsys):
        """200k replications of the 600x75 design: within 2% of closed form."""
        code, out, _ = run(
            capsys,
            "simulate", "--a", "0.87", "--sigma", "0.05", "--kp", "600", "--kq", "75",
            "--reps", "200000", "--seed", "7",
        )
        assert code == 0
        fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert float(fields["rel_var_error"]) < 0.02


class TestEpisodes:
    def test_sample_writes_jsonl(self, capsys, index_file, tmp_path):
        out_path = tmp_path / "episodes.jsonl"
        code, _, _ = run(
            capsys,
            "episodes", "sample", "--index", index_file, "--ways", "3", "--shots", "2",
            "--queries", "5", "--count", "4", "--seed", "11", "--out", str(out_path),
        )
        assert code == 0
        episodes = read_episodes(out_path)
        assert len(episodes) == 4
        assert all(len(e.per_class) == 3 for e in episodes)

    def test_sample_calls_the_module_functions(self, capsys, index_file, monkeypatch):
        """The benchmark's tracer wraps these two at module level, so cli must call them there."""
        calls = Counter()
        for name in ("sample_episodes", "write_episodes"):
            def counted(*args, _name=name, _original=getattr(episodes_mod, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(episodes_mod, name, counted)
        code, out, _ = run(
            capsys,
            "episodes", "sample", "--index", index_file, "--ways", "3", "--shots", "2",
            "--queries", "5", "--count", "4", "--seed", "11", "--out", "-",
        )
        assert (code, len(out.splitlines())) == (0, 4)
        assert calls == {"sample_episodes": 1, "write_episodes": 1}

    def test_sample_all_queries_to_stdout(self, capsys, index_file):
        code, out, _ = run(
            capsys,
            "episodes", "sample", "--index", index_file, "--ways", "2", "--shots", "3",
            "--queries", "all", "--count", "2", "--seed", "5", "--out", "-",
        )
        assert code == 0
        lines = [l for l in out.split("\n") if l]
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert len(first["per_class"][0]["query_ids"]) == 37

    def test_sample_deterministic_bytes(self, capsys, index_file):
        argv = [
            "episodes", "sample", "--index", index_file, "--ways", "3", "--shots", "2",
            "--queries", "all", "--count", "3", "--seed", "9", "--out", "-",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_sample_missing_index_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "episodes", "sample", "--index", str(tmp_path / "nope.json"), "--ways", "2",
            "--shots", "1", "--queries", "1", "--count", "1", "--seed", "0",
            "--out", "-",
        )
        assert code == 1

    @pytest.mark.parametrize(
        ("mapping", "named"),
        [
            ({"a": ["x1", "x2"], "b\ud800": ["y1", "y2"], "c": ["z1", "z2"]}, "'b\\ud800'"),
            ({"a": ["x1", "x2"], "b": ["y1", "y2"], "c": ["z1", "z2\udc00"]}, "'c'"),
        ],
        ids=["class_name", "example_id"],
    )
    def test_sample_lone_surrogate_fails_before_the_out_file_opens(
        self, capsys, tmp_path, mapping, named
    ):
        """A "\\ud800" escape in the index has no UTF-8 form: exit 1 naming its class."""
        index = tmp_path / "index.json"
        index.write_text(json.dumps(mapping), encoding="ascii")
        out_path = tmp_path / "episodes.jsonl"
        out_path.write_bytes(b'{"kept": true}\n')
        code, out, err = run(
            capsys,
            "episodes", "sample", "--index", str(index), "--ways", "3", "--shots", "1",
            "--queries", "1", "--count", "50", "--seed", "0", "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: class {named}: ") and "lone surrogate" in err
        assert out_path.read_bytes() == b'{"kept": true}\n'

    def test_aggregate_with_prior(self, capsys, tmp_path):
        results_path = tmp_path / "results.csv"
        write_results_csv(results_path, [EpisodeResult(0, 92, 100), EpisodeResult(1, 94, 100)])
        code, out, _ = run(
            capsys, "episodes", "aggregate", "--results", str(results_path), "--prior"
        )
        assert code == 0
        assert "accuracy 93.00 ± 12.71" in out
        assert "prior_mean 0.93" in out
        assert "prior_std 0.01414213562" in out

    def test_aggregate_prior_failure_prints_nothing(self, capsys, tmp_path):
        """A prior that cannot be fitted fails before any report line is printed."""
        results_path = tmp_path / "spread.csv"
        write_results_csv(results_path, [EpisodeResult(0, 0, 5), EpisodeResult(1, 5, 5)])
        code, out, err = run(
            capsys, "episodes", "aggregate", "--results", str(results_path), "--prior"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "exceeds mean*(1-mean)" in err

    def test_aggregate_single_result_fails_at_runtime(self, capsys, tmp_path):
        results_path = tmp_path / "one.csv"
        write_results_csv(results_path, [EpisodeResult(0, 9, 10)])
        code, _, err = run(capsys, "episodes", "aggregate", "--results", str(results_path))
        assert code == 1
        assert "at least 2" in err

    def test_aggregate_names_repeated_ids(self, capsys, tmp_path):
        results_path = tmp_path / "repeated.csv"
        results_path.write_text("episode_id,correct,total\n1,3,5\n1,4,5\n0,2,5\n")
        code, out, err = run(capsys, "episodes", "aggregate", "--results", str(results_path))
        assert (code, out) == (1, "")
        assert err == "error: episode IDs must be distinct; repeated: [1]\n"

    def test_aggregate_short_row_is_runtime_error(self, capsys, tmp_path):
        results_path = tmp_path / "short.csv"
        results_path.write_text("episode_id,correct,total\n0,3,5\n1,4\n")
        code, out, err = run(capsys, "episodes", "aggregate", "--results", str(results_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "short.csv: line 3" in err

    @pytest.mark.parametrize("row", ["0,1_0,75", "2,\u0663,75"])
    def test_aggregate_rejects_underscore_and_non_ascii_digits(self, capsys, tmp_path, row):
        results_path = tmp_path / "odd.csv"
        results_path.write_text(
            f"episode_id,correct,total\n1,70,75\n{row}\n", encoding="utf-8"
        )
        code, out, err = run(capsys, "episodes", "aggregate", "--results", str(results_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "odd.csv: line 3: expected 3 integer fields" in err


class TestFid:
    def test_same_file_is_zero(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "x.csv"
        save_features_csv(path, rng.normal(size=(50, 8)))
        code, out, _ = run(capsys, "fid", "--a", str(path), "--b", str(path))
        assert code == 0
        assert float(out) < 1e-8

    def test_mixed_formats(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 6)).astype(np.float32).astype(np.float64)
        csv_path = tmp_path / "x.csv"
        bin_path = tmp_path / "x.fsfe"
        save_features_csv(csv_path, x)
        save_features_fsfe(bin_path, x)
        code, out, _ = run(capsys, "fid", "--a", str(csv_path), "--b", str(bin_path))
        assert code == 0
        assert float(out) == pytest.approx(0.0, abs=1e-8)

    def test_json_output(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.fsfe"
        save_features_csv(path_a, rng.normal(size=(30, 5)))
        save_features_fsfe(path_b, rng.normal(loc=0.5, size=(20, 5)))
        code, plain, _ = run(capsys, "fid", "--a", str(path_a), "--b", str(path_b))
        assert code == 0
        code, out, _ = run(capsys, "fid", "--a", str(path_a), "--b", str(path_b), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"fid": payload["fid"], "dim": 5, "n_a": 30, "n_b": 20}
        assert isinstance(payload["fid"], float)
        assert plain == f"{payload['fid']:.10g}\n"

    def test_non_finite_file_is_named(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        save_features_csv(good, rng.normal(size=(10, 3)))
        bad.write_text("1,2,3\n4,nan,6\n7,8,9\n")
        code, out, err = run(capsys, "fid", "--a", str(good), "--b", str(bad))
        assert code == 1
        assert out == ""
        assert err == f"error: {bad}: row 2 contains non-finite values\n"


class TestBlend:
    def test_emits_requested_count(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        latents_path = tmp_path / "latents.csv"
        save_features_csv(latents_path, rng.normal(size=(3, 16)))
        code, out, _ = run(
            capsys,
            "blend", "--latents", str(latents_path), "--alpha", "0.5", "--seed", "12",
            "--count", "4",
        )
        assert code == 0
        rows = [r for r in out.strip().split("\n") if r]
        assert len(rows) == 4
        assert all(len(r.split(",")) == 16 for r in rows)

    def test_latents_with_huge_norms_blend(self, capsys, tmp_path):
        """Latent norms near 1e301 overflow a plain sum of squares; the blends stay finite."""
        latents_path = tmp_path / "latents.csv"
        save_features_csv(latents_path, np.random.default_rng(7).normal(size=(2, 64)) * 1e300)
        code, out, err = run(capsys, "blend", "--latents", str(latents_path), "--alpha", "0.5",
                             "--seed", "3", "--count", "3")
        assert (code, err) == (0, "")
        rows = np.array([[float(x) for x in row.split(",")] for row in out.split()])
        assert rows.shape == (3, 64) and np.all(np.isfinite(rows))

    def test_deterministic_bytes(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        latents_path = tmp_path / "latents.csv"
        save_features_csv(latents_path, rng.normal(size=(2, 8)))
        argv = ["blend", "--latents", str(latents_path), "--alpha", "0.3", "--seed", "77"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    @pytest.fixture
    def pinned_latents(self, tmp_path):
        path = tmp_path / "latents.csv"
        save_features_csv(path, np.random.default_rng(8).normal(size=(3, 6)))
        return ["blend", "--latents", str(path), "--alpha", "0.4", "--seed", "12", "--count", "3"]

    PINNED_SHA256 = "c5e33736e8c46cb06526dacfba817d4b7e7e9ec0bbbb8d1e4692c603e6fe441d"

    def test_stdout_bytes_pinned(self, capsys, pinned_latents):
        code, out, _ = run(capsys, *pinned_latents)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_SHA256

    def test_out_file_bytes_pinned(self, capsys, pinned_latents, tmp_path):
        out_path = tmp_path / "blends.csv"
        code, out, _ = run(capsys, *pinned_latents, "--out", str(out_path))
        assert (code, out) == (0, "")
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == self.PINNED_SHA256

    def test_alpha_validation(self, capsys, tmp_path):
        latents_path = tmp_path / "latents.csv"
        save_features_csv(latents_path, np.ones((2, 4)))
        code, _, err = run(
            capsys, "blend", "--latents", str(latents_path), "--alpha", "1.5", "--seed", "0"
        )
        assert code == 2
        assert "--alpha" in err


class TestConfigFile:
    def test_config_supplies_missing_flags(self, capsys, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"a": 0.93, "sigma": 0.028, "kq": 2975}))
        code, out, _ = run(
            capsys,
            "plan", "episodes", "--config", str(config_path), "--target-var", "7e-6",
        )
        assert code == 0
        assert out.strip() == "116"

    def test_explicit_flags_win(self, capsys, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps({"a": 0.5, "sigma": 0.0, "kp": 1, "kq": 1})
        )
        code, out, _ = run(
            capsys, "variance", "--config", str(config_path), "--kq", "4"
        )
        assert code == 0
        assert "exact_var 0.0625" in out

    def test_hyphenated_keys_accepted(self, capsys, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps({"a": 0.93, "sigma": 0.028, "kq": 2975, "target-var": 7e-6})
        )
        code, out, _ = run(capsys, "plan", "episodes", "--config", str(config_path))
        assert code == 0
        assert out.strip() == "116"

    def test_malformed_config_is_usage_error(self, capsys, tmp_path):
        config_path = tmp_path / "broken.json"
        config_path.write_text("{not json")
        code, _, err = run(
            capsys,
            "variance", "--config", str(config_path), "--a", "0.5", "--sigma", "0",
            "--kp", "1", "--kq", "1",
        )
        assert code == 2
        assert "--config" in err

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("[1]", "--config: file must hold a JSON object"),
            ('{"a": 0.5, "sigma": 0, "kp": 1, "kq": 1, "kq": 4}', "--config: repeated key 'kq'"),
        ],
        ids=["array", "repeated_key"],
    )
    def test_config_must_be_one_object_with_distinct_keys(self, capsys, tmp_path, text, message):
        config_path = tmp_path / "run.json"
        config_path.write_text(text)
        code, out, err = run(capsys, "variance", "--config", str(config_path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestParserBehavior:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


def write_config(tmp_path, mapping, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mapping))
    return str(path)


COST_FLAGS = [
    "--a", "0.87", "--sigma", "0.05", "--cost-episode", "100", "--cost-query", "1",
    "--target-var", "6.62e-6",
]


class TestNoAbbreviations:
    @pytest.mark.parametrize("argv", [
        ["plan", "cost", *COST_FLAGS, "--kq", "75"],
        ["variance", "--a", "0.5", "--sig", "0", "--kp", "1", "--kq", "1"],
        ["variance", "--a", "0.5", "--sigma", "0", "--kp", "1", "--kq", "1", "--js"],
    ])
    def test_flag_prefix_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_prefix_names_the_flag(self, capsys):
        code, _, err = run(capsys, "plan", "cost", *COST_FLAGS, "--kq-max", "2975", "--kq", "75")
        assert code == 2 and "unrecognized arguments: --kq 75" in err

    def test_config_key_is_not_a_prefix(self, capsys, tmp_path):
        """A ``kq`` key shared with ``plan episodes`` is not read as ``--kq-max``."""
        keys = {"a": 0.87, "sigma": 0.05, "cost_episode": 100, "cost_query": 1,
                "target_var": 6.62e-6, "kq": 75}
        code, out, _ = run(capsys, "plan", "cost", "--config", write_config(tmp_path, keys))
        assert code == 2 and out == ""
        keys["kq_max"] = 2975
        code, out, err = run(capsys, "plan", "cost", "--config", write_config(tmp_path, keys))
        assert code == 2 and out == ""
        assert "'kq'" in err

    def test_no_config_token_skips_the_pre_parse(self, capsys, monkeypatch):
        def fail():
            raise AssertionError("the --config pre-parser ran")

        monkeypatch.setattr(cli, "_config_parser", fail)
        code, out, err = run(capsys, "plan", "episodes", "--a", "0.93", "--sigma", "0.028",
                             "--kq", "75", "--target-var", "7e-6", "--configx=1")
        assert code == 2 and out == "" and "unrecognized arguments: --configx=1" in err
        code, out, _ = run(capsys, "plan", "episodes", "--a", "0.93", "--sigma", "0.028",
                           "--kq", "75", "--target-var", "7e-6")
        assert code == 0 and out.strip().isdigit()

    def test_config_flag_is_not_a_prefix(self, capsys, tmp_path):
        path = write_config(tmp_path, {"a": 0.5, "sigma": 0, "kp": 1, "kq": 1})
        code, out, _ = run(capsys, "variance", "--conf", path)
        assert code == 2 and out == ""


class TestUnknownAndMissing:
    """An unrecognised token is named even when a required flag is missing too."""

    def test_prefix_and_missing_flag_both_named(self, capsys):
        code, out, err = run(capsys, "plan", "cost", *COST_FLAGS, "--kq", "75")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --kq 75" in err
        assert "the following arguments are required: --kq-max" in err

    def test_unknown_config_key_and_missing_group_both_named(self, capsys, tmp_path):
        path = write_config(tmp_path, {"a": 0.93, "sigma": 0.028, "kq": 2975, "target_vr": 7e-6})
        code, out, err = run(capsys, "plan", "episodes", "--config", path)
        assert code == 2 and out == ""
        assert "--config key 'target_vr'" in err
        assert "one of the arguments --target-var --target-ci is required" in err


class TestConfigKeys:
    def test_unknown_key_is_named(self, capsys, tmp_path):
        path = write_config(tmp_path, {
            "a": 0.93, "sigma": 0.028, "kq": 2975, "target_vr": 7e-6, "target-ci": 0.0051,
        })
        code, out, err = run(capsys, "plan", "episodes", "--config", path)
        assert code == 2
        assert out == ""
        assert "'target_vr'" in err

    def test_config_key_inside_config_rejected(self, capsys, tmp_path):
        other = write_config(tmp_path, {"kq": 4}, name="other.json")
        path = write_config(tmp_path, {"a": 0.5, "sigma": 0, "kp": 1, "kq": 1, "config": other})
        code, out, err = run(capsys, "variance", "--config", path)
        assert code == 2 and out == ""
        assert "'config'" in err

    def test_same_flag_twice_rejected(self, capsys, tmp_path):
        path = write_config(tmp_path, {
            "a": 0.93, "sigma": 0.028, "kq": 2975, "target_var": 7e-6, "target-var": 1e-5,
        })
        code, out, err = run(capsys, "plan", "episodes", "--config", path)
        assert code == 2 and out == ""
        assert "--config" in err

    def test_json_switch_from_config(self, capsys, tmp_path):
        keys = {"a": 0.87, "sigma": 0.05, "kp": 600, "kq": 75, "json": True}
        code, out, _ = run(capsys, "variance", "--config", write_config(tmp_path, keys))
        assert code == 0
        assert list(json.loads(out)) == [
            "exact_var", "approx_var", "asymptote_var", "ci95_halfwidth"
        ]
        keys["json"] = False
        code, out, _ = run(capsys, "variance", "--config", write_config(tmp_path, keys))
        assert code == 0 and out.startswith("exact_var ")

    def test_prior_switch_from_config(self, capsys, tmp_path):
        results_path = tmp_path / "results.csv"
        write_results_csv(results_path, [EpisodeResult(0, 92, 100), EpisodeResult(1, 94, 100)])
        path = write_config(tmp_path, {"results": str(results_path), "prior": True})
        code, out, _ = run(capsys, "episodes", "aggregate", "--config", path)
        assert code == 0
        assert "prior_mean 0.93" in out

    @pytest.mark.parametrize("value", [True, False, {"path": "x.csv"}])
    def test_non_text_value_for_valued_flag_rejected(
        self, capsys, tmp_path, monkeypatch, value
    ):
        monkeypatch.chdir(tmp_path)
        keys = {"a": 0.9, "sigma": 0.02, "kp_list": [100], "kq_list": [10], "out": value}
        code, out, err = run(capsys, "plan", "table", "--config", write_config(tmp_path, keys))
        assert code == 2
        assert out == ""
        assert "out" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_false_for_unknown_key_rejected(self, capsys, tmp_path):
        path = write_config(tmp_path, {"a": 0.5, "sigma": 0, "kp": 1, "kq": 1, "jsn": False})
        code, out, err = run(capsys, "variance", "--config", path)
        assert code == 2 and out == ""
        assert "'jsn'" in err

    def test_config_values_are_checked_like_flags(self, capsys, tmp_path):
        path = write_config(tmp_path, {"a": 0.5, "sigma": 0, "kp": 0, "kq": 1})
        code, out, err = run(capsys, "variance", "--config", path)
        assert code == 2 and out == ""
        assert "--kp" in err and ">= 1" in err

    def test_config_string_value_refuses_underscore(self, capsys, tmp_path):
        path = write_config(tmp_path, {"a": 0.5, "sigma": 0, "kp": 1, "kq": "7_5"})
        code, out, err = run(capsys, "variance", "--config", path)
        assert code == 2 and out == ""
        assert "argument --kq: " in err and "'7_5'" in err

    def test_lists_as_arrays_or_strings(self, capsys, tmp_path):
        base = ["plan", "table", "--a", "0.9", "--sigma", "0.02", "--config"]
        runs = [
            run(capsys, *base, write_config(tmp_path, {"kp_list": kp, "kq_list": "10,75"}))
            for kp in ([100, 200], "100,200")
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and len(runs[0][1].strip().split("\n")) == 5

    def test_null_means_absent(self, capsys, tmp_path):
        path = write_config(tmp_path, {"a": 0.5, "sigma": 0, "kp": 1, "kq": None})
        code, out, _ = run(capsys, "variance", "--config", path, "--kq", "4")
        assert code == 0 and "exact_var 0.0625" in out

    def test_config_from_sys_argv(self, capsys, tmp_path, monkeypatch):
        path = write_config(tmp_path, {"a": 0.5, "sigma": 0, "kp": 1, "kq": 1})
        monkeypatch.setattr(sys, "argv", ["episcope", "variance", "--config", path, "--kq", "4"])
        assert main() == 0
        assert "exact_var 0.0625" in capsys.readouterr().out


class TestSimulateReps:
    def test_one_replication_names_reps(self, capsys):
        code, out, err = run(
            capsys,
            "simulate", "--a", "0.5", "--sigma", "0", "--kp", "2", "--kq", "2",
            "--reps", "1", "--seed", "1",
        )
        assert code == 2 and out == ""
        assert "--reps" in err and ">= 2" in err


# The longest array of 8-byte items numpy can size.
MAX_ITEMS = (2**63 - 1) // 8
CAP_MESSAGE = f"must be <= {MAX_ITEMS} (the longest array numpy can size)"


def unreachable(*args, **kwargs):
    raise AssertionError("a count above the numpy limit must be refused before the run")


def sample_argv(index_file, count):
    return [
        "episodes", "sample", "--index", index_file, "--ways", "2", "--shots", "1",
        "--queries", "1", "--count", count, "--seed", "0", "--out", "-",
    ]


class TestCountsNumpyCannotSize:
    """``--reps`` and ``episodes sample --count`` refuse what no numpy array can hold.

    No value here is ever run: the bound is tested at parse level, and the
    library calls are replaced by ones that fail the test if reached.
    """

    def test_reps_bound_at_parse_level(self):
        argv = [*SIMULATE_BASE, "--seed", "1", "--reps"]
        assert build_parser().parse_args([*argv, str(MAX_ITEMS)]).reps == MAX_ITEMS
        with pytest.raises(CliUsageError, match=r"^argument --reps: must be <= "):
            build_parser().parse_args([*argv, str(MAX_ITEMS + 1)])

    def test_count_bound_at_parse_level(self):
        argv = sample_argv("index.json", str(MAX_ITEMS))
        assert build_parser().parse_args(argv).count == MAX_ITEMS
        argv[argv.index("--count") + 1] = str(MAX_ITEMS + 1)
        with pytest.raises(CliUsageError, match=r"^argument --count: must be <= "):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("reps, digits", [(str(MAX_ITEMS + 1), 19), ("1" + "0" * 21, 22)])
    def test_reps_names_flag_and_limit(self, capsys, monkeypatch, reps, digits):
        monkeypatch.setattr(montecarlo, "simulate", unreachable)
        code, out, err = run(capsys, *SIMULATE_BASE, "--reps", reps, "--seed", "1")
        assert (code, out) == (2, "")
        assert err == f"error: argument --reps: {CAP_MESSAGE}, got a {digits}-digit integer\n"

    @pytest.mark.parametrize("count, digits", [(str(MAX_ITEMS + 1), 19), ("1" + "0" * 23, 24)])
    def test_sample_count_names_flag_and_limit(
        self, capsys, monkeypatch, index_file, count, digits
    ):
        monkeypatch.setattr(episodes_mod, "sample_episodes", unreachable)
        code, out, err = run(capsys, *sample_argv(index_file, count))
        assert (code, out) == (2, "")
        assert err == f"error: argument --count: {CAP_MESSAGE}, got a {digits}-digit integer\n"


class TestSharedParser:
    """``main`` reuses one parser tree, and no call's outcome depends on the calls before it."""

    @staticmethod
    def outcome(capsys, argv):
        """(exit code, stdout, stderr) of one ``main`` call, argparse's own exits included."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def drop_parsers():
        """Make the next ``main`` call build both parsers anew."""
        cli._shared_parser.cache_clear()
        cli._config_parser.cache_clear()

    def fresh_outcome(self, capsys, argv):
        """The outcome of ``argv`` on a newly built parser tree."""
        self.drop_parsers()
        return self.outcome(capsys, argv)

    @pytest.fixture
    def table(self, tmp_path, index_file):
        variance = ["variance", "--a", "0.5", "--sigma", "0", "--kp", "1", "--kq", "1"]
        repeated = tmp_path / "repeated.json"
        repeated.write_text('{"a": 0.5, "sigma": 0, "kp": 1, "kq": 1, "kq": 4}')
        episodes_keys = {"a": 0.93, "sigma": 0.028, "kq": 2975}
        table_keys = {"a": 0.9, "sigma": 0.02, "kp_list": [100], "kq_list": [10], "out": False}
        return [
            ["plan", "cost", *COST_FLAGS, "--kq-max", "2975"],
            ["plan", "episodes", "--a", "0.93", "--sigma", "0.028", "--kq", "2975",
             "--target-var", "7e-6"],
            ["variance", "--a", "0.87", "--sigma", "0.05", "--kp", "600", "--kq", "75", "--json"],
            ["episodes", "sample", "--index", index_file, "--ways", "5", "--shots", "1",
             "--queries", "15", "--count", "3", "--seed", "7", "--out", "-"],
            ["plan", "cost", "--a", "0.87", "--sigma", "0.05"],
            ["plan", "episodes", "--a", "0.93", "--sigma", "0.028", "--kq", "2975"],
            ["variance", "--a", "zero", "--sigma", "0", "--kp", "1", "--kq", "1"],
            [*variance, "--bogus", "1"],
            ["variance", "--a", "0.5", "--sig", "0", "--kp", "1", "--kq", "1"],
            ["plan", "episodes", "--config", write_config(tmp_path, episodes_keys),
             "--target-var", "7e-6"],
            ["variance", "--config", str(repeated)],
            ["plan", "table", "--config", write_config(tmp_path, table_keys, name="table.json")],
            ["frobnicate"],
        ]

    def test_outcome_does_not_depend_on_earlier_calls(self, capsys, table):
        expected = [self.fresh_outcome(capsys, argv) for argv in table]
        assert sorted({code for code, _, _ in expected}) == [0, 2]
        self.drop_parsers()
        forward = [self.outcome(capsys, argv) for argv in table]
        backward = [self.outcome(capsys, argv) for argv in reversed(table)]
        assert forward == expected
        assert backward == expected[::-1]
        assert cli._shared_parser.cache_info().misses == 1

    def test_missing_flags_do_not_carry_over(self, capsys):
        code, out, err = self.outcome(capsys, ["plan", "cost", *COST_FLAGS])
        assert (code, out) == (2, "")
        assert "the following arguments are required: --kq-max" in err
        code, out, err = self.outcome(capsys, ["plan", "cost", *COST_FLAGS, "--kq-max", "2975"])
        assert (code, err) == (0, "")
        assert json.loads(out)["queries_per_episode"] == 66

    def test_build_parser_returns_a_new_tree(self):
        assert build_parser() is not build_parser()


class TestDeepJson:
    def test_deep_config_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, out, err = run(
            capsys, "variance", "--config", str(path), "--a", "0.5", "--sigma", "0",
            "--kp", "1", "--kq", "1",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --config: ")

    def test_deep_index_is_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, out, err = run(
            capsys, "episodes", "sample", "--index", str(path), "--ways", "2", "--shots", "1",
            "--queries", "1", "--count", "1", "--seed", "0", "--out", "-",
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: ")


def readme_block(heading, fence):
    """The first code block opening with ``fence`` after ``heading`` in the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(heading, 1)[1].split(fence, 1)[1].split("```", 1)[0]


def readme_commands():
    block = readme_block("## CLI", "```sh\n")
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


class TestReadme:
    def test_cli_block_is_not_empty(self):
        commands = readme_commands()
        assert len(commands) >= 10
        assert all(words[0] == "episcope" for words in commands)

    @pytest.mark.parametrize("words", readme_commands())
    def test_cli_examples_parse(self, words):
        """Every documented command parses, so a stale or misspelled flag fails here."""
        args = build_parser().parse_args(words[1:])
        assert callable(args.handler)

    def test_library_example_values(self):
        """The library block runs, and each commented value is the one it computes."""
        block = readme_block("## Library example", "```python\n")
        namespace = {}
        exec(block, namespace)
        shown = re.findall(r"^(\w+) = .*# (\S+)$", block, flags=re.MULTILINE)
        assert [name for name, _ in shown] == ["achieved", "episodes"]
        for name, text in shown:
            value = namespace[name]
            if "e" in text:  # as many significant digits as the comment shows
                digits = len(text.split("e")[0].replace(".", "")) - 1
                assert f"{value:.{digits}e}" == text
            else:
                assert value == int(text)
