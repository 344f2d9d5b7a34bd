"""Command-line surface: flags, outputs, exit codes, config files."""

import hashlib
import json
import math
import shlex
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from episcope import episodes as episodes_mod
from episcope import montecarlo
from episcope.cli import build_parser, main
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
        "flag, value, argv",
        [
            ("--a", "0.8_7", ["variance", "--sigma", "0", "--kp", "1", "--kq", "1"]),
            ("--a", "\u0660.\u0668\u0667", ["variance", "--sigma", "0", "--kp", "1", "--kq", "1"]),
            ("--kp", "6_00", ["variance", "--a", "0.5", "--sigma", "0", "--kq", "1"]),
            ("--kp", "\uff16\uff10\uff10", ["variance", "--a", "0.5", "--sigma", "0", "--kq", "1"]),
            ("--reps", "1_000", SIMULATE_BASE + ["--seed", "1"]),
            ("--seed", "\u0661", SIMULATE_BASE + ["--reps", "100"]),
        ],
        ids=["a_underscore", "a_arabic_indic", "kp_underscore", "kp_fullwidth", "reps", "seed"],
    )
    def test_underscore_or_non_ascii_number_names_the_flag(self, capsys, flag, value, argv):
        """int() and float() accept these; every numeric flag refuses them."""
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (2, "")
        assert f"argument {flag}: " in err and "ASCII digits" in err


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

    @pytest.mark.parametrize("kq_max", ["2975", "1000000"])
    def test_cost_json_pinned(self, capsys, kq_max):
        """The benchmark's plan: exact bytes, whatever the Kq range scanned."""
        code, out, _ = run(
            capsys,
            "plan", "cost", "--a", "0.87", "--sigma", "0.05",
            "--cost-episode", "100.0", "--cost-query", "1.0",
            "--target-var", "6.62e-06", "--kq-max", kq_max,
        )
        assert code == 0
        assert out == (
            '{"episodes": 631, "queries_per_episode": 66, '
            '"predicted_var": 6.617682370455747e-06, '
            '"predicted_ci95": 0.005042071855333162, "total_cost": 104746.0}\n'
        )

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
        [("1e-4", 0), ("3e-7", 1), ("1e-8", 1), ("1e-100", 1), ("1e-160", 2), ("1e-170", 0)],
    )
    def test_tiny_sigma_runs_or_names_the_std(self, capsys, sigma, code):
        """Finite output, or a message naming the std: never a traceback.

        Exit 1 is a count pmf too inaccurate to sample; exit 2 is a std whose
        square is subnormal, so no Beta fit exists.
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
            assert out == "" and err.startswith("error: ")
            assert f"std {float(sigma):.6g} is too small" in err
            assert ("--a/--sigma: " if code == 2 else "(--sigma 0)") in err

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


def readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
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
