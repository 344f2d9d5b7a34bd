"""Smoke runs of the example scripts under scripts/ at small sizes, and their flag errors."""

import functools
import importlib.util
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@functools.cache
def load_script(name: str):
    """The script as a module, loaded by path; its sys.path insert is undone."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "path", [*sys.path]):
        spec.loader.exec_module(module)
    return module


def usage_error(name: str, args: tuple[str, ...], capsys, monkeypatch) -> str:
    """Run the script's main in-process, expect argparse's exit 2 and no stdout; return stderr."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / name), *args])  # argparse's prog
    with pytest.raises(SystemExit) as exit_info:
        load_script(name).main(list(args))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: {name} ")
    return captured.err


def test_validate_variance_model():
    proc = run_script("validate_variance_model.py", "--reps", "200", "--kq", "1,5")
    assert proc.stdout == (
        "kq,theoretical_var,empirical_var,rel_var_error,asymptote_var\n"
        "1,0.0009425,0.001043802345,0.1074825942,2.083333333e-05\n"
        "5,0.0002051666667,0.0001886487298,0.08050984682,2.083333333e-05\n"
    )
    assert "2 sweep points, 200 replications each" in proc.stderr


def test_plan_evaluation(tmp_path):
    table = tmp_path / "table.csv"
    proc = run_script("plan_evaluation.py", "--table", str(table))
    assert proc.stdout.splitlines()[-3:] == [
        "predicted: var 6.6034e-06, 95% half-width 0.50 pts",
        "cheapest design at 5.59h/episode: 122 episodes x 2975 queries, 682.0h total",
        f"wrote trade-off table to {table}",
    ]
    assert len(table.read_text().splitlines()) == 1 + 4 * 3


def test_blend_norm_effect():
    proc = run_script("blend_norm_effect.py", "--dim", "64", "--draws", "2")
    header, *rows = proc.stdout.splitlines()
    assert header == "alpha,raw_norm,corrected_norm,target_norm"
    assert [row.split(",")[0] for row in rows] == [f"{a / 10:.1f}" for a in range(11)]
    # The corrected blend holds the interpolated norm.
    assert all(row.split(",")[2] == row.split(",")[3] for row in rows)


@pytest.mark.parametrize(
    "name, args, flag",
    [
        ("validate_variance_model.py", ("--reps", "1", "--kq", "1"), "--reps"),
        ("validate_variance_model.py", ("--kq", "1,,5"), "--kq"),
        ("blend_norm_effect.py", ("--dim", "0"), "--dim"),
        ("plan_evaluation.py", ("--ref-kp", "0"), "--ref-kp"),
        ("plan_evaluation.py", ("--ways", "0"), "--ways"),
        ("plan_evaluation.py", ("--target-var", "nan"), "--target-var"),
        ("plan_evaluation.py", ("--cost-per-episode", "-1"), "--cost-per-episode"),
        ("plan_evaluation.py", ("--cost-per-episode", "0"), "--cost-per-episode"),
        ("plan_evaluation.py", ("--ref-a", "2"), "--ref-a"),
        # int() and float() read underscores and non-ASCII digits; no flag does.
        ("validate_variance_model.py", ("--a", "0.8_7"), "--a"),
        ("validate_variance_model.py", ("--sigma", "\u0660.\u0660\u0665"), "--sigma"),
        ("validate_variance_model.py", ("--a", "2"), "--a"),
        ("validate_variance_model.py", ("--sigma", "-0.1"), "--sigma"),
        ("validate_variance_model.py", ("--reps", "1_000"), "--reps"),
        ("plan_evaluation.py", ("--ref-kp", "\uff16\uff10\uff10"), "--ref-kp"),
        ("plan_evaluation.py", ("--new-sigma", "0.0_28"), "--new-sigma"),
        ("blend_norm_effect.py", ("--seed", "\u0661"), "--seed"),
    ],
)
def test_bad_flag_exits_2_naming_it(name, args, flag, capsys, monkeypatch):
    err = usage_error(name, args, capsys, monkeypatch)
    assert f"error: argument {flag}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, args, flags",
    [
        ("validate_variance_model.py", ("--a", "0.5", "--sigma", "0.6"), "--a/--sigma"),
        ("plan_evaluation.py", ("--ref-a", "0.5", "--ref-sigma", "0.6"), "--ref-a/--ref-sigma"),
        ("plan_evaluation.py", ("--new-a", "0.99", "--new-sigma", "0.5"), "--new-a/--new-sigma"),
        # A zero-variance reference leaves no target to meet.
        ("plan_evaluation.py", ("--ref-a", "1", "--ref-sigma", "0"), "--ref-a/--ref-sigma"),
        ("plan_evaluation.py", ("--target-var", "1e-40"), "--target-var"),
        # Variance exactly at the two-point boundary: only a two-point law, no Beta, has it.
        ("validate_variance_model.py", ("--a", "0.5", "--sigma", "0.5"), "--a/--sigma"),
        # A std whose square is subnormal: no Beta fit exists.
        ("validate_variance_model.py", ("--sigma", "1e-160", "--kq", "75"), "--a/--sigma"),
    ],
)
def test_bad_flag_combination_exits_2_naming_it(name, args, flags, capsys, monkeypatch):
    err = usage_error(name, args, capsys, monkeypatch)
    assert f"error: {flags}: " in err
    assert "Traceback" not in err


def test_reps_numpy_cannot_size_exits_2_naming_the_limit(capsys, monkeypatch):
    """``--reps`` above the longest 8-byte array numpy can size is a flag error, never run."""
    limit = (2**63 - 1) // 8

    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(load_script("validate_variance_model.py"), "sweep", unreachable)
    err = usage_error("validate_variance_model.py", ("--reps", str(limit + 1)), capsys, monkeypatch)
    assert f"error: argument --reps: must be <= {limit} " in err
