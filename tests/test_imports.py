"""The import graph: each entry point loads only what it runs.

``scipy.stats`` takes most of a second to import, and numpy and scipy most of
the rest, so a command that loads them without using them spends most of its
time starting up. Each probe runs in a fresh interpreter, because the test
process has long since imported everything.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
VARIANCE = "variance --a 0.87 --sigma 0.05 --kp 600 --kq 75 --json"
SIMULATE = "simulate --a 0.87 --sigma {sigma} --kp 600 --kq 75 --reps 100 --seed 1"


def modules_after(code: str) -> set[str]:
    """Names in ``sys.modules`` after a fresh interpreter runs ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_run(argv: str) -> str:
    return f"from episcope.cli import main\nif main({argv.split()!r}):\n    raise SystemExit(1)"


def test_package_import_loads_no_submodule_and_no_numpy():
    loaded = modules_after("import episcope")
    assert sorted(name for name in loaded if name.startswith("episcope.")) == []
    assert "numpy" not in loaded


def test_variance_module_needs_neither_numpy_nor_scipy():
    loaded = modules_after("import episcope.variance")
    assert "numpy" not in loaded and "scipy" not in loaded


@pytest.mark.parametrize("code", ["import episcope.cli", cli_run(VARIANCE)], ids=["import", "run"])
def test_cli_leaves_scipy_stats_unloaded(code):
    assert "scipy.stats" not in modules_after(code)


def test_beta_prior_simulate_leaves_scipy_stats_unloaded():
    assert "scipy.stats" not in modules_after(cli_run(SIMULATE.format(sigma=0.05)))


def test_point_mass_simulate_leaves_scipy_stats_unloaded():
    assert "scipy.stats" not in modules_after(cli_run(SIMULATE.format(sigma=0)))


def test_fid_name_is_the_module():
    import episcope
    import episcope.fid

    assert inspect.ismodule(episcope.fid)
