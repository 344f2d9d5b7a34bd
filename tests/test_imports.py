"""The import graph: each entry point loads only what it runs.

Each scipy module takes 0.2-0.4 s to import, numpy about 0.1 s, so a command
that loads them without using them spends most of its time starting up. The
package's only third-party runtime dependency is numpy: no command loads
scipy, and a parse of the package checks that no module imports it. Each
probe runs in a fresh interpreter, because the test process has long since
imported everything. One more probe checks that importing the CLI builds no
argument parser, only its first ``main`` call. A last check parses the
package, the tests and the scripts for imported names that are never used.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
VARIANCE = "variance --a 0.87 --sigma 0.05 --kp 600 --kq 75 --json"
PLAN_COST = (
    "plan cost --a 0.93 --sigma 0.028 --cost-episode 5 --cost-query 0.1 --target-var 7e-6"
    " --kq-max 2975"
)
SIMULATE = "simulate --a 0.87 --sigma {sigma} --kp 600 --kq 75 --reps 100 --seed 1"
SAMPLE = (
    "episodes sample --index {dir}/index.json --ways 5 --shots 1 --queries 15 --count 10"
    " --seed 1 --out {dir}/episodes.jsonl"
)
AGGREGATE = "episodes aggregate --results {dir}/results.csv --prior"
FID = "fid --a {dir}/a.csv --b {dir}/b.csv"


def probe(code: str):
    """The JSON value a fresh interpreter prints on its last line after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(code: str) -> set[str]:
    """Names in ``sys.modules`` after a fresh interpreter runs ``code``."""
    return set(probe(code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def cli_run(argv: str) -> str:
    return f"from episcope.cli import main\nif main({argv.split()!r}):\n    raise SystemExit(1)"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """An index, a results CSV and two feature files for the probes' ``{dir}``."""
    root = tmp_path_factory.mktemp("inputs")
    index = {f"c{i}": [f"c{i}_e{j}" for j in range(20)] for i in range(5)}
    (root / "index.json").write_text(json.dumps(index), encoding="utf-8")
    (root / "results.csv").write_text(
        "episode_id,correct,total\n0,70,75\n1,64,75\n2,68,75\n", encoding="utf-8"
    )
    rng = np.random.default_rng(0)
    for name in ("a", "b"):
        np.savetxt(root / f"{name}.csv", rng.normal(size=(20, 4)), delimiter=",")
    return root


def test_package_import_loads_no_submodule_and_no_numpy():
    loaded = modules_after("import episcope")
    assert sorted(name for name in loaded if name.startswith("episcope.")) == []
    assert "numpy" not in loaded


def test_variance_module_needs_neither_numpy_nor_scipy():
    loaded = modules_after("import episcope.variance")
    assert "numpy" not in loaded and "scipy" not in loaded


NO_SCIPY = {
    "import_montecarlo": "import episcope.montecarlo",
    "import_episodes": "import episcope.episodes",
    "import_cli": "import episcope.cli",
    "variance": cli_run(VARIANCE),
    "plan_cost": cli_run(PLAN_COST),
    "simulate_beta": cli_run(SIMULATE.format(sigma=0.05)),
    "simulate_point_mass": cli_run(SIMULATE.format(sigma=0)),
    "episodes_sample": cli_run(SAMPLE),
    "episodes_aggregate": cli_run(AGGREGATE),
    "fid": cli_run(FID),
}


@pytest.mark.parametrize("code", NO_SCIPY.values(), ids=NO_SCIPY.keys())
def test_loads_no_scipy(code, inputs):
    assert "scipy" not in modules_after(code.format(dir=inputs))


PARSERS_BUILT = f"""
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)

argparse.ArgumentParser.__init__ = counted
import episcope.cli
after_import = len(built)
after_calls = []
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()):
        assert episcope.cli.main({PLAN_COST.split()!r}) == 0
    after_calls.append((built.count("episcope"), len(built)))
print(json.dumps([after_import, after_calls]))
"""


def test_cli_builds_its_parser_tree_on_the_first_main_call_only():
    """Import builds no parser; the first ``main`` builds one tree, and later calls build none."""
    after_import, after_calls = probe(PARSERS_BUILT)
    assert after_import == 0
    (trees, parsers), *later = after_calls
    assert trees == 1 and parsers > 1
    assert later == [[trees, parsers]] * 2


def test_fid_name_is_the_module():
    import episcope
    import episcope.fid

    assert inspect.ismodule(episcope.fid)


def unused_imports(source: str) -> list[str]:
    """Names an ``import`` in ``source`` binds that no other line of it mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_detector():
    source = "import os.path\nimport sys as system\nfrom a import b, c\nprint(os, c)\n"
    assert unused_imports(source) == ["line 2: system", "line 3: b"]


def scipy_imports(source: str) -> list[tuple[str, str]]:
    """(enclosing function, statement) of each scipy import in ``source``; "" at module level."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(module.partition(".")[0] == "scipy" for module in modules):
                found.append((where, ast.unparse(child)))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else where)

    visit(ast.parse(source), "")
    return found


def test_scipy_imports_detector():
    source = (
        "import scipy.linalg\nimport scipyx\nfrom . import scipy\n"
        "def f():\n    from scipy import special\n"
        "class A:\n    def g(self):\n        if True:\n            import numpy, scipy as sp\n"
    )
    assert scipy_imports(source) == [
        ("", "import scipy.linalg"),
        ("f", "from scipy import special"),
        ("g", "import numpy, scipy as sp"),
    ]


def test_package_imports_no_scipy():
    """No module under ``src/`` imports scipy, at module level or inside a function."""
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 5
    found = {
        str(path.relative_to(SRC)): imports
        for path in paths
        if (imports := scipy_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_no_unused_imports():
    files = sorted(
        path for folder in ("src/episcope", "tests", "scripts")
        for path in (ROOT / folder).rglob("*.py")
    )
    assert len(files) > 20
    unused = {
        str(path.relative_to(ROOT)): names
        for path in files if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
