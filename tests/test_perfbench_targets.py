"""The benchmark's traced names must exist in the package, and be reached through them.

``perfbench/worker.py`` wraps each (module, attribute) of ``TRACE_TARGETS``
at run time, so a rename or deletion would only surface in a traced benchmark
run, and so would a call that bypasses the module attribute. The list is read
with ``ast``; perfbench itself is not imported.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from episcope import fid as fidmod

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def trace_targets() -> list[tuple[str, str]]:
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACE_TARGETS" for t in node.targets
        ):
            return [(ast.literal_eval(e.elts[0]), ast.literal_eval(e.elts[1])) for e in node.value.elts]
    raise AssertionError(f"no TRACE_TARGETS in {WORKER}")


def test_every_traced_name_resolves():
    targets = trace_targets()
    assert targets
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


@pytest.mark.parametrize("n", [120, 20], ids=["n_gt_d", "n_le_d"])
def test_fid_reaches_its_traced_parts(monkeypatch, n):
    """``per_layer`` divides the fit and distance spans by their counts within each fid."""
    calls = {"fit_gaussian": 0, "frechet_distance": 0}
    for name in calls:
        original = getattr(fidmod, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fidmod, name, counted)
    rng = np.random.default_rng(n)
    fidmod.fid(rng.normal(size=(n, 64)), rng.normal(size=(n, 64)))
    assert calls == {"fit_gaussian": 2, "frechet_distance": 1}
