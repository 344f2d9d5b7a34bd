"""The benchmark's traced names must exist in the package.

``perfbench/worker.py`` wraps each (module, attribute) of ``TRACE_TARGETS``
at run time, so a rename or deletion would only surface in a traced benchmark
run. The list is read with ``ast``; perfbench itself is not imported.
"""

import ast
import importlib
from pathlib import Path

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
