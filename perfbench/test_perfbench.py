"""The benchmark's own tests; run with ``python3 -m pytest perfbench``.

They are kept out of the package's test suite because each traced run takes
about twenty seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = {"count", "bytes", "flop"}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly():
    args = ("--workload", "features", "--seed", "11", "--seconds", "1", "--trace", "1")
    first, second = last_json(run_bench(*args)), last_json(run_bench(*args))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counts = {n: m["value"] for n, m in first["metrics"].items() if m["unit"] in EXACT_UNITS}
    again = {n: m["value"] for n, m in second["metrics"].items() if m["unit"] in EXACT_UNITS}
    assert counts == again
    assert counts["montecarlo.replications"] == 8 * 4096
    assert counts["planner.kq_scanned"] == 2975 + 1_000_000
    assert counts["episodes.episodes"] == 600 + 10_000
    assert counts["fid.pairs.d64"] == 100 and counts["fid.pairs.wide"] == 2
    assert counts["blend.draws"] == 200
    assert all(v == 0 for n, v in counts.items() if n.endswith(".errors"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "mc_validate", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
