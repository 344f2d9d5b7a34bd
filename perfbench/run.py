"""episcope benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc_validate --seed 1 --seconds 20 --trace 0

Workloads are mc_validate, plan_protocol and features (see BENCHMARK.json).
The command writes the workload's inputs from ``--seed``, then starts fresh
single-threaded worker processes (worker.py): several that only set up, to
time set-up, and one that measures. With ``--trace 0`` the last line of
standard output is a JSON object with every end-to-end metric; with
``--trace 1`` it holds the per-layer metrics of a traced run instead. Both
are also saved, with machine and provenance facts, under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

WORKLOADS = ("mc_validate", "plan_protocol", "features")
SETUP_PROCESSES = 4  # fresh processes timed to set-up per run, the worker included
SETUP_TIMEOUT_S = 120
RESULT_TIMEOUT_S = 170

# One BLAS thread. On a 2-core box a second OpenBLAS thread made a 64x64
# eigh take ~48 ms instead of ~0.5 ms in some processes and not in others,
# which swamps every FID figure; one thread is also the serial baseline.
BLAS_THREADS = 1

# The workload-specific figures behind the work_per_s and key_op_s slots.
NAMED_UNITS = {
    "mc_reps_per_s": "1/s", "kp600_simulate_s": "s", "episodes_per_s": "1/s", "plan_cost_s": "s",
    "fid_64d_pairs_per_s": "1/s", "fid_64d_ms": "ms", "fid_64d_p90_ms": "ms", "fid_wide_s": "s",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EPISCOPE_THREADS", None)  # no thread pool: the simulator runs serially
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A worker process whose set-up time is measured from spawn to READY."""

    def __init__(self, argv: list[str], env: dict[str, str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - self.started
        if line.strip() != "READY":
            self.finish(SETUP_TIMEOUT_S)
            raise RuntimeError(f"worker did not set up: {self.stderr.strip()[-2000:]}")

    def finish(self, timeout: float) -> str:
        try:
            out, self.stderr = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker timed out")
        return out


def import_probe(env: dict[str, str], inputs_dir: Path) -> dict[str, float]:
    """Import breakdown and cold-versus-warm FID from one fresh interpreter."""
    code = (
        "import json, time, sys\n"
        "from pathlib import Path\n"
        "import episcope.cli\n"
        "from episcope.featureio import load_features\n"
        "from episcope.fid import fid\n"
        "d = Path(sys.argv[1])\n"
        "a, b = load_features(d / 'fid64_001_0.fsfe'), load_features(d / 'fid64_001_1.fsfe')\n"
        "t0 = time.perf_counter(); fid(a, b); t1 = time.perf_counter(); fid(a, b)\n"
        "t2 = time.perf_counter()\n"
        "print(json.dumps({'first': t1 - t0, 'second': t2 - t1}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code, str(inputs_dir)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=SETUP_TIMEOUT_S, check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if cum.isdigit():
                cumulative[name] = int(cum) / 1e6
    fid_times = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        # The episcope.cli entry nests the package __init__, which imports
        # every other module.
        "cli.import_s": cumulative["episcope.cli"],
        "episodes.import_s": cumulative["episcope.episodes"],
        "fid.first_call_ms": fid_times["first"] * 1e3,
        "fid.second_call_ms": fid_times["second"] * 1e3,
    }


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "episcope").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "episcope_threads": "unset",
        "bit_generator": "Philox (episcope.seeds.philox_generator)",
        "workload_seed": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "episcope" / "__init__.py").is_file():
        return fail(f"no episcope sources under {ROOT / 'src'}; run from a full checkout")
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        return fail("--seed must be in [0, 2^63) and --seconds positive")

    import inputs
    from estimate import slow_decile

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        data = inputs.generate(work / "inputs", args.seed)
        env = child_env()
        base = ["--workload", args.workload, "--seed", str(args.seed), "--inputs", str(data.root)]
        setups = []
        if not args.trace:
            for i in range(SETUP_PROCESSES - 1):
                probe = Worker([*base, "--seconds", "0", "--workdir", str(work / f"setup{i}"),
                                "--setup-only"], env)
                probe.finish(SETUP_TIMEOUT_S)
                setups.append(probe.setup_s)
        trace_file = OUT / f"trace-{tag}.json"
        worker = Worker([*base, "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--workdir", str(work / "run"), "--trace-out", str(trace_file)], env)
        setups.append(worker.setup_s)
        out = worker.finish(RESULT_TIMEOUT_S + args.seconds)
        lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
        if worker.proc.returncode != 0 or not lines:
            return fail(f"worker failed (exit {worker.proc.returncode}): {worker.stderr.strip()[-2000:]}")
        result = json.loads(lines[-1][len("RESULT "):])
        extra = import_probe(env, data.root) if args.trace else {}
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = {**result["per_layer"], **extra}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units("per_layer")}
    else:
        values = {**result["end_to_end"], "setup_s": slow_decile(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units("end_to_end")}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        return fail(f"metrics not measured: {missing}")

    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **line, "error_rate": result["failed"] / result["attempted"], "failures": result["failures"],
        "own_passes": result["own_passes"], "setup_samples_s": setups,
        "named": {k: {"value": v, "unit": NAMED_UNITS[k]} for k, v in result["named"].items()},
        "pass_seconds": result["pass_seconds"],
        "provenance": provenance(args.seed),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for name, value in result["named"].items():
        print(f"{name:48s} {value:.6g} {NAMED_UNITS[name]}")
    print(f"{'error_rate':48s} {record['error_rate']:.6g} ratio ({result['failed']}/{result['attempted']})")
    for message in result["failures"]:
        print(f"FAILED {message}")
    print(json.dumps(line))
    return 0


def units(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of each ``end_to_end`` or ``per_layer`` metric in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


if __name__ == "__main__":
    sys.exit(main())
