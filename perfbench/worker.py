"""One measured process: set up, run one workload, print its figures.

Started by run.py in a fresh interpreter. It imports episcope, builds the
workloads from the generated inputs, runs one untimed warm-up of every
operation and prints ``READY`` (the parent times set-up up to that line).
With ``--setup-only`` it stops there. Otherwise it runs passes of its own
workload in a closed loop for ``--seconds``, checks every output, and prints
``RESULT <json>``.

With ``--trace 1`` own passes alternate untraced and traced, so the tracing
overhead is the gap between the two medians, and one traced pass of each
other workload follows, so every per-layer metric exists on every workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs as inp  # noqa: E402
import workloads as wl  # noqa: E402
from estimate import slow_decile  # noqa: E402
from tracer import LEAF, SPAN, Tracer  # noqa: E402


def _size(arg_index: int, key: str):
    return lambda args, kwargs, _result: kwargs[key] if key in kwargs else args[arg_index]


def _file_bytes(args, _kwargs, _result) -> int:
    target = args[0]
    return Path(target).stat().st_size if isinstance(target, (str, Path)) else 0


def _eigh_flops(args, _kwargs, _result) -> int:
    # Two symmetric d x d eigendecompositions with eigenvectors per pair, at
    # the textbook 9 d^3 flops each (Golub & Van Loan): computed, not counted.
    d = args[0].shape[1]
    return 2 * 9 * d**3


TRACE_TARGETS = [
    ("episcope.montecarlo", "simulate", SPAN, lambda a, k, r: a[0].replications),
    ("episcope.montecarlo", "decompose_variance", SPAN, lambda a, k, r: a[0].replications),
    ("episcope.seeds", "substream_seeds", SPAN, _size(1, "count")),
    ("episcope.seeds", "rekey_philox", LEAF, None),
    ("episcope.planner", "min_cost_design", SPAN, None),
    ("episcope.planner", "min_episodes_for_variance", LEAF, None),
    ("episcope.planner", "tradeoff_table", SPAN, lambda a, k, r: len(r)),
    ("episcope.planner", "tradeoff_csv", SPAN, None),
    ("episcope.variance", "variance_report", LEAF, None),
    ("episcope.episodes", "sample_episodes", SPAN, lambda a, k, r: len(r)),
    ("episcope.episodes", "write_episodes", SPAN, _file_bytes),
    ("episcope.episodes", "DatasetIndex.load", SPAN, None),
    ("episcope.episodes", "read_results_csv", SPAN, lambda a, k, r: len(r)),
    ("episcope.episodes", "aggregate", SPAN, None),
    ("episcope.episodes", "prior_from_results", SPAN, None),
    ("episcope.cli", "main", SPAN, None),
    ("episcope.fid", "fid", SPAN, _eigh_flops),
    ("episcope.fid", "fit_gaussian", SPAN, None),
    ("episcope.fid", "frechet_distance", SPAN, None),
    ("episcope.featureio", "load_features", SPAN, _file_bytes),
    ("episcope.blend", "sample_blend_batch", SPAN, _size(3, "count")),
    ("episcope.blend", "blend_norm_corrected", LEAF, None),
]

MODULES = ("montecarlo", "seeds", "planner", "variance", "episodes", "cli", "fid", "featureio", "blend")
# CLI subcommand -> labels of the plan_protocol operations that run it
CLI_SUBCOMMANDS = {
    "plan_episodes": ("plan_episodes",),
    "plan_cost": ("plan_cost_2975", "plan_cost_1e6"),
    "plan_table": ("plan_table",),
    "episodes_sample": ("sample_all", "sample_q15"),
    "episodes_aggregate": ("aggregate",),
}


class Run:
    def __init__(self, workloads: dict, tracer: Tracer | None) -> None:
        self.workloads = workloads
        self.tracer = tracer
        # One record per operation executed: (workload, pass key, label, seconds, work)
        # where the pass key names one pass, as "<workload>/<own|cross>/<index>".
        self.records: list[tuple[str, str, str, float, int]] = []
        self.failures: list[str] = []
        self.failed_by_module: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.op_meta: list[tuple[str, str, str]] = []  # op id -> (workload, pass key, label)
        self.pass_seconds: dict[str, list[tuple[float, bool]]] = defaultdict(list)

    def run_pass(self, name: str, pass_index: int, kind: str, traced: bool) -> None:
        """Run one pass; ``kind`` is "own" for the measured workload, else "cross"."""
        workload = self.workloads[name]
        pass_key = f"{name}/{kind}/{pass_index}"
        ops = workload.ops(pass_index)
        tracer = self.tracer if traced else None
        if tracer:
            tracer.install(TRACE_TARGETS)
        total = 0.0
        try:
            for op in ops:
                op_id = len(self.op_meta)
                self.op_meta.append((name, pass_key, op.label))
                if tracer:
                    tracer.begin_op(op_id)
                ok, error = True, ""
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # an operation that raises counts as failed
                    ok, error = False, f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0
                if tracer:
                    tracer.end_op()
                if ok:
                    try:
                        op.check(out)
                    except Exception as exc:  # a check that cannot complete is a failed check
                        ok, error = False, f"{type(exc).__name__}: {exc}"
                out = None
                total += seconds
                self.attempted += 1
                if not ok:
                    self._fail(op.module, f"{name}/{op.label}: {error}")
                self.records.append((name, pass_key, op.label, seconds, op.work))
        finally:
            if tracer:
                tracer.uninstall()
        self.pass_seconds[f"{name}/{kind}"].append((total, traced))

    def _fail(self, module: str, message: str, count: int = 1) -> None:
        self.failed += count
        self.failed_by_module[module] += count
        if len(self.failures) < 20:
            self.failures.append(message)

    def finish(self) -> None:
        for workload in self.workloads.values():
            for module, count, message in workload.finish():
                self._fail(module, message, count)


# --- end-to-end metrics --------------------------------------------------------


def _per_pass(records, workload: str, labels, fn):
    """fn(sum of work, sum of seconds) per pass of ``workload`` over ``labels``."""
    acc: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    for name, key, label, seconds, work in records:
        if name == workload and (labels is None or label in labels):
            acc[key][0] += work
            acc[key][1] += seconds
    return [fn(w, s) for w, s in acc.values()]


# Every end-to-end metric must exist on every workload, so the two
# workload-specific ones are slots: ``work_per_s`` is the workload's unit of
# work per second and ``key_op_s`` the time of its key operation.
# (work labels, key operation label) per workload.
SLOTS = {
    "mc_validate": (None, "kp600"),  # replications/s; the 600x75 simulate call
    "plan_protocol": (("sample_all", "sample_q15"), "plan_cost_1e6"),  # episodes/s; plan cost
    "features": (("fid64",), "fidwide"),  # 64-d FID pairs/s; one wide pair
}


def end_to_end(run: Run, own: str) -> tuple[dict[str, float], dict[str, float]]:
    """(slot metrics, the same figures under their workload-specific names)."""
    recs = [r for r in run.records if r[1].startswith(f"{own}/own/")]
    work_labels, key_label = SLOTS[own]
    work_per_s = slow_decile(_per_pass(recs, own, work_labels, lambda w, s: w / s), rate=True)
    key_op_s = slow_decile([r[3] for r in recs if r[2] == key_label])
    slots = {
        "run_s": slow_decile([s for s, _traced in run.pass_seconds[f"{own}/own"]]),
        "work_per_s": work_per_s,
        "key_op_s": key_op_s,
    }
    if own == "mc_validate":
        named = {"mc_reps_per_s": work_per_s, "kp600_simulate_s": key_op_s}
    elif own == "plan_protocol":
        named = {"episodes_per_s": work_per_s, "plan_cost_s": key_op_s}
    else:
        fid64 = [r[3] * 1e3 for r in recs if r[2] == "fid64"]
        named = {
            "fid_64d_pairs_per_s": work_per_s,
            "fid_64d_ms": statistics.median(fid64),
            "fid_64d_p90_ms": statistics.quantiles(fid64, n=10)[8],
            "fid_wide_s": key_op_s,
        }
    return slots, named


# --- per-layer metrics ---------------------------------------------------------


def per_layer(run: Run, own: str) -> dict[str, float]:
    tracer = run.tracer
    spans = [s for s in tracer.spans() if s["op"] >= 0]
    meta = run.op_meta
    passes: dict[str, set] = defaultdict(set)  # workload -> traced pass keys
    for s in spans:
        passes[meta[s["op"]][0]].add(meta[s["op"]][1])

    def spans_of(name, labels=None):
        return [s for s in spans if s["name"] == name and (labels is None or meta[s["op"]][2] in labels)]

    def dur(name, labels=None):
        sel = spans_of(name, labels)
        return sum(s["dur_ns"] for s in sel), sum(s["work"] for s in sel), len(sel)

    def leaf(name, labels=None):
        calls = ns = 0
        for (leaf_name, op), (c, t, _e) in tracer.leaf_by_op.items():
            if leaf_name == name and (labels is None or meta[op][2] in labels):
                calls, ns = calls + c, ns + t
        return calls, ns

    def per_pass(total, workload):
        return total / max(1, len(passes[workload]))

    m: dict[str, float] = {}
    for label in ("kq10", "kq75", "kq2975", "point_mass", "kp600"):
        ns, reps, _ = dur("montecarlo.simulate", (label,))
        m[f"montecarlo.simulate.us_per_rep.{label}"] = ns / 1e3 / reps
    m["montecarlo.replications"] = per_pass(dur("montecarlo.simulate")[1], "mc_validate")
    ns, reps, _ = dur("montecarlo.decompose_variance")
    m["montecarlo.decompose_variance.us_per_rep"] = ns / 1e3 / reps
    ns, count, _ = dur("seeds.substream_seeds")
    m["seeds.substream_seeds.ns_per_seed"] = ns / count
    calls, ns = leaf("seeds.rekey_philox")
    m["seeds.rekey_philox.us_per_call"] = ns / 1e3 / calls
    for label, key in (("plan_cost_2975", "kq_max_2975"), ("plan_cost_1e6", "kq_max_1e6")):
        ns, _, n = dur("planner.min_cost_design", (label,))
        m[f"planner.min_cost_design.s.{key}"] = ns / 1e9 / n
    calls, _ = leaf("planner.min_episodes_for_variance", ("plan_cost_2975", "plan_cost_1e6"))
    m["planner.kq_scanned"] = per_pass(calls, "plan_protocol")
    ns, cells, _ = dur("planner.tradeoff_table")
    m["planner.tradeoff_table.us_per_cell"] = ns / 1e3 / cells
    calls, ns = leaf("planner.min_episodes_for_variance")
    m["planner.min_episodes_for_variance.us_per_call"] = ns / 1e3 / calls
    calls, ns = leaf("variance.variance_report")
    m["variance.variance_report.us_per_call"] = ns / 1e3 / calls
    for label, key in (("sample_all", "all_queries"), ("sample_q15", "q15")):
        ns, count, _ = dur("episodes.sample_episodes", (label,))
        m[f"episodes.sample_episodes.ms_per_episode.{key}"] = ns / 1e6 / count
    ns, nbytes, _ = dur("episodes.write_episodes")
    m["episodes.write_episodes.mb_per_s"] = nbytes / 1e6 / (ns / 1e9)
    m["episodes.jsonl_bytes"] = per_pass(nbytes, "plan_protocol")
    m["episodes.episodes"] = per_pass(dur("episodes.sample_episodes")[1], "plan_protocol")
    for name in ("read_results_csv", "aggregate", "DatasetIndex.load"):
        ns, _, n = dur(f"episodes.{name}")
        m[f"episodes.{name}.ms"] = ns / 1e6 / n
    for sub, labels in CLI_SUBCOMMANDS.items():
        sel = spans_of("cli.main", labels)
        m[f"cli.main.self_ms.{sub}"] = sum(s["self_ns"] for s in sel) / 1e6 / len(sel)
    for name in ("fit_gaussian", "frechet_distance"):
        for label, key in (("fid64", "d64"), ("fidwide", "wide")):
            ns, _, n = dur(f"fid.{name}", (label,))
            m[f"fid.{name}.ms.{key}"] = ns / 1e6 / n
    for label, key in (("fid64", "d64"), ("fidwide", "wide")):
        m[f"fid.pairs.{key}"] = per_pass(dur("fid.fid", (label,))[2], "features")
    m["fid.eigh_flop_computed"] = per_pass(dur("fid.fid")[1], "features")
    for label, key in (("load_fsfe", "fsfe"), ("load_csv", "csv")):
        ns, nbytes, _ = dur("featureio.load_features", (label,))
        m[f"featureio.load_features.mb_per_s.{key}"] = nbytes / 1e6 / (ns / 1e9)
    m["featureio.bytes_read"] = per_pass(dur("featureio.load_features")[1], "features")
    ns, draws, _ = dur("blend.sample_blend_batch")
    m["blend.sample_blend_batch.us_per_draw"] = ns / 1e3 / draws
    m["blend.draws"] = per_pass(draws, "features")

    errors = defaultdict(int, run.failed_by_module)
    for s in spans:
        if s["error"]:
            errors[s["name"].split(".")[0]] += 1
    for (name, _op), (_c, _t, e) in tracer.leaf_by_op.items():
        errors[name.split(".")[0]] += e
    for module in MODULES:
        m[f"{module}.errors"] = errors[module]

    own_passes = run.pass_seconds[f"{own}/own"]
    traced = [s for s, t in own_passes if t]
    plain = [s for s, t in own_passes if not t]
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return m


# --- main ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    workloads = wl.build(inp.Inputs(args.inputs, args.seed), args.workdir)
    for name in wl.WORKLOADS:
        for op in workloads[name].warmup():
            op.check(op.run())
    print("READY", flush=True)
    if args.setup_only:
        return 0

    own = args.workload
    run = Run(workloads, Tracer() if args.trace else None)
    min_passes = 2 if args.trace else 1
    deadline = time.perf_counter() + args.seconds
    passes = 0
    last = 0.0
    # Start a pass only if one more of the same length ends before the deadline.
    while passes < min_passes or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        run.run_pass(own, passes, "own", traced=bool(args.trace) and passes % 2 == 1)
        last = time.perf_counter() - started
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        # Per-layer metrics cover every module on every workload.
        for name in wl.WORKLOADS:
            if name != own:
                run.run_pass(name, 10_000, "cross", traced=True)
    run.finish()
    # A traced run reports per-layer metrics only; half its passes are traced.
    slots, named = ({}, {}) if args.trace else end_to_end(run, own)

    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "own_passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "end_to_end": slots,
        "named": named,
        "pass_seconds": [s for s, _traced in run.pass_seconds[f"{own}/own"]],
    }
    if args.trace:
        result["per_layer"] = per_layer(run, own)
        if args.trace_out:
            run.tracer.dump(args.trace_out, [f"{w}/{k}/{lab}" for w, k, lab in run.op_meta])
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
