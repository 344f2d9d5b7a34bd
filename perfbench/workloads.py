"""The three workloads: operations, warm-ups and output checks.

Each workload is a fixed list of operations, every one a single call into a
public episcope function (directly, or through ``episcope.cli.main`` for the
planning workflow). ``ops(pass_index)`` returns the list for one pass; the
worker times each ``run`` and then calls its ``check``, outside the timing.

Checks compare against references the benchmark computes itself (closed
forms, ``scipy.linalg.sqrtm``, a nuclear-norm route, regenerated inputs)
wherever one exists.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import os
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy.linalg
from scipy import stats

import inputs as inp
from episcope import blend, cli, episodes, featureio, montecarlo, seeds, variance
from episcope.variance import AccuracyPrior, EvalDesign

fidmod = importlib.import_module("episcope.fid")  # the package rebinds ``episcope.fid`` to the function


class CheckError(Exception):
    """An operation returned, but its output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * abs(reference)


@dataclass
class Op:
    label: str
    module: str  # the module whose output ``check`` verifies
    run: Callable[[], Any]
    check: Callable[[Any], None]
    work: int = 0  # replications, episodes, draws ... for rate metrics


def closed_form_per_episode(a: float, sigma: float, kq: int) -> float:
    """a(1-a)/Kq + (1-1/Kq) sigma^2, written out independently of the package."""
    return a * (1.0 - a) / kq + (1.0 - 1.0 / kq) * sigma * sigma


# --- mc_validate -------------------------------------------------------------

# Acceptance test 1's gate is 2% relative variance error at 200k replications,
# about 6.3 standard errors of a sample variance. A run pools fewer
# replications, so the gate widens as 1/sqrt(replications) below 200k to keep
# the same false-alarm rate; at or above 200k it is exactly 2%.
GATE_REPS = 200_000
GATE_REL_VAR = 0.02
GATE_MEAN_SE = 4.0


class MonteCarlo:
    name = "mc_validate"
    REPS = 4096
    # (label, a, sigma, Kp, Kq): acceptance test 1's Kq values at Kp=120 for
    # two priors, one point-mass prior, and the paper's 600x75 design.
    CONFIGS = [
        ("kq10", 0.87, 0.05, 120, 10),
        ("kq10", 0.93, 0.028, 120, 10),
        ("kq75", 0.87, 0.05, 120, 75),
        ("kq75", 0.93, 0.028, 120, 75),
        ("kq2975", 0.87, 0.05, 120, 2975),
        ("kq2975", 0.93, 0.028, 120, 2975),
        ("point_mass", 0.87, 0.0, 120, 75),
        ("kp600", 0.87, 0.05, 600, 75),
    ]

    def __init__(self, data: inp.Inputs) -> None:
        self.seed = data.seed
        self.pooled: dict[int, list[tuple[float, float, int]]] = defaultdict(list)

    def _config(self, index: int, reps: int, pass_index: int) -> montecarlo.SimConfig:
        _, a, sigma, kp, kq = self.CONFIGS[index]
        master = int(np.random.default_rng([self.seed, 6, pass_index, index]).integers(0, 2**63))
        return montecarlo.SimConfig(AccuracyPrior(a, sigma), EvalDesign(kp, kq), reps, master)

    def ops(self, pass_index: int) -> list[Op]:
        out = []
        for i, (label, *_rest) in enumerate(self.CONFIGS):
            config = self._config(i, self.REPS, pass_index)
            out.append(Op(label, "montecarlo", _simulate(config), partial(self._check, i, config), self.REPS))
        return out

    def warmup(self) -> list[Op]:
        return [
            Op("warmup", "montecarlo", _simulate(self._config(i, 64, 999_999)), _no_check)
            for i in (0, 6)
        ]

    def _check(self, index: int, config: montecarlo.SimConfig, report) -> None:
        _, a, sigma, kp, kq = self.CONFIGS[index]
        require(report.replications == config.replications, "replication count changed")
        require(
            math.isfinite(report.empirical_mean) and math.isfinite(report.empirical_var),
            "non-finite moments",
        )
        expected = closed_form_per_episode(a, sigma, kq) / kp
        require(close(report.theoretical_var, expected, 1e-12), "theoretical_var is not the closed form")
        self.pooled[index].append((report.empirical_mean, report.empirical_var, report.replications))

    def finish(self) -> list[tuple[str, int, str]]:
        """Acceptance test 1's gates over every replication the run pooled.

        Returns (module, calls failed, message) per configuration that misses a gate.
        """
        failures = []
        for index, calls in sorted(self.pooled.items()):
            label, a, sigma, kp, kq = self.CONFIGS[index]
            n = sum(r for _, _, r in calls)
            mean = sum(m * r for m, _, r in calls) / n
            ss = sum((r - 1) * v + r * (m - mean) ** 2 for m, v, r in calls)
            var = ss / (n - 1)
            theory = closed_form_per_episode(a, sigma, kq) / kp
            rel = abs(var / theory - 1.0)
            tol = GATE_REL_VAR * max(1.0, math.sqrt(GATE_REPS / n))
            mean_dev = abs(mean - a)
            mean_tol = GATE_MEAN_SE * math.sqrt(theory / n)
            if rel >= tol or mean_dev >= mean_tol:
                failures.append(
                    ("montecarlo", len(calls), f"simulate {label} a={a} sigma={sigma}: rel_var_error "
                     f"{rel:.4f} (gate {tol:.4f}), mean off {mean_dev:.2e} (gate {mean_tol:.2e}) "
                     f"over {n} replications")
                )
        return failures


def _simulate(config):
    return lambda: montecarlo.simulate(config)


def _no_check(_out) -> None:
    return None


# --- plan_protocol -----------------------------------------------------------

PRIOR = (0.87, 0.05)
TARGET_VAR = 6.62e-6  # the variance of the paper's 600x75 reference design
COST_EPISODE, COST_QUERY = 100.0, 1.0
TABLE_KP = list(range(100, 1001, 100))
TABLE_KQ = list(range(5, 101, 5))
DECOMPOSE_REPS = 256
DECOMPOSE_REL_TOL = 0.05  # ~10 standard errors at 256 x 600 draws


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(label: str, module: str, argv: list[str], check, work: int = 0) -> Op:
    return Op(label, module, lambda: run_cli(argv), partial(_check_cli, check, argv), work)


def _check_cli(check, argv, result) -> None:
    code, out, err = result
    require(code == 0, f"episcope {' '.join(argv[:2])} exited {code}: {err.strip()[:200]}")
    check(out)


class PlanProtocol:
    name = "plan_protocol"

    def __init__(self, data: inp.Inputs, workdir: Path) -> None:
        self.data = data
        self.workdir = workdir
        self.digests: dict[str, str] = {}
        self.last_cost: float | None = None
        self.index_sets = {name: set(ids) for name, ids in inp.index_mapping(data.seed).items()}
        rows = inp.results_rows(data.seed)
        acc = np.array([c / t for _, c, t in rows])
        std = float(np.std(acc, ddof=1))
        ci = float(stats.t.ppf(0.975, len(acc) - 1)) * std / math.sqrt(len(acc))
        self.aggregate_ref = {
            "episodes": len(acc), "mean_acc": float(np.mean(acc)), "std_acc": std,
            "ci95_halfwidth": ci, "prior_mean": float(np.mean(acc)), "prior_std": std,
        }

    def _prior_flags(self) -> list[str]:
        return ["--a", str(PRIOR[0]), "--sigma", str(PRIOR[1])]

    def _cost(self, label: str, kq_max: int) -> Op:
        argv = ["plan", "cost", *self._prior_flags(), "--cost-episode", str(COST_EPISODE),
                "--cost-query", str(COST_QUERY), "--target-var", str(TARGET_VAR),
                "--kq-max", str(kq_max)]
        return _cli_op(label, "planner", argv, partial(self._check_cost, kq_max))

    def _sample(self, label: str, queries: str, count: int, stream: int, suffix: str = "") -> Op:
        path = self.workdir / f"{label}{suffix}.jsonl"
        argv = ["episodes", "sample", "--index", str(self.data.index), "--ways", "5",
                "--shots", "1", "--queries", queries, "--count", str(count),
                "--seed", str(self.data.op_seed(stream)), "--out", str(path)]
        check = partial(self._check_sample, label + suffix, path, queries, count)
        return _cli_op(label, "episodes", argv, check, count)

    def ops(self, pass_index: int) -> list[Op]:
        table = self.workdir / "table.csv"
        return [
            _cli_op("plan_episodes", "planner",
                    ["plan", "episodes", *self._prior_flags(), "--kq", "75",
                     "--target-var", str(TARGET_VAR)], self._check_episodes),
            self._cost("plan_cost_2975", 2975),
            self._cost("plan_cost_1e6", 1_000_000),
            _cli_op("plan_table", "planner",
                    ["plan", "table", *self._prior_flags(),
                     "--kp-list", ",".join(map(str, TABLE_KP)),
                     "--kq-list", ",".join(map(str, TABLE_KQ)), "--out", str(table)],
                    partial(self._check_table, table, TABLE_KP, TABLE_KQ)),
            self._sample("sample_all", "all", 600, 1),
            self._sample("sample_q15", "15", 10_000, 2),
            _cli_op("aggregate", "episodes",
                    ["episodes", "aggregate", "--results", str(self.data.results), "--prior"],
                    self._check_aggregate),
            self._decompose(DECOMPOSE_REPS),
        ]

    def warmup(self) -> list[Op]:
        table = self.workdir / "table_warmup.csv"
        return [
            _cli_op("warmup", "planner", ["plan", "episodes", *self._prior_flags(), "--kq", "75",
                                          "--target-var", str(TARGET_VAR)], _no_check),
            _cli_op("warmup", "planner", ["plan", "cost", *self._prior_flags(), "--cost-episode", "1",
                                          "--cost-query", "1", "--target-var", "1e-3",
                                          "--kq-max", "100"], _no_check),
            _cli_op("warmup", "planner", ["plan", "table", *self._prior_flags(), "--kp-list", "10,20",
                                          "--kq-list", "5", "--out", str(table)], _no_check),
            self._sample("warmup", "all", 5, 1, "_all"),
            self._sample("warmup", "15", 5, 2, "_q15"),
            _cli_op("warmup", "episodes", ["episodes", "aggregate", "--results",
                                           str(self.data.results), "--prior"], _no_check),
            self._decompose(4),
        ]

    def _decompose(self, reps: int) -> Op:
        a, sigma = PRIOR
        config = montecarlo.SimConfig(AccuracyPrior(a, sigma), EvalDesign(600, 75), reps,
                                      self.data.op_seed(3))
        check = self._check_decompose if reps == DECOMPOSE_REPS else _no_check
        return Op("decompose" if reps == DECOMPOSE_REPS else "warmup", "montecarlo",
                  lambda: montecarlo.decompose_variance(config), check, reps)

    # -- checks --

    def _check_episodes(self, out: str) -> None:
        kp = int(out.strip())
        v1 = closed_form_per_episode(*PRIOR, 75)
        require(v1 / kp <= TARGET_VAR, f"plan episodes: {kp} episodes miss the target")
        require(kp == 1 or v1 / (kp - 1) > TARGET_VAR, f"plan episodes: {kp - 1} episodes suffice")

    def _check_cost(self, kq_max: int, out: str) -> None:
        result = json.loads(out)
        kp, kq = result["episodes"], result["queries_per_episode"]
        prior = AccuracyPrior(*PRIOR)
        require(1 <= kq <= kq_max, f"plan cost: Kq={kq} outside [1, {kq_max}]")
        var = variance.estimator_variance(prior, EvalDesign(kp, kq))
        require(var <= TARGET_VAR, f"plan cost: ({kp}, {kq}) misses the target")
        if kp > 1:
            fewer = variance.estimator_variance(prior, EvalDesign(kp - 1, kq))
            require(fewer > TARGET_VAR, f"plan cost: ({kp - 1}, {kq}) also meets the target")
        cost = kp * COST_EPISODE + kp * kq * COST_QUERY
        require(close(result["total_cost"], cost, 1e-12), "plan cost: total_cost is wrong")
        if kq_max > 2975 and self.last_cost is not None:
            require(cost <= self.last_cost, "plan cost: a larger Kq range gave a dearer design")
        self.last_cost = cost if kq_max == 2975 else None

    def _check_table(self, path: Path, kps: list[int], kqs: list[int], _out: str) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        require(lines[0] == "kp,kq,exact_var,approx_var,asymptote_var,ci95", "plan table: header")
        rows = [line.split(",") for line in lines[1:]]
        require(len(rows) == len(kps) * len(kqs), f"plan table: {len(rows)} rows")
        a, sigma = PRIOR
        for row, (kp, kq) in zip(rows, [(p, q) for p in kps for q in kqs]):
            exact = closed_form_per_episode(a, sigma, kq) / kp
            expected = [exact, (a * (1 - a) / kq + sigma**2) / kp, sigma**2 / kp,
                        1.96 * math.sqrt(exact)]
            require(int(row[0]) == kp and int(row[1]) == kq, "plan table: grid order")
            for got, want in zip(row[2:], expected):
                require(close(float(got), want, 1e-9), f"plan table: ({kp}, {kq}) {got} != {want}")

    def _check_sample(self, key: str, path: Path, queries: str, count: int, _out: str) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if key in self.digests:
            # The same bytes were fully validated on an earlier pass.
            require(digest == self.digests[key], f"{key}: JSONL bytes changed for the same seed")
            return
        specs = episodes.read_episodes(path)  # rebuilding each EpisodeSpec validates it
        require(len(specs) == count, f"{key}: {len(specs)} episodes, expected {count}")
        n_queries = inp.INDEX_EXAMPLES - 1 if queries == "all" else int(queries)
        for e, spec in enumerate(specs):
            require(spec.episode_id == e and spec.ways == 5 and spec.shots == 1,
                    f"{key}: episode {e} header")
            names = [split.class_name for split in spec.per_class]
            require(len(set(names)) == 5, f"{key}: episode {e} repeats a class")
            for split in spec.per_class:
                members = self.index_sets[split.class_name]
                require(len(split.query_ids) == n_queries, f"{key}: episode {e} query count")
                require(len(set(split.query_ids)) == n_queries, f"{key}: episode {e} duplicate query")
                require(members.issuperset(split.support_ids) and members.issuperset(split.query_ids),
                        f"{key}: episode {e} uses an example outside its class")
        self.digests[key] = digest

    def _check_aggregate(self, out: str) -> None:
        got = {}
        for line in out.splitlines():
            key, _, value = line.partition(" ")
            if key in self.aggregate_ref:
                got[key] = float(value)
        require(set(got) == set(self.aggregate_ref), f"aggregate: fields {sorted(got)}")
        for key, want in self.aggregate_ref.items():
            require(close(got[key], want, 1e-8), f"aggregate: {key} {got[key]} != {want}")

    def _check_decompose(self, report) -> None:
        require(report.replications == DECOMPOSE_REPS, "decompose: replication count")
        require(close(report.between_measured, report.between_expected, DECOMPOSE_REL_TOL),
                f"decompose: between {report.between_measured:.4g} vs {report.between_expected:.4g}")
        require(close(report.within_measured, report.within_expected, DECOMPOSE_REL_TOL),
                f"decompose: within {report.within_measured:.4g} vs {report.within_expected:.4g}")

    def finish(self) -> list[tuple[str, int, str]]:
        return []


# --- features ----------------------------------------------------------------

FID_REL_TOL = 1e-6
SELF_DISTANCE_TOL = 1e-8
BLEND_ALPHA = 0.3
BLEND_DRAWS = 200


def sqrtm_fid(a: np.ndarray, b: np.ndarray) -> float:
    """Reference FID through scipy.linalg.sqrtm of S1 S2."""
    diff = a.mean(axis=0) - b.mean(axis=0)
    s1, s2 = np.cov(a, rowvar=False), np.cov(b, rowvar=False)
    root = np.real(scipy.linalg.sqrtm(s1 @ s2))
    return float(diff @ diff + np.trace(s1) + np.trace(s2) - 2.0 * np.trace(root))


def nuclear_fid(a: np.ndarray, b: np.ndarray) -> float:
    """Reference FID for n < d: Tr sqrt(S1^1/2 S2 S1^1/2) = ||B A^T||_* (nuclear norm).

    A and B are the centred samples scaled by 1/sqrt(n-1), so S1 = A^T A and
    S2 = B^T B; sqrtm of the singular d x d product is avoided altogether.
    """
    ca = (a - a.mean(axis=0)) / math.sqrt(a.shape[0] - 1)
    cb = (b - b.mean(axis=0)) / math.sqrt(b.shape[0] - 1)
    diff = a.mean(axis=0) - b.mean(axis=0)
    nuclear = float(np.linalg.svd(cb @ ca.T, compute_uv=False).sum())
    return float(diff @ diff + np.sum(ca * ca) + np.sum(cb * cb) - 2.0 * nuclear)


class Features:
    name = "features"

    def __init__(self, data: inp.Inputs) -> None:
        self.data = data
        self.loaded: dict[Path, np.ndarray] = {}
        self.load_digests: dict[Path, str] = {}
        self.fid_refs: dict[tuple[str, int], float] = {}
        self.latents = [row for row in featureio.load_features(data.latents)]
        self.blend_seed = data.op_seed(4)
        self.blend_ref: list[tuple[int, float]] | None = None

    def _load(self, path: Path, regenerate: Callable[[], np.ndarray]) -> Op:
        label = "load_csv" if path.suffix == ".csv" else "load_fsfe"

        def run():
            x = featureio.load_features(path)
            self.loaded[path] = x
            return x

        return Op(label, "featureio", run, partial(self._check_load, path, regenerate),
                  os.path.getsize(path))

    def _fid(self, label: str, pa: Path, pb: Path, key: tuple[str, int], reference) -> Op:
        def run():
            return fidmod.fid(self.loaded.pop(pa), self.loaded.pop(pb))

        return Op(label, "fid", run, partial(self._check_fid, key, pa, pb, reference), 1)

    def ops(self, pass_index: int) -> list[Op]:
        seed, data = self.data.seed, self.data
        out = []
        for pair in range(inp.FID64_PAIRS):
            pa, pb = data.fid64(pair, 0), data.fid64(pair, 1)
            out.append(self._load(pa, partial(inp.fid64_matrix, seed, pair, 0)))
            out.append(self._load(pb, partial(inp.fid64_matrix, seed, pair, 1)))
            out.append(self._fid("fid64", pa, pb, ("d64", pair), sqrtm_fid))
        for pair in range(inp.FID_WIDE_PAIRS):
            pa, pb = data.fid_wide(pair, 0), data.fid_wide(pair, 1)
            out.append(self._load(pa, partial(inp.fid_wide_matrix, seed, pair, 0)))
            out.append(self._load(pb, partial(inp.fid_wide_matrix, seed, pair, 1)))
            out.append(self._fid("fidwide", pa, pb, ("wide", pair), nuclear_fid))
        out.append(
            Op("blend", "blend",
               lambda: blend.sample_blend_batch(self.latents, BLEND_ALPHA, self.blend_seed, BLEND_DRAWS),
               self._check_blend, BLEND_DRAWS)
        )
        return out

    def warmup(self) -> list[Op]:
        data = self.data
        a64 = featureio.load_features(data.fid64(1, 0))
        wide = featureio.load_features(data.fid_wide(0, 0))
        return [
            Op("warmup", "featureio", lambda: featureio.load_features(data.fid64(0, 0)), _no_check),
            Op("warmup", "featureio", lambda: featureio.load_features(data.fid64(1, 1)), _no_check),
            Op("warmup", "fid", lambda: fidmod.fid(a64, a64[::-1] * 1.1), _no_check),
            Op("warmup", "fid", lambda: fidmod.fid(wide[:50, :128], wide[50:100, :128]), _no_check),
            Op("warmup", "blend",
               lambda: blend.sample_blend_batch(self.latents, BLEND_ALPHA, self.blend_seed, 1), _no_check),
        ]

    def _check_load(self, path: Path, regenerate, x: np.ndarray) -> None:
        digest = hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()
        if path in self.load_digests:
            require(digest == self.load_digests[path], f"{path.name}: loaded values changed")
            return
        expected = inp.as_stored(path, regenerate())
        require(x.shape == expected.shape and np.array_equal(x, expected),
                f"{path.name}: loaded values differ from the written ones")
        self.load_digests[path] = digest

    def _check_fid(self, key, pa: Path, pb: Path, reference, value: float) -> None:
        if key not in self.fid_refs:
            a = inp.as_stored(pa, _regen(self.data.seed, key, 0))
            b = inp.as_stored(pb, _regen(self.data.seed, key, 1))
            if key[0] == "d64":
                self_distance = fidmod.fid(a, a)
                require(self_distance < SELF_DISTANCE_TOL, f"fid(x, x) = {self_distance:.3g}")
            self.fid_refs[key] = reference(a, b)
        ref = self.fid_refs[key]
        require(close(value, ref, FID_REL_TOL), f"fid {key}: {value!r} vs reference {ref!r}")

    def _check_blend(self, draws) -> None:
        if self.blend_ref is None:
            # The documented stream: one Philox generator keyed by the seed,
            # drawing the latent index and then the noise vector per draw.
            rng = seeds.philox_generator(self.blend_seed)
            norms = [float(np.linalg.norm(z)) for z in self.latents]
            ref = []
            for _ in range(BLEND_DRAWS):
                k = int(rng.integers(0, len(self.latents)))
                noise = rng.standard_normal(inp.BLEND_DIM)
                ref.append((k, (1 - BLEND_ALPHA) * norms[k] + BLEND_ALPHA * float(np.linalg.norm(noise))))
            self.blend_ref = ref
        require(len(draws) == BLEND_DRAWS, f"blend: {len(draws)} draws")
        for (k, vec), (k_ref, norm_ref) in zip(draws, self.blend_ref):
            require(k == k_ref, "blend: chosen latent differs from the seeded stream")
            require(close(float(np.linalg.norm(vec)), norm_ref, 1e-10),
                    "blend: output norm is not the interpolated norm")

    def finish(self) -> list[tuple[str, int, str]]:
        return []


def _regen(seed: int, key: tuple[str, int], side: int) -> np.ndarray:
    kind, pair = key
    make = inp.fid64_matrix if kind == "d64" else inp.fid_wide_matrix
    return make(seed, pair, side)


WORKLOADS = ("mc_validate", "plan_protocol", "features")


def build(data: inp.Inputs, workdir: Path) -> dict[str, Any]:
    return {
        "mc_validate": MonteCarlo(data),
        "plan_protocol": PlanProtocol(data, workdir),
        "features": Features(data),
    }
