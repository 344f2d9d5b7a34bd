"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single PASS line with its measured margins (run with
``pytest tests/test_acceptance.py -v -s`` to see them). The Monte Carlo
equivalence test is the expensive one; the whole module targets a few
minutes on a laptop.
"""

import time

import numpy as np
import pytest

from episcope.blend import blend_norm_corrected, blend_raw
from episcope.episodes import (
    DatasetIndex,
    EpisodeResult,
    aggregate,
    episode_from_json,
    episode_to_json,
    prior_from_results,
    sample_episodes,
    write_episodes,
)
from episcope.fid import GaussianStats, fid, frechet_distance
from episcope.montecarlo import SimConfig, episode_counts, simulate
from episcope.planner import min_episodes_for_variance
from episcope.seeds import substream_seeds
from episcope.variance import (
    AccuracyPrior,
    EvalDesign,
    estimator_variance,
    variance_report,
)

MC_GRID_SEED = 815


def test_1_monte_carlo_matches_closed_form():
    """3x3x3 grid, 200k replications each: variance within 2%, mean within 4 SE."""
    started = time.monotonic()
    replications = 200_000
    worst_rel = 0.0
    worst_mean_sigmas = 0.0
    grid_seeds = substream_seeds(MC_GRID_SEED, 27).tolist()
    index = 0
    for a in (0.6, 0.87, 0.93):
        for sigma in (0.01, 0.028, 0.05):
            for kq in (10, 75, 2975):
                config = SimConfig(
                    prior=AccuracyPrior(a, sigma),
                    design=EvalDesign(episodes=120, queries_per_episode=kq),
                    replications=replications,
                    master_seed=grid_seeds[index],
                )
                report = simulate(config)
                assert report.rel_var_error < 0.02, (
                    f"(a={a}, sigma={sigma}, kq={kq}): "
                    f"rel_var_error={report.rel_var_error:.4f}"
                )
                mean_tol = 4.0 * np.sqrt(report.theoretical_var / replications)
                mean_dev = abs(report.empirical_mean - a)
                assert mean_dev < mean_tol, (
                    f"(a={a}, sigma={sigma}, kq={kq}): mean off by {mean_dev:.2e}"
                )
                worst_rel = max(worst_rel, report.rel_var_error)
                worst_mean_sigmas = max(worst_mean_sigmas, 4.0 * mean_dev / mean_tol)
                index += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"grid took {elapsed:.0f}s, target is under 5 minutes"
    print(
        f"ACCEPTANCE 1 PASS: 27 configs x 200k reps, worst rel var error "
        f"{worst_rel:.4f} (<0.02), worst mean deviation {worst_mean_sigmas:.2f} sigma "
        f"(<4), {elapsed:.0f}s (<300s)"
    )


def test_2_published_planning_example():
    """Baseline design evaluates to 6.62e-6; inverting brackets 118 episodes."""
    v = estimator_variance(AccuracyPrior(0.87, 0.05), EvalDesign(600, 75))
    assert v == pytest.approx(6.62e-6, abs=5e-9)
    assert v == pytest.approx(6.624444444444444e-06, rel=1e-9)

    prior = AccuracyPrior(0.93, 0.028)
    solutions = {}
    for target in (6.6e-6, 6.62e-6, 6.7e-6, 6.9e-6, 7.0e-6):
        episodes = min_episodes_for_variance(prior, 2975, target)
        assert 112 <= episodes <= 124, f"target {target}: got {episodes}"
        solutions[target] = episodes
    print(
        f"ACCEPTANCE 2 PASS: variance {v:.4e} (= 6.62e-6), episode solutions "
        f"{sorted(set(solutions.values()))} all within [112, 124]"
    )


def test_3_confidence_interval_reproduction():
    """Predicted 95% half-width ~0.51 points; t-based aggregate agrees."""
    report = variance_report(AccuracyPrior(0.93, 0.028), EvalDesign(120, 2975))
    predicted_points = 100.0 * report.ci95_halfwidth
    assert predicted_points == pytest.approx(0.51, abs=0.02)

    rng = np.random.default_rng(31255)
    u = rng.uniform(-1.0, 1.0, size=120)
    u = (u - u.mean()) / u.std(ddof=1)
    total = 10**6
    corrects = np.rint(total * (0.9313 + 0.028 * u)).astype(int)
    results = [EpisodeResult(i, int(c), total) for i, c in enumerate(corrects)]
    agg = aggregate(results)
    gap_points = 100.0 * abs(agg.ci95_halfwidth - report.ci95_halfwidth)
    assert gap_points < 0.05
    print(
        f"ACCEPTANCE 3 PASS: predicted half-width {predicted_points:.3f} pts "
        f"(0.51 ± 0.02), t-based aggregate {100 * agg.ci95_halfwidth:.3f} pts "
        f"(gap {gap_points:.3f} < 0.05)"
    )


def test_4_blend_identities():
    """1000 random triples per the norm, collinearity and endpoint contracts."""
    rng = np.random.default_rng(48151)
    dims = (2, 64, 4096)
    triples_per_dim = (334, 333, 333)
    checked = 0
    worst_norm_rel = 0.0
    worst_collinearity = 0.0
    for dim, n_triples in zip(dims, triples_per_dim):
        for _ in range(n_triples):
            z = rng.normal(size=dim) * rng.uniform(0.5, 3.0)
            n = rng.normal(size=dim) * rng.uniform(0.5, 3.0)
            alpha = rng.uniform(0.0, 1.0)

            out = blend_norm_corrected(z, n, alpha)
            target = (1 - alpha) * np.linalg.norm(z) + alpha * np.linalg.norm(n)
            norm_rel = abs(np.linalg.norm(out) - target) / target
            assert norm_rel < 1e-9

            raw = blend_raw(z, n, alpha)
            cross = np.linalg.norm(out * np.linalg.norm(raw) - raw * np.linalg.norm(out))
            collinearity = cross / (np.linalg.norm(out) * np.linalg.norm(raw))
            assert collinearity < 1e-9

            for endpoint_alpha, expected in ((0.0, z), (1.0, n)):
                endpoint = blend_norm_corrected(z, n, endpoint_alpha)
                rel = np.linalg.norm(endpoint - expected) / np.linalg.norm(expected)
                assert rel <= 1e-12

            worst_norm_rel = max(worst_norm_rel, norm_rel)
            worst_collinearity = max(worst_collinearity, collinearity)
            checked += 1
    assert checked == 1000
    print(
        f"ACCEPTANCE 4 PASS: 1000 triples at dims {dims}, worst norm error "
        f"{worst_norm_rel:.2e} (<1e-9), worst collinearity {worst_collinearity:.2e} "
        f"(<1e-9), endpoints exact"
    )


def test_5_fid_properties():
    """Self-distance, symmetry, scalar closed form, analytic Gaussian pair."""
    rng = np.random.default_rng(90210)
    x = rng.normal(size=(300, 64))
    y = rng.normal(loc=0.1, scale=1.2, size=(300, 64))

    self_distance = fid(x, x)
    assert self_distance < 1e-8
    asymmetry = abs(fid(x, y) - fid(y, x))
    assert asymmetry < 1e-8

    worst_scalar = 0.0
    for _ in range(20):
        m1, m2 = rng.normal(size=2)
        v1, v2 = rng.uniform(0.1, 4.0, size=2)
        g1 = GaussianStats(np.array([m1]), np.array([[v1]]))
        g2 = GaussianStats(np.array([m2]), np.array([[v2]]))
        expected = (m1 - m2) ** 2 + (np.sqrt(v1) - np.sqrt(v2)) ** 2
        worst_scalar = max(worst_scalar, abs(frechet_distance(g1, g2) - expected))
    assert worst_scalar < 1e-10

    big_x = rng.normal(size=(100_000, 2))
    big_y = rng.normal(scale=2.0, size=(100_000, 2))
    gaussian_pair = fid(big_x, big_y)
    assert gaussian_pair == pytest.approx(2.0, rel=0.05)
    print(
        f"ACCEPTANCE 5 PASS: fid(X,X)={self_distance:.1e} (<1e-8), asymmetry "
        f"{asymmetry:.1e} (<1e-8), scalar gap {worst_scalar:.1e} (<1e-10), "
        f"N(0,I) vs N(0,4I) = {gaussian_pair:.4f} (2.0 ± 5%)"
    )


def test_6_episode_sampler_protocol(tmp_path):
    """20x600 index, 5-way 5-shot, full remainder: 595 queries, sampled and written <1s, stable bytes."""
    index = DatasetIndex.from_mapping(
        {f"c{i:02d}": [f"c{i:02d}_e{j:03d}" for j in range(600)] for i in range(20)}
    )
    out = tmp_path / "episodes.jsonl"
    started = time.monotonic()
    episodes = sample_episodes(index, 5, 5, None, 120, master_seed=606)
    write_episodes(out, episodes)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"sampling and writing took {elapsed:.2f}s"

    for episode in episodes:
        assert len(episode.per_class) == 5
        for split in episode.per_class:
            assert len(split.query_ids) == 595
            assert not set(split.support_ids) & set(split.query_ids)

    blob1 = "\n".join(episode_to_json(e) for e in episodes).encode()
    assert out.read_bytes() == blob1 + b"\n"
    rerun = sample_episodes(index, 5, 5, None, 120, master_seed=606)
    blob2 = "\n".join(episode_to_json(e) for e in rerun).encode()
    assert blob1 == blob2
    print(
        f"ACCEPTANCE 6 PASS: 120 episodes sampled and written in {elapsed:.2f}s (<1s), "
        f"595 queries/class, no support/query overlap, reruns byte-identical ({len(blob1)} bytes)"
    )


def test_7_round_trips():
    """Planner inversion, episode serialization, prior recovery from simulation."""
    rng = np.random.default_rng(77007)
    for case in range(100):
        mean = rng.uniform(0.05, 0.95)
        std = rng.uniform(0.0, 0.9) * np.sqrt(mean * (1 - mean))
        prior = AccuracyPrior(mean, std)
        kp = int(rng.integers(1, 2000))
        kq = int(rng.integers(1, 5000))
        target = estimator_variance(prior, EvalDesign(kp, kq))
        recovered = min_episodes_for_variance(prior, kq, target)
        assert recovered == kp, f"case {case}: {recovered} != {kp}"

    index = DatasetIndex.from_mapping(
        {f"c{i}": [f"c{i}_e{j}" for j in range(30)] for i in range(10)}
    )
    for queries in (None, 7):
        for episode in sample_episodes(index, 4, 3, queries, 25, master_seed=909):
            assert episode_from_json(episode_to_json(episode)) == episode

    prior = AccuracyPrior(0.9, 0.03)
    design = EvalDesign(episodes=2000, queries_per_episode=10**6)
    counts = episode_counts(prior, design, seed=424242)
    results = [EpisodeResult(i, int(c), 10**6) for i, c in enumerate(counts)]
    recovered_prior = prior_from_results(results)

    se_mean = np.sqrt(estimator_variance(prior, design))
    se_std = prior.std / np.sqrt(2.0 * (design.episodes - 1))
    mean_gap = abs(recovered_prior.mean - prior.mean)
    std_gap = abs(recovered_prior.std - prior.std)
    assert mean_gap < 3.0 * se_mean
    assert std_gap < 3.0 * se_std
    print(
        f"ACCEPTANCE 7 PASS: 100 planner inversions exact, 50 episode round trips "
        f"field-exact, prior recovery gaps {mean_gap / se_mean:.2f} / "
        f"{std_gap / se_std:.2f} SE (<3)"
    )
