"""Seeded inputs for the benchmark workloads, written with numpy only.

The program under test never generates its own inputs: the parent process
writes every file here before any measured process starts, and the worker
regenerates the same arrays from the same seed when it checks what it loaded.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Paper-size FID: 300 samples of 64-d pooled features per side.
FID64_PAIRS = 100
FID64_SHAPE = (300, 64)
# Every CSV_EVERY-th 64-d pair is stored as CSV, the rest as FSFE, so both
# loaders run without CSV parsing dominating the workload.
CSV_EVERY = 10
# Wide pairs have fewer samples than dimensions (n < d), where the two d x d
# eigendecompositions dominate.
FID_WIDE_PAIRS = 2
FID_WIDE_SHAPE = (500, 1024)
# Blend inputs: latents at d = 4096.
BLEND_LATENTS = 8
BLEND_DIM = 4096
# miniImageNet test-split shape.
INDEX_CLASSES = 20
INDEX_EXAMPLES = 600
RESULTS_EPISODES = 600
RESULTS_QUERIES = 75


@dataclass(frozen=True)
class Inputs:
    """Paths of the generated files plus the seeds the operations use."""

    root: Path
    seed: int

    @property
    def index(self) -> Path:
        return self.root / "index.json"

    @property
    def results(self) -> Path:
        return self.root / "results.csv"

    def fid64(self, pair: int, side: int) -> Path:
        ext = "csv" if pair % CSV_EVERY == 0 else "fsfe"
        return self.root / f"fid64_{pair:03d}_{side}.{ext}"

    def fid_wide(self, pair: int, side: int) -> Path:
        return self.root / f"fidwide_{pair}_{side}.fsfe"

    @property
    def latents(self) -> Path:
        return self.root / "latents.fsfe"

    def op_seed(self, stream: int) -> int:
        """A 63-bit seed for one consumer of randomness inside the program."""
        return int(np.random.default_rng([self.seed, 1000 + stream]).integers(0, 2**63))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def fid64_matrix(seed: int, pair: int, side: int) -> np.ndarray:
    """Side 1 is shifted and rescaled so each pair has a non-trivial distance."""
    rng = _rng(seed, 1, pair, side)
    if side == 0:
        return rng.standard_normal(FID64_SHAPE)
    return rng.normal(0.1, 1.2, FID64_SHAPE)


def fid_wide_matrix(seed: int, pair: int, side: int) -> np.ndarray:
    rng = _rng(seed, 2, pair, side)
    if side == 0:
        return rng.standard_normal(FID_WIDE_SHAPE)
    return rng.normal(0.05, 1.1, FID_WIDE_SHAPE)


def latents_matrix(seed: int) -> np.ndarray:
    return _rng(seed, 3).standard_normal((BLEND_LATENTS, BLEND_DIM))


def as_stored(path: Path, matrix: np.ndarray) -> np.ndarray:
    """The values a loader should return: FSFE keeps float32 precision."""
    if path.suffix == ".fsfe":
        return matrix.astype("<f4").astype(np.float64)
    return matrix


def write_fsfe(path: Path, matrix: np.ndarray) -> None:
    n, d = matrix.shape
    with open(path, "wb") as fh:
        fh.write(b"FSFE" + struct.pack("<II", n, d))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def write_matrix(path: Path, matrix: np.ndarray) -> None:
    if path.suffix == ".fsfe":
        write_fsfe(path, matrix)
    else:
        np.savetxt(path, matrix, delimiter=",", fmt="%.17g")


def index_mapping(seed: int) -> dict[str, list[str]]:
    """20 classes x 600 examples with seeded, fixed-width example IDs."""
    rng = _rng(seed, 4)
    mapping = {}
    for c in range(INDEX_CLASSES):
        ids = rng.choice(10**8, size=INDEX_EXAMPLES, replace=False)
        mapping[f"n{c:02d}"] = [f"n{c:02d}_{int(i):08d}" for i in ids]
    return mapping


def results_rows(seed: int) -> list[tuple[int, int, int]]:
    """Per-episode (id, correct, total) drawn from the paper's (0.87, 0.05) prior."""
    rng = _rng(seed, 5)
    mean, std = 0.87, 0.05
    nu = mean * (1 - mean) / std**2 - 1
    acc = rng.beta(mean * nu, (1 - mean) * nu, size=RESULTS_EPISODES)
    correct = rng.binomial(RESULTS_QUERIES, acc)
    return [(e, int(c), RESULTS_QUERIES) for e, c in enumerate(correct)]


def generate(root: Path, seed: int) -> Inputs:
    """Write every workload's input files under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(root, seed)
    with open(inputs.index, "w", encoding="utf-8") as fh:
        json.dump(index_mapping(seed), fh)
    with open(inputs.results, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode_id", "correct", "total"])
        writer.writerows(results_rows(seed))
    for pair in range(FID64_PAIRS):
        for side in (0, 1):
            write_matrix(inputs.fid64(pair, side), fid64_matrix(seed, pair, side))
    for pair in range(FID_WIDE_PAIRS):
        for side in (0, 1):
            write_fsfe(inputs.fid_wide(pair, side), fid_wide_matrix(seed, pair, side))
    write_fsfe(inputs.latents, latents_matrix(seed))
    return inputs
