#!/usr/bin/env python3
"""Quantify the norm shrinkage of plain latent/noise blending.

For Gaussian-like vectors, the convex blend 's norm dips well below both
inputs around the midpoint; the corrected blend holds the interpolated norm.
Prints a CSV (alpha, raw_norm, corrected_norm, target_norm) averaged over
several draws at a diffusion-scale dimensionality.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from episcope.blend import blend_norm_corrected, blend_raw
from episcope.cli import _positive_int, _seed_int


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=_positive_int, default=4096)
    parser.add_argument("--draws", type=_positive_int, default=20)
    parser.add_argument("--seed", type=_seed_int, default=7)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    print("alpha,raw_norm,corrected_norm,target_norm")
    for alpha in np.linspace(0.0, 1.0, 11):
        raw_norms, corrected_norms, targets = [], [], []
        for _ in range(args.draws):
            z = rng.normal(size=args.dim)
            n = rng.normal(size=args.dim)
            raw_norms.append(np.linalg.norm(blend_raw(z, n, alpha)))
            corrected_norms.append(np.linalg.norm(blend_norm_corrected(z, n, alpha)))
            targets.append(
                (1 - alpha) * np.linalg.norm(z) + alpha * np.linalg.norm(n)
            )
        print(
            f"{alpha:.1f},{np.mean(raw_norms):.2f},"
            f"{np.mean(corrected_norms):.2f},{np.mean(targets):.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
