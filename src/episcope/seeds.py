"""Deterministic seed derivation for parallel-safe substreams.

Child seed ``index`` of a master seed is the index-th output of a SplitMix64
sequence seeded at the master (Steele, Lea & Flood 2014), so any (master
seed, index) pair maps to the same substream regardless of execution order.
:func:`substream_seeds` is the only derivation: episode sampling keys each
episode's Philox substream with it, and ``montecarlo.sweep`` keys each sweep
point. XOR-folding the index into the master instead would make nearby
masters emit permutations of the same substream set, which collides under
permutation-invariant statistics.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_seed(seed: int, name: str = "seed") -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"{name} must be an integer, got {seed!r}")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def substream_seeds(master_seed: int, count: int) -> np.ndarray:
    """Child seeds for substreams 0..count-1, as a uint64 array.

    Seed i is the SplitMix64 mix of the state master_seed + (i + 1) * golden
    gamma (mod 2**64), computed for every i at once.
    """
    x = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x *= np.uint64(_GOLDEN)
        x += np.uint64(master_seed)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_MIX1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_MIX2)
        x ^= x >> np.uint64(31)
    return x


def philox_generator(key: int) -> np.random.Generator:
    """Counter-based generator keyed directly by a 64-bit value."""
    return np.random.Generator(np.random.Philox(key=int(key)))


def rekey_philox(bit_generator: np.random.Philox, key: int) -> None:
    """Reset ``bit_generator`` to the stream Philox(key=key) would produce.

    State assignment skips the costly seeding path, which matters when a
    sampler opens one substream per episode. The state setter copies plain
    int tuples word by word, so no per-call arrays are built.
    """
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
