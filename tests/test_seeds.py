"""Seed derivation: SplitMix64 child seeds, Philox rekeying, seed validation."""

import numpy as np
import pytest

from episcope.seeds import check_seed, philox_generator, rekey_philox, substream_seeds

MASK64 = (1 << 64) - 1


def splitmix64_outputs(master: int, count: int) -> list[int]:
    """Reference: the first ``count`` outputs of SplitMix64 seeded at ``master``."""
    out, state = [], master
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


class TestSubstreamSeeds:
    @pytest.mark.parametrize("master", [0, 1, 2**63, 2**64 - 1])
    def test_matches_scalar_splitmix64(self, master):
        seeds = substream_seeds(master, 64)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == splitmix64_outputs(master, 64)

    def test_known_first_output(self):
        # SplitMix64 seeded at 0 starts 0xE220A8397B1DCDAF (Steele, Lea & Flood 2014).
        assert substream_seeds(0, 1).tolist() == [0xE220A8397B1DCDAF]

    def test_prefix_property(self):
        assert substream_seeds(12345, 10).tolist() == substream_seeds(12345, 1000)[:10].tolist()

    def test_numpy_master_seed(self):
        assert substream_seeds(np.uint64(7), 5).tolist() == substream_seeds(7, 5).tolist()


class TestRekeyPhilox:
    @pytest.mark.parametrize("key", [0, 1, 0xDEADBEEF, 2**64 - 1])
    def test_matches_fresh_philox(self, key):
        bitgen = np.random.Philox(key=3)
        rng = np.random.Generator(bitgen)
        # Leave a moved counter, a partly used buffer and a spare 32-bit half behind.
        rng.random(7)
        rng.integers(0, 10, size=3, dtype=np.uint32)
        assert bitgen.state["has_uint32"] == 1
        rekey_philox(bitgen, key)
        expected = np.random.Generator(np.random.Philox(key=key))
        for draw in (
            lambda g: g.integers(0, 10, size=3, dtype=np.uint32),
            lambda g: g.random(9),
            lambda g: g.integers(0, 2**32, size=5),
        ):
            assert draw(rng).tolist() == draw(expected).tolist()

    def test_matches_philox_generator(self):
        bitgen = np.random.Philox(key=0)
        rekey_philox(bitgen, 99)
        assert np.random.Generator(bitgen).random(4).tolist() == philox_generator(99).random(4).tolist()


class TestCheckSeed:
    @pytest.mark.parametrize("bad", [True, -1, 2**64, 1.0])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="master_seed"):
            check_seed(bad, "master_seed")

    @pytest.mark.parametrize("good", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int32(5)])
    def test_accepts(self, good):
        value = check_seed(good)
        assert value == int(good) and type(value) is int
