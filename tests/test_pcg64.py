"""The verify suites' generator against numpy's ``default_rng``, its reference."""

import random

import numpy as np
import pytest

from antago._pcg64 import PCG64

# Word-count edges of the seed (one to seven 32-bit words, 2**70 being the
# largest seed the drawn-argv CLI test draws) and 300 drawn seeds of up to
# 150 bits.
_draw = random.Random(21)
SEEDS = [0, 1, 2, 7, 12, 13, 2**32 - 1, 2**32, 2**64 + 5, 2**70, 2**128 + 3, 2**200 + 17,
         *(_draw.getrandbits(_draw.randint(1, 150)) for _ in range(300))]
RANGES = ((0.0, 1.0), (-0.1, 0.1), (-5e4, 5e4), (1.0, 20.0))


def test_scalar_draws_equal_numpy():
    for seed in SEEDS:
        ours, numpys = PCG64(seed), np.random.default_rng(seed)
        for _ in range(5):
            for low, high in RANGES:
                assert ours.uniform(low, high) == numpys.uniform(low, high), seed


def test_draw_sequence_equals_numpy_size_draw():
    for seed in SEEDS:
        ours = PCG64(seed)
        drawn = [ours.uniform(-3e-3, 2.5e-3) for _ in range(20)]
        assert drawn == np.random.default_rng(seed).uniform(-3e-3, 2.5e-3, size=20).tolist()


@pytest.mark.parametrize("seed", [-1, -2])
def test_negative_seed_raises_numpy_error(seed):
    with pytest.raises(ValueError) as numpys:
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match=f"^{numpys.value}$"):
        PCG64(seed)
