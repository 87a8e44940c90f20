"""The sweep's pure-Python generator against numpy's ``default_rng``, bit for bit.

``capflow._pcg64.Generator`` ports numpy's SeedSequence and PCG64, so that
the seeded sweep draws numpy's stream without importing numpy; numpy is a
test dependency for this cross-check only.
"""

import random

import numpy as np
import pytest

from capflow._pcg64 import Generator

# Word and sign boundaries of the seed's 32-bit words, and seeds long
# enough to need more hash constants than are precomputed.
BOUNDARY_SEEDS = (
    2**32 - 1, 2**32, 2**40 + 7, 2**62 - 1, 2**63, 2**64 - 1, 2**64 + 3, 2**96 + 5,
    2**128 - 1, 2**200 + 1, 2**400 + 9,
)
RANDOM_SEEDS = tuple(random.Random(20261019).getrandbits(62) for _ in range(200))


def assert_same_stream(entropy, n=5):
    assert Generator(entropy).random(n) == np.random.default_rng(entropy).random(n).tolist(), entropy


@pytest.mark.parametrize("seeds", [range(300), RANDOM_SEEDS, BOUNDARY_SEEDS], ids=["small", "random", "boundary"])
def test_sweep_streams_match_default_rng(seeds):
    # The sweep seeds each shape's stream with [seed, k], k = 0 .. 5.
    for seed in seeds:
        for k in range(6):
            assert_same_stream([seed, k])


@pytest.mark.parametrize("entropy", [[], [0], [42], [2**64 + 3], [1, 2, 3, 4, 5, 6, 7, 8], [2**200 + 1, 0, 9]],
                         ids=repr)
def test_other_entropy_matches_default_rng(entropy):
    assert_same_stream(entropy)


def test_long_stream_matches_default_rng():
    ours = Generator([7, 3])
    theirs = np.random.default_rng([7, 3])
    for n in (1, 2, 3, 1000, 0, 17):
        assert ours.random(n) == theirs.random(n).tolist()


def test_draws_are_floats_in_unit_interval():
    draws = Generator([1, 0]).random(1000)
    assert all(type(u) is float and 0.0 <= u < 1.0 for u in draws)
