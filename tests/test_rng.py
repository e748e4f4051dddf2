"""Counter-addressed draws: the vectorized Philox pass against numpy's Philox."""

import numpy as np

from kthin import rng


def test_swap_uniforms_match_swap_uniform_bitwise():
    # 100 seeds x 10 counters: negative seeds, seeds >= 2^63, counters below 2^63
    gen = np.random.default_rng(2021)
    checked = 0
    for case in range(100):
        if case % 3 == 0:
            seed = int(gen.integers(-2 ** 63, 0))
        elif case % 3 == 1:
            seed = 2 ** 63 + int(gen.integers(0, 2 ** 63))
        else:
            seed = int(gen.integers(0, 2 ** 32))
        high = 2 ** 63 - 1 if case % 2 else 4096  # wide and split-sized counters
        i, j, l = (gen.integers(0, high, size=10) for _ in range(3))
        got = rng.swap_uniforms(seed, i, j, l)
        want = [rng.swap_uniform(seed, int(a), int(b), int(c)) for a, b, c in zip(i, j, l)]
        assert got.tolist() == want, case
        checked += len(want)
    assert checked >= 1000


def test_swap_uniforms_broadcast_and_scalar():
    rounds = np.arange(1, 9)[None, :]
    levels = np.array([[1], [2], [3]])
    got = rng.swap_uniforms(7, rounds, levels, 1)
    assert got.shape == (3, 8)
    assert got[2, 5] == rng.swap_uniform(7, 6, 3, 1)
    assert float(rng.swap_uniforms(7, 5, 1, 2)) == rng.swap_uniform(7, 5, 1, 2)
    assert np.all((got >= 0.0) & (got < 1.0))
