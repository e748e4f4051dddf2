"""Counter-addressed draws: the split's per-level grid against numpy's Philox."""

import numpy as np
import pytest

from kthin import rng

# negative seeds, seeds >= 2^63 (one >= 2^64, which wraps) and small seeds
SEEDS = [-1, -(2 ** 63), -987654321, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5, 0, 7, 2021]


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("level", range(1, 9), ids=lambda j: f"level{j}")
def test_swap_uniforms_grid_matches_swap_uniform_bitwise(seed, level):
    slots = 2 ** (level - 1)
    for count in (1, 13, 64):
        got = rng.swap_uniforms(seed, level, count)
        assert got.shape == (count, slots) and got.dtype == np.float64
        want = [[rng.swap_uniform(seed, t * slots, level, l) for l in range(1, slots + 1)]
                for t in range(1, count + 1)]
        assert got.tolist() == want, count


def test_swap_uniforms_grid_is_a_prefix_in_count():
    # the first rows do not depend on how many rows are drawn
    full = rng.swap_uniforms(11, 4, 40)
    assert np.array_equal(rng.swap_uniforms(11, 4, 17), full[:17])
    assert np.all((full >= 0.0) & (full < 1.0))
    assert len(np.unique(full)) == full.size
