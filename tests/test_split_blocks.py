"""KT-SPLIT at the edges of its input blocks.

The split evaluates the kernel once per aligned block of 2^m input points,
against every point before the block's end, and all m levels read their
values from that block.  These cases sit where a block is cut short or a
level's pairs meet a block edge: n = 2^m (one block), 2^m + 1 (one block and
a skipped odd point), odd n, and a round count that is not a multiple of
2^(m-1) (a partial last block).
"""

import numpy as np
import pytest

import kthin.thinning
from kthin import kernels as kn
from kthin.thinning import ThinningConfig, kt_split
from test_split_oracle import oracle_split

KERNELS = {
    "gauss": kn.gauss(1.0),
    "laplace": kn.laplace(0.7),
    "perturbed": kn.identity_perturbed(kn.gauss(0.8), weight=0.25),
}


def _shapes(m):
    block = 2 ** m
    return {
        "one block": block,
        "one block and an odd point": block + 1,
        "odd": 3 * block + 5,
        "partial last block": 3 * block + 2,  # 3 2^(m-1) + 1 rounds
    }


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_block_edges_match_scalar_oracle(m, kernel):
    k = KERNELS[kernel]
    for seed, (shape, n) in enumerate(sorted(_shapes(m).items())):
        x = np.random.default_rng([m, seed]).normal(size=(n, 2))
        cfg = ThinningConfig(m=m, seed=100 * m + seed)
        got = kt_split(k, x, cfg)
        want = oracle_split(k, x, cfg)
        assert len(got) == len(want) == 2 ** m
        for a, b in zip(got, want):
            assert np.array_equal(a, b), (shape, n, m, kernel)


def _block_entries(n, m):
    """sum over blocks B of |B| (end of B): each block's points against the
    input prefix that ends with the block."""
    used = 2 * (n // 2)
    return sum(min(s0 + 2 ** m, used) * (min(s0 + 2 ** m, used) - s0)
               for s0 in range(0, used, 2 ** m))


def _counting_evaluate(monkeypatch):
    seen = {"calls": 0, "entries": 0}
    inner = kthin.thinning.evaluate

    def counting(k, x, y):
        out = inner(k, x, y)
        seen["calls"] += 1
        seen["entries"] += out.size
        return out

    monkeypatch.setattr(kthin.thinning, "evaluate", counting)
    return seen


def test_one_evaluation_per_block(monkeypatch):
    seen = _counting_evaluate(monkeypatch)
    x = np.random.default_rng(0).normal(size=(2048, 1))
    kt_split(kn.laplace(1.0), x, ThinningConfig(m=5, seed=1))
    # 64 blocks of 32 points; the levels evaluate nothing themselves
    assert seen == {"calls": 64, "entries": 2_129_920}
    assert _block_entries(2048, 5) == 2_129_920


@pytest.mark.parametrize("n, m", [(2, 1), (9, 3), (47, 2), (100, 3), (1001, 4)])
def test_evaluation_count_with_partial_blocks(monkeypatch, n, m):
    seen = _counting_evaluate(monkeypatch)
    x = np.random.default_rng(n).normal(size=(n, 2))
    kt_split(kn.gauss(1.0), x, ThinningConfig(m=m, seed=n))
    used = 2 * (n // 2)
    assert seen == {"calls": -(-used // 2 ** m), "entries": _block_entries(n, m)}
