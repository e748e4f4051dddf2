"""The split's row sums against the row-mean pass they replace.

When the split kernel is the target kernel up to scale, the split's blocks
already cover the lower triangle of the target's Gram matrix, so
`generalized_kt` (and `target_kt` through it) hands their row sums to
`kt_swap` instead of calling `kernel_row_means`.  The row means agree with
the tiled pass up to summation order, and the coresets agree with the
unfused path except where rounding decides an exact tie.
"""

import numpy as np
import pytest

import kthin.thinning
from kthin import kernels as kn
from kthin.discrepancy import SwapCache, kernel_row_means
from kthin.targets import MogTarget
from kthin.thinning import ThinningConfig, generalized_kt, kt_split, kt_swap, power_kt, target_kt

KERNELS = {
    "gauss": kn.gauss(1.3),
    "laplace": kn.laplace(0.8),
    "matern": kn.matern(2.5, 1.1),
    "imq": kn.imq(0.7, 1.2),
    "sinc": kn.sinc(2.0),
    "bspline": kn.bspline(1, 1.0),
    "sum": kn.kernel_sum(kn.gauss(1.0), kn.laplace(2.0, scale=0.5)),
}


def _captured_row_mean(monkeypatch, k_split, k_target, x, cfg):
    """The row_mean that generalized_kt passes to kt_swap."""
    seen = {}
    inner = kthin.thinning.kt_swap

    def capturing(k, points, candidates, cfg, row_mean=None):
        seen["row_mean"] = row_mean
        return inner(k, points, candidates, cfg, row_mean=row_mean)

    monkeypatch.setattr(kthin.thinning, "kt_swap", capturing)
    generalized_kt(k_split, k_target, x, cfg)
    monkeypatch.undo()
    return seen["row_mean"]


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_fused_row_means_match_row_mean_pass(monkeypatch, name):
    # the target itself, a scaled target and an identity-perturbed split of
    # the same base; n odd and even; m = 1..6
    k = KERNELS[name]
    rng = np.random.default_rng(sorted(KERNELS).index(name))
    for m in range(1, 7):
        n = 2 ** m * int(rng.integers(2, 9)) + m % 2
        x = rng.normal(size=(n, 1 + m % 3))
        cfg = ThinningConfig(m=m, seed=m)
        for k_split, k_target in ((k, k), (k, k.scaled(3)),
                                  (kn.IdentityPerturbedKernel(k, 0.5), k.scaled(3))):
            got = _captured_row_mean(monkeypatch, k_split, k_target, x, cfg)
            want = kernel_row_means(k_target, x)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_other_split_kernels_keep_the_row_mean_pass(monkeypatch):
    x = np.random.default_rng(3).normal(size=(65, 2))
    cfg = ThinningConfig(m=2, seed=3)
    for k_split in (kn.gauss(2.0), kn.laplace(1.3),
                    kn.IdentityPerturbedKernel(kn.gauss(2.0))):
        assert _captured_row_mean(monkeypatch, k_split, kn.gauss(1.3), x, cfg) is None


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_target_kt_matches_unfused_path(name):
    # continuous input; m = 1 only on odd n, where the two halves are not
    # equal-MMD candidates whose order rounding decides
    k = KERNELS[name]
    rng = np.random.default_rng(10 + sorted(KERNELS).index(name))
    for m in range(1, 5):
        n = 2 ** m * int(rng.integers(4, 20)) + (1 if m == 1 else int(rng.integers(0, 2)))
        x = rng.normal(size=(n, int(rng.integers(1, 4)))) * 1.5
        cfg = ThinningConfig(m=m, seed=int(rng.integers(0, 2 ** 32)))
        fused = target_kt(k, x, cfg)
        unfused = kt_swap(k, x, kt_split(k, x, cfg), cfg)
        assert np.array_equal(fused.indices, unfused.indices), (name, n, m)
        assert fused.provenance["candidate"] == unfused.provenance["candidate"]


def test_row_mean_pass_runs_only_without_a_matching_split(monkeypatch):
    calls = []
    inner = kthin.thinning.kernel_row_means

    def counting(k, points):
        calls.append(k)
        return inner(k, points)

    monkeypatch.setattr(kthin.thinning, "kernel_row_means", counting)
    k = kn.gauss(1.5)
    x = np.random.default_rng(4).normal(size=(129, 2))
    cfg = ThinningConfig(m=3, seed=4)
    target_kt(k, x, cfg)
    generalized_kt(k, k.scaled(2.5), x, cfg)
    assert calls == []
    power_kt(k, x, cfg, 0.5)
    assert calls == [k]


@pytest.mark.parametrize("bad", [np.full(64, np.nan), np.full(64, np.inf), np.ones(63),
                                 np.ones(65), np.ones((64, 1))])
def test_a_malformed_row_mean_is_rejected(bad):
    # a NaN row mean once selected 16 copies of index 0 with every
    # selection MMD 0.0, and a wrong length failed deep inside numpy
    x = MogTarget(4).sample(64, 0)
    k = kn.gauss(2.0)
    cfg = ThinningConfig(m=2, seed=0)
    candidates = kt_split(k, x, cfg)
    with pytest.raises(ValueError, match="row_mean must be a finite array of shape"):
        kt_swap(k, x, candidates, cfg, row_mean=bad)
    with pytest.raises(ValueError, match="row_mean must be a finite array of shape"):
        SwapCache(k, x, candidates[0], row_mean=bad)
