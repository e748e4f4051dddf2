"""The split's row sums against the row-mean pass they replace, and the
input's `Reference` as the one way row means reach the swap stage.

When the split kernel is the target kernel up to scale, the split's blocks
already cover the lower triangle of the target's Gram matrix, so
`generalized_kt` (and `target_kt` through it) hands `kt_swap` a `Reference`
built from their row sums instead of calling `kernel_row_means`.  The row
means agree with the tiled pass up to summation order, and the coresets
agree with the unfused path except where rounding decides an exact tie.
Any other split takes the caller's `Reference`, which the harness builds
once per study cell, else one pass in `kt_swap`.
"""

import numpy as np
import pytest

import kthin.discrepancy
import kthin.thinning
from kthin import kernels as kn
from kthin.discrepancy import Reference, SwapCache, kernel_row_means
from kthin.harness import ExperimentPlan, run_experiment
from kthin.targets import MogTarget
from kthin.thinning import (ThinningConfig, Variant, generalized_kt, kt_split, kt_swap, power_kt,
                            target_kt, thin)

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
    """The row means of the reference that generalized_kt passes to
    kt_swap, or None for none."""
    seen = {}
    inner = kthin.thinning.kt_swap

    def capturing(k, points, candidates, cfg, reference=None):
        seen["reference"] = reference
        return inner(k, points, candidates, cfg, reference)

    monkeypatch.setattr(kthin.thinning, "kt_swap", capturing)
    generalized_kt(k_split, k_target, x, cfg)
    monkeypatch.undo()
    return None if seen["reference"] is None else seen["reference"].row_mean


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
    k_target = kn.gauss(1.3)
    for k_split in (kn.gauss(2.0), kn.laplace(1.3),
                    kn.IdentityPerturbedKernel(kn.gauss(2.0))):
        assert _captured_row_mean(monkeypatch, k_split, k_target, x, cfg) is None
        # the split itself returns no row means, and the same candidates
        candidates, reference = kthin.thinning._split(k_split, x, cfg, k_target)
        assert reference is None
        want = kt_split(k_split, x, cfg)
        assert len(candidates) == len(want)
        assert all(np.array_equal(c, w) for c, w in zip(candidates, want))


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
    # selection MMD 0.0, and a wrong length failed deep inside numpy; row
    # means reach the swap stage only through a Reference
    x = MogTarget(4).sample(64, 0)
    with pytest.raises(ValueError, match="row_mean must be a finite array of shape"):
        Reference(kn.gauss(2.0), x, bad)


def test_one_row_mean_pass_per_study_cell(monkeypatch):
    # the harness's input Reference serves mmd_input and every swap stage
    # whose split forms no row means; target KT and generalized with 2k
    # form their own from the split's blocks
    calls = []
    for module in (kthin.thinning, kthin.discrepancy):
        def counting(k, points, _inner=module.kernel_row_means):
            calls.append(len(points))
            return _inner(k, points)

        monkeypatch.setattr(module, "kernel_row_means", counting)
    k = kn.gauss(2.0)
    variants = (Variant("standard"), Variant("targetkt"), Variant("rootkt"),
                Variant("powerkt", 0.75), Variant("ktplus", 0.5),
                Variant("generalized", split_kernel=kn.laplace(1.0)),
                Variant("generalized", split_kernel=k.scaled(2.0)))
    plan = ExperimentPlan(target=MogTarget(4), kernel=k, variants=variants, sizes=(16, 64),
                          replicates=2, seed=1, metrics=("mmd_input",))
    run_experiment(plan)
    assert calls == [16, 16, 64, 64]


def _reference_on(case: str, k, x):
    """A reference that differs from (k, x) in one way."""
    if case == "kernel":
        return Reference(k.scaled(2.0), x)
    if case == "points":
        return Reference(k, x[::-1])
    return Reference(k, x[:-1])


CALLERS = {
    "kt_swap": lambda k, x, cfg, ref: kt_swap(k, x, kt_split(k, x, cfg), cfg, ref),
    "SwapCache": lambda k, x, cfg, ref: SwapCache(k, x, [0, 5], ref),
    "power_kt": lambda k, x, cfg, ref: power_kt(k, x, cfg, 0.5, reference=ref),
    **{f"thin-{name}": (lambda k, x, cfg, ref, _v=v: thin(_v, k, x, cfg, ref))
       for name, v in (("standard", Variant("standard")), ("targetkt", Variant("targetkt")),
                       ("generalized", Variant("generalized", split_kernel=kn.laplace(1.0))))},
}


@pytest.mark.parametrize("case", ["kernel", "points", "n"])
@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_a_reference_on_another_kernel_or_points_is_rejected(caller, case):
    x = MogTarget(4).sample(64, 0)
    k = kn.gauss(2.0)
    with pytest.raises(ValueError, match="the reference is on"):
        CALLERS[caller](k, x, ThinningConfig(m=2, seed=0), _reference_on(case, k, x))


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_a_matching_reference_changes_no_coreset(caller):
    # a Reference built apart from the call is the one the call would make,
    # and target KT's split still hands kt_swap its own row means, so even
    # the selection MMDs keep their bits
    x = MogTarget(4).sample(64, 1)
    k, cfg = kn.gauss(2.0), ThinningConfig(m=2, seed=1)
    got, want = (CALLERS[caller](k, x, cfg, ref) for ref in (Reference(k, x.copy()), None))
    if caller == "SwapCache":
        assert np.array_equal(got._delta_vector(1), want._delta_vector(1))
    else:
        assert np.array_equal(got.indices, want.indices)
        assert got.provenance == want.provenance
