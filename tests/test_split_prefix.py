"""KT-SPLIT's per-block prefix table against the per-pair gather it replaced.

`gather_split` is the split as it was before the prefix table: each pair
gathers k(y, x) - k(y, x~) over every point its slot's children already
hold, one `take` per pair.  The library's split instead sums each block's
rows over the points each finest coreset held before the block, once per
block, folds that table up the levels, and adds the block's own earlier
pairs term by term.  The two sum alpha in a different order, so they agree
on every decision unless a uniform lands within rounding of a swap
probability; the batteries below expect index-identical candidates and, as
the row sums did not change, bitwise-equal row means.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kthin.thinning
from kthin import kernels as kn, rng
from kthin.kernels import IdentityPerturbedKernel, KernelError, KernelSpec, evaluate, gram
from kthin.targets import MogTarget
from kthin.thinning import ThinningConfig, _split, get_swap_params, kt_split
from test_split_oracle import _instance


def gather_split(k_split, points, cfg, k_target=None):
    """The split with alpha gathered per pair over the children built so far."""
    points = kn._as_points(points)
    n, d = points.shape
    m = cfg.m
    if isinstance(k_split, IdentityPerturbedKernel):
        kernel, weight = k_split.base.normalized(), k_split.weight
    elif isinstance(k_split, KernelSpec):
        kernel, weight = k_split.normalized(), 0.0
    else:
        raise KernelError(f"unsupported split kernel type {type(k_split).__name__}")
    kernel.validate_dim(d)
    diag = kernel.sup_norm() + weight
    deltas = cfg.deltas(n)
    used = 2 * (n // 2)

    idx = [np.arange(used)[None]] + [np.empty((2 ** j, used >> j), int) for j in range(1, m + 1)]
    sigma_sq = [None] + [[0.0] * 2 ** (j - 1) for j in range(1, m + 1)]
    uniforms = [None] + [rng.swap_uniforms(cfg.seed, j, used >> j) for j in range(1, m + 1)]
    sums = None if k_target is None or kernel != k_target.normalized() else np.zeros(n)
    buf = np.empty(2 ** m * used)

    for s0 in range(0, used, 2 ** m):
        end = min(s0 + 2 ** m, used)
        kb = evaluate(kernel, points[None, :end], points[s0:end, None],
                      out=buf[:(end - s0) * end].reshape(end - s0, end))
        if sums is not None:
            sums[s0:end] += kb.sum(1)
            sums[:s0] += kb[:, :s0].sum(0)
        for j in range(1, m + 1):
            slots, t0, t1 = 2 ** (j - 1), (s0 >> j) + 1, (end >> j) + 1
            children = idx[j].reshape(slots, 2, -1)
            pairs = idx[j - 1][:, 2 * t0 - 2:2 * t1 - 2].reshape(slots, t1 - t0, 2)
            base = (pairs - s0) * end
            b_sq = np.maximum(diag + diag - 2.0 * kb.take(base[..., 1] + pairs[..., 0]), 0.0)

            delta_hats = [deltas[t - 1] * 2 ** (j - 1) / m for t in range(t0, t1)]
            thresholds = []
            for l, row in enumerate(b_sq.tolist()):
                s, a_row = sigma_sq[j][l], []
                for b, delta_hat in zip(row, delta_hats):
                    a, s = get_swap_params(s, b, delta_hat)
                    a_row.append(a)
                sigma_sq[j][l] = s
                thresholds.append(a_row)
            thresholds = np.where(b_sq > 0.0, thresholds, np.nan)

            pairs, base = pairs.swapaxes(0, 1), base.swapaxes(0, 1)[..., None, None]
            thresholds, u = thresholds.T[..., None], uniforms[j][t0 - 1:t1 - 1, :, None]
            for i, t in enumerate(range(t0, t1)):
                k_y = kb.take(base[i] + children[:, None, :, :t - 1])
                per_child = (k_y[:, 0] - k_y[:, 1]).sum(axis=2)
                alpha = per_child[:, 1:] - per_child[:, :1]
                swap = u[i] < 0.5 * (1.0 - alpha / thresholds[i])
                children[:, :, t - 1] = np.where(swap, pairs[i, :, ::-1], pairs[i])
    if sums is None:
        return list(idx[m]), None
    if n % 2:
        last = evaluate(kernel, points, points[-1])
        sums[:-1] += last[:-1]
        sums[-1] = last.sum()
    return list(idx[m]), sums * (k_target.scale / kernel.scale) / n


def _target(k_split):
    """The target kernel whose row means the split forms: its base, scaled."""
    base = k_split.base if isinstance(k_split, IdentityPerturbedKernel) else k_split
    return base.scaled(3)


def _assert_same(k_split, x, cfg, k_target=None):
    got, got_mean = _split(k_split, x, cfg, k_target)
    want, want_mean = gather_split(k_split, x, cfg, k_target)
    assert len(got) == len(want) == 2 ** cfg.m
    for a, b in zip(got, want):
        assert np.array_equal(a, b), (k_split, cfg, len(x))
    if want_mean is None:
        assert got_mean is None
    else:
        assert got_mean.row_mean.tobytes() == want_mean.tobytes()


@pytest.mark.parametrize("block", range(9))
def test_prefix_table_matches_gather_split(block):
    # test_split_oracle's instances 0..899: every family, perturbed and sum
    # kernels, d = 1..3, m = 1..3, odd n, coarse grids and identical pairs
    for case in range(block * 100, (block + 1) * 100):
        k, x, cfg = _instance(case)
        _assert_same(k, x, cfg, _target(k) if case % 2 else None)


# n = 2^m q + r: odd inputs, partial last blocks, and a single block
@pytest.mark.parametrize("m, n", [(6, 2 ** 6), (6, 2 ** 6 * 31 + 1), (6, 2 ** 6 * 40 + 34),
                                  (7, 2 ** 7 * 12 + 3), (7, 2 ** 7 * 20 + 66)])
@pytest.mark.parametrize("kernel", ["gauss", "laplace", "perturbed"])
def test_prefix_table_matches_gather_split_on_mog(m, n, kernel):
    k = {"gauss": kn.gauss(2.0), "laplace": kn.laplace(1.0),
         "perturbed": IdentityPerturbedKernel(kn.gauss(1.5), weight=0.5)}[kernel]
    x = MogTarget(8).sample(n, m + n)
    # b^2 = 0 ties: every 7th pair holds one point twice
    x[1:2 * (n // 2):14] = x[0:2 * (n // 2):14]
    cfg = ThinningConfig(m=m, seed=n)
    _assert_same(k, x, cfg, _target(k))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), extra=st.integers(0, 40), d=st.integers(1, 3),
       grid=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       family=st.sampled_from(["gauss", "laplace", "imq", "perturbed"]))
def test_prefix_table_matches_gather_split_on_small_inputs(m, extra, d, grid, seed, family):
    gen = np.random.default_rng(seed)
    n = 2 ** m + extra
    x = gen.integers(-2, 3, size=(n, d)).astype(float) if grid else gen.normal(size=(n, d))
    k = {"gauss": kn.gauss(1.0), "laplace": kn.laplace(0.7), "imq": kn.imq(0.5, 1.0),
         "perturbed": IdentityPerturbedKernel(kn.gauss(0.8), weight=0.25)}[family]
    _assert_same(k, x, ThinningConfig(m=m, seed=seed), _target(k))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [kn.gauss(1.2), kn.laplace(0.9), kn.matern(1.75, 1.1),
                               kn.kernel_sum(kn.gauss(1.0), kn.laplace(2.0, scale=0.5))],
                         ids=["gauss", "laplace", "matern-bessel", "sum"])
def test_split_blocks_equal_gram_bitwise(monkeypatch, d, k):
    # the split evaluates against coordinate-major columns, under a ufunc
    # buffer of the block's width; every block's entries are still those of
    # gram, bit for bit, at n = 3000 also on both sides of the 2.7k columns
    # below which numpy's default buffer size buffers the subtractions
    blocks = []
    inner = kthin.thinning.evaluate

    def recording(kernel, x, y, **kwargs):
        out = inner(kernel, x, y, **kwargs)
        blocks.append((kernel, y[:, 0], len(x[0]), out.copy()))
        return out

    monkeypatch.setattr(kthin.thinning, "evaluate", recording)
    for n in (77, 3000):
        blocks.clear()
        x = np.random.default_rng(d).normal(size=(n, d))
        kt_split(k, x, ThinningConfig(m=3, seed=d))
        assert len(blocks) == -(-2 * (n // 2) // 2 ** 3)
        for kernel, rows, end, block in blocks:
            assert block.tobytes() == gram(kernel, rows, x[:end]).tobytes()


def test_split_memory_stays_within_its_block_buffers():
    # n = 4096, m = 6: the block buffer is 8 2^m n bytes = 2 MB, and the
    # prefix gather reuses one more buffer of that size instead of
    # allocating per block
    x = MogTarget(8).sample(4096, 1)
    cfg = ThinningConfig(m=6, seed=1)
    tracemalloc.start()
    try:
        kt_split(kn.gauss(2.0), x, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * 2 ** 6 * 4096, peak
