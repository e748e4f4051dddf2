"""MMD values, swap-delta cache, integration error, interpolation check."""

import math
import tracemalloc

import numpy as np
import pytest

from kthin import discrepancy
from kthin import kernels as kn
from kthin.discrepancy import (
    _COLS,
    _ROWS,
    DiscreteMeasure,
    Reference,
    SwapCache,
    check_interpolation,
    gauss_interpolation_triple,
    kernel_row_means,
    mmd,
    mmd_points,
    mmd_swap_delta,
)


def random_measure(rng, n_max=20, d=2):
    n = int(rng.integers(1, n_max + 1))
    pts = rng.normal(size=(n, d))
    w = rng.random(n) + 0.05
    return DiscreteMeasure(pts, w / w.sum())


# ---------------------------------------------------------------------------
# mmd basics
# ---------------------------------------------------------------------------

def test_mmd_identical_measures_is_zero():
    rng = np.random.default_rng(0)
    p = random_measure(rng)
    assert mmd(kn.gauss(1.0), p, p) == 0.0


def test_mmd_zero_on_permuted_duplicates():
    # the same measure written with permuted atoms and split weights
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    p = DiscreteMeasure(pts, [0.5, 0.3, 0.2])
    q = DiscreteMeasure(
        np.array([[3.0, -1.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]),
        [0.2, 0.25, 0.3, 0.25],
    )
    assert mmd(kn.gauss(1.0), p, q) < 1e-7


def test_mmd_singletons_oracle():
    # brute-force double sum: mmd^2 = 2 - 2 k(x, y) = 2 - 2 e^{-1};
    # frozen value computed from that oracle
    val = mmd_points(kn.gauss(1.0), np.array([[0.0]]), np.array([[math.sqrt(2.0)]]))
    oracle = math.sqrt(2.0 - 2.0 * math.exp(-1.0))
    assert val == pytest.approx(1.124384772957, abs=1e-10)
    assert val == pytest.approx(oracle, rel=1e-14)


def test_mmd_symmetry_and_nonnegativity():
    rng = np.random.default_rng(1)
    k = kn.laplace(1.1)
    for _ in range(10):
        p, q = random_measure(rng), random_measure(rng)
        assert mmd(k, p, q) >= 0.0
        assert mmd(k, p, q) == pytest.approx(mmd(k, q, p), rel=1e-12)


def test_mmd_scale_covariance():
    rng = np.random.default_rng(2)
    k = kn.imq(0.7, 1.0)
    for c in (0.25, 4.0, 7.3):
        p, q = random_measure(rng), random_measure(rng)
        assert mmd(k.scaled(c), p, q) == pytest.approx(
            math.sqrt(c) * mmd(k, p, q), rel=1e-10
        )


def test_mmd_triangle_inequality():
    rng = np.random.default_rng(3)
    k = kn.gauss(1.0)
    for _ in range(20):
        p, q, r = (random_measure(rng) for _ in range(3))
        assert mmd(k, p, r) <= mmd(k, p, q) + mmd(k, q, r) + 1e-10


def test_mmd_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        mmd(kn.gauss(1.0), DiscreteMeasure(np.zeros((2, 1))), DiscreteMeasure(np.zeros((2, 2))))


def test_unnormalized_weights_rejected():
    with pytest.raises(ValueError, match="sum to 1"):
        DiscreteMeasure(np.zeros((2, 1)), [0.7, 0.7])
    with pytest.raises(ValueError, match="non-negative"):
        DiscreteMeasure(np.zeros((2, 1)), [1.5, -0.5])


def test_empty_measure_rejected():
    for empty in (np.zeros((0, 2)), []):
        with pytest.raises(ValueError, match="at least one point"):
            DiscreteMeasure(empty)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    pts = np.zeros((3, 2))
    pts[2, 1] = bad
    with pytest.raises(ValueError, match="row 2, column 1"):
        DiscreteMeasure(pts)
    with pytest.raises(ValueError, match="non-finite"):
        mmd_points(kn.gauss(1.0), pts, np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    # abs(nan - 1) > 1e-12 is False, so the sum check alone let NaN through
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure(np.zeros((2, 1)), [bad, 1.0])


def test_nan_mmd_is_not_clamped_to_zero():
    # mmd() and a Reference's MMDs clamp the same way: a NaN that reaches
    # the square root stays NaN instead of reading as MMD 0
    assert math.isnan(discrepancy._clamped_sqrt(float("nan")))
    assert discrepancy._clamped_sqrt(-1e-17) == 0.0
    reference = Reference(kn.gauss(1.0), np.zeros((4, 1)))
    reference.self_term = float("nan")
    assert math.isnan(reference.mmd_sq([0, 1])) and math.isnan(reference.mmd_to(np.ones((2, 1))))
    # and a NaN reference no longer gets that far: it is rejected where read
    ref = np.zeros((4, 1))
    ref[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite input value at row 1, column 0"):
        Reference(kn.gauss(1.0), ref)


def test_reference_mmd_matches_mmd_points():
    # the cached self-term and row means against the uncached path: the
    # reference spans two column runs, and each coreset several strips of
    # its own self-term and of the cross-term; mmd_sq's cross term is a
    # lookup in the row means
    rng = np.random.default_rng(5)
    k = kn.laplace(1.3)
    ref = rng.normal(size=(_COLS + 77, 2))
    reference = Reference(k, ref)
    for s in (40, 3 * _ROWS + 100):
        out = rng.normal(size=(s, 2))
        assert reference.mmd_to(out) == pytest.approx(mmd_points(k, ref, out), rel=1e-12)
        idx = rng.choice(len(ref), size=s, replace=False)
        assert reference.mmd_sq(idx) == pytest.approx(mmd_points(k, ref, ref[idx]) ** 2,
                                                      rel=1e-12)


def test_mmd_brute_force_equivalence():
    # chunked path vs a direct O(n^2) double loop
    rng = np.random.default_rng(4)
    k = kn.gauss(0.9)
    p, q = random_measure(rng, 12), random_measure(rng, 12)

    def brute(a, b):
        total = 0.0
        for xi, wi in zip(a.points, a.weights):
            for yj, vj in zip(b.points, b.weights):
                total += wi * vj * kn.kernel_eval(k, xi, yj)
        return total

    direct = math.sqrt(max(0.0, brute(p, p) + brute(q, q) - 2 * brute(p, q)))
    assert mmd(k, p, q) == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# the strip-summed double sum
# ---------------------------------------------------------------------------

TILE_KERNELS = [
    kn.gauss(1.3),
    kn.laplace(0.8),
    kn.matern(2.5, 1.1),
    kn.imq(0.7, 1.2),
    kn.sinc(2.0),
    kn.bspline(1, 1.0),
    kn.kernel_sum(kn.gauss(0.5), kn.laplace(2.0)),
]
TILE_SIZES = [1, 2, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 5, 700]
# the strip edges and the column-run edges; the last size ends in a partial
# strip and, for the strips near the top, a partial third column run
STRIP_SIZES = [1, _ROWS - 1, _ROWS + 1, _COLS - 1, _COLS + 1, 2 * _COLS + _ROWS + 1]


def _weights(rng, n):
    w = rng.random(n) + 0.05
    return w / w.sum()


def _plain_sums(k, x, w, y):
    """sum_j w_j k(x_i, y_j) for every i, from Gram rows of 256 points."""
    return np.concatenate([kn.gram(k, x[i:i + 256], y) @ w for i in range(0, len(x), 256)])


@pytest.mark.parametrize("ki", range(len(TILE_KERNELS)))
def test_self_term_matches_plain_double_sum(ki):
    k = TILE_KERNELS[ki]
    rng = np.random.default_rng(100 + ki)
    for ni, n in enumerate(TILE_SIZES):
        d = 1 + (ki + ni) % 3
        x = rng.normal(size=(n, d))
        w = _weights(rng, n)
        tiled = discrepancy._quadratic_form(k, x, w)
        assert tiled == pytest.approx(w @ kn.gram(k, x) @ w, rel=1e-12, abs=0)
        if n <= _ROWS:
            # one strip: the self form is the cross form, bit for bit
            assert tiled == discrepancy._quadratic_form(k, x, w, x, w)


@pytest.mark.parametrize("ki", range(len(TILE_KERNELS)))
def test_cross_term_matches_plain_double_sum(ki):
    k = TILE_KERNELS[ki]
    rng = np.random.default_rng(200 + ki)
    d = 1 + ki % 3
    y = rng.normal(size=(1300, d))
    wy = _weights(rng, len(y))
    for n in (1, 700):
        x = rng.normal(size=(n, d))
        wx = _weights(rng, n)
        assert discrepancy._quadratic_form(k, x, wx, y, wy) == pytest.approx(
            wx @ kn.gram(k, x, y) @ wy, rel=1e-12, abs=0
        )
    # y of exactly one strip against many column runs of x
    x, y = rng.normal(size=(1300, d)), rng.normal(size=(_ROWS, d))
    wx, wy = _weights(rng, len(x)), _weights(rng, len(y))
    assert discrepancy._quadratic_form(k, x, wx, y, wy) == pytest.approx(
        wx @ kn.gram(k, x, y) @ wy, rel=1e-12, abs=0
    )


@pytest.mark.parametrize("n", STRIP_SIZES)
def test_kernel_sums_match_plain_sums_at_strip_edges(n):
    # every row's sum, for the self-term and against a set of _ROWS + 1
    # points in both orientations: x on the rows, then on the columns
    rng = np.random.default_rng(n)
    k = kn.gauss(1.1)
    x, w = rng.normal(size=(n, 2)), _weights(rng, n)
    y, wy = rng.normal(size=(_ROWS + 1, 2)), _weights(rng, _ROWS + 1)
    np.testing.assert_allclose(discrepancy._kernel_sums(k, x, w), _plain_sums(k, x, w, x),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(discrepancy._kernel_sums(k, x, wy, y),
                               _plain_sums(k, x, wy, y), rtol=1e-12, atol=0)
    np.testing.assert_allclose(discrepancy._kernel_sums(k, y, w, x),
                               _plain_sums(k, y, w, x), rtol=1e-12, atol=0)


def test_self_term_evaluates_upper_triangle_tiles(monkeypatch):
    # the self-term and the row means both run over the strips from the
    # diagonal on.  At the study benchmark's 16384-point surrogate that is
    # 512 strips of _ROWS points, strip i against the 16384 - 32 i columns
    # from its first row on in runs of at most _COLS: 1280 calls and
    # 134,479,872 kernel evaluations, against n^2 = 268,435,456 for the full
    # Gram.  The stand-in gram writes the constant kernel 1, so the sums also
    # show that every entry is summed exactly once.
    n = 16384
    shapes = []

    def constant_one(k, x, y=None, *, out, _scratch=None):
        shapes.append(out.shape)
        out.fill(1.0)
        return out

    monkeypatch.setattr(discrepancy, "gram", constant_one)
    x = np.random.default_rng(8).normal(size=(n, 2))
    w = np.full(n, 1.0 / n)
    k = kn.gauss(1.0)
    for run in (lambda: [discrepancy._quadratic_form(k, x, w)], lambda: kernel_row_means(k, x)):
        shapes.clear()
        np.testing.assert_allclose(run(), 1.0, rtol=1e-12)
        assert len(shapes) == 1280 == sum(-(-(n - i) // _COLS) for i in range(0, n, _ROWS))
        assert all(rows == _ROWS and cols <= _COLS for rows, cols in shapes)
        assert sum(a * b for a, b in shapes) == 134_479_872


def _self_term_peak(monkeypatch, cpus):
    monkeypatch.setattr(kn, "_cpu_count", lambda: cpus)
    rng = np.random.default_rng(9)
    n = 8192
    x, w = rng.normal(size=(n, 2)), _weights(rng, n)
    tracemalloc.start()
    try:
        discrepancy._quadratic_form(kn.gauss(1.0), x, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, x.nbytes


def test_self_term_holds_only_its_buffers(monkeypatch):
    # on one CPU: the strip buffer and, in d = 2, one squared-difference
    # scratch of _ROWS x _COLS doubles each (1 MB), and vectors of n
    # entries: at 8192 points about 2.3 MB, where the full Gram would take 512 MB
    peak, x_bytes = _self_term_peak(monkeypatch, 1)
    assert peak < 2 * _ROWS * _COLS * 8 + 4 * x_bytes


def test_threaded_self_term_holds_one_buffer_pair_per_thread(monkeypatch):
    # 3 threads: each one's strip buffer and scratch, both allocated by the
    # calling thread, the same vectors, and per thread up to 4 strip sums of
    # _COLS + _ROWS doubles: the 2 it may have waiting and its temporaries
    workers, strip = 3, _ROWS * _COLS * 8
    peak, x_bytes = _self_term_peak(monkeypatch, workers)
    assert workers * 2 * strip < peak
    assert peak < workers * (2 * strip + 4 * (_COLS + _ROWS) * 8) + 4 * x_bytes


KTPLUS_KERNELS = {
    "ktplus-gauss": kn.ktplus_kernel(kn.gauss(1.0), kn.power_kernel(kn.gauss(1.0), 0.5).power),
    # laplace + Matern(1.125) in d = 2, which takes the Bessel path
    "ktplus-laplace": kn.ktplus_kernel(
        kn.laplace(1.0), kn.power_kernel(kn.laplace(1.0), 0.75, dim=2).power),
}


@pytest.mark.parametrize("k", KTPLUS_KERNELS.values(), ids=KTPLUS_KERNELS.keys())
def test_sum_kernel_strips_allocate_nothing_of_their_size(monkeypatch, k):
    # each strip of a sum evaluates into its thread's buffers, the later
    # components into a scratch array with one of their own after it; what
    # a strip still allocates is numpy's iterator buffers for the broadcast
    # subtraction, 2 x 8192 doubles, a quarter of a strip at 2048 points
    n = 2048
    x = np.random.default_rng(4).normal(size=(n, 2))
    kernel_row_means(k, x[:64])  # scipy's import and the Matern cut-off's cache
    inner, peaks = discrepancy.gram, []

    def traced(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = inner(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return g

    monkeypatch.setattr(discrepancy, "gram", traced)
    tracemalloc.start()
    try:
        kernel_row_means(k, x)
    finally:
        tracemalloc.stop()
    assert len(peaks) == n // _ROWS
    assert max(peaks) < _ROWS * n * 8 / 2, max(peaks)


# ---------------------------------------------------------------------------
# integration error
# ---------------------------------------------------------------------------

def test_rkhs_function_error_bounded_by_mmd():
    # |(P - Q) f| <= ||f||_k mmd(P, Q) and ||k(x', .)||_k = sqrt(k(x',x')) = 1
    rng = np.random.default_rng(6)
    k = kn.gauss(1.0)
    for _ in range(20):
        p, q = random_measure(rng), random_measure(rng)
        xp = rng.normal(size=2)
        f = lambda x: kn.gram(k, xp[None, :], x)[0]
        error = abs(p.weights @ f(p.points) - q.weights @ f(q.points))
        assert error <= mmd(k, p, q) + 1e-10


# ---------------------------------------------------------------------------
# swap deltas
# ---------------------------------------------------------------------------

def _full_mmd_sq(k, points, coreset):
    p = DiscreteMeasure(points)
    q = DiscreteMeasure(points[coreset])
    return mmd(k, p, q) ** 2


def test_swap_delta_incumbent_is_exactly_zero():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(30, 2))
    cache = SwapCache(kn.gauss(1.0), pts, np.array([3, 11, 19, 27]))
    for pos in range(4):
        assert mmd_swap_delta(cache, pos, int(cache.coreset[pos])) == 0.0


def test_swap_cache_rejects_malformed_coreset(monkeypatch):
    # ahead of the O(n^2) row-mean pass
    def no_row_means(k, points):
        raise AssertionError("row means computed before the coreset check")

    monkeypatch.setattr(discrepancy, "kernel_row_means", no_row_means)
    pts = np.random.default_rng(7).normal(size=(30, 2))
    for bad in ([-3], [30], [1.0, 2.0], [[1, 2]], [True]):
        with pytest.raises(ValueError, match=r"entries in \[0, 30\)"):
            SwapCache(kn.gauss(1.0), pts, bad)


def test_swap_methods_take_numpy_integers():
    # the bounds checks read numpy integers as their Python values
    pts = np.random.default_rng(7).normal(size=(30, 2))
    cache, same = (SwapCache(kn.gauss(1.0), pts, np.array([3, 11])) for _ in range(2))
    assert cache.best_swap(np.int64(1)) == same.best_swap(1)
    assert mmd_swap_delta(cache, np.int32(0), np.uint8(7)) == mmd_swap_delta(same, 0, 7)
    cache.apply_swap(np.int64(0), np.uint16(7))
    same.apply_swap(0, 7)
    assert cache.coreset.tolist() == same.coreset.tolist() == [7, 11]


def test_swap_delta_matches_full_recomputation():
    rng = np.random.default_rng(8)
    k = kn.laplace(1.3)
    pts = rng.normal(size=(40, 2))
    coreset = rng.choice(40, size=8, replace=False)
    cache = SwapCache(k, pts, coreset)
    base = _full_mmd_sq(k, pts, cache.coreset)
    for _ in range(100):
        pos = int(rng.integers(0, 8))
        z = int(rng.integers(0, 40))
        modified = cache.coreset.copy()
        modified[pos] = z
        expect = _full_mmd_sq(k, pts, modified) - base
        assert mmd_swap_delta(cache, pos, z) == pytest.approx(expect, abs=1e-10)


def test_swap_argmin_matches_full_recomputation():
    rng = np.random.default_rng(9)
    k = kn.gauss(0.8)
    pts = rng.normal(size=(25, 2))
    cache = SwapCache(k, pts, np.array([1, 5, 9, 13]))
    base = _full_mmd_sq(k, pts, cache.coreset)
    for pos in range(4):
        full = []
        for z in range(25):
            modified = cache.coreset.copy()
            modified[pos] = z
            full.append(_full_mmd_sq(k, pts, modified) - base)
        best, delta = cache.best_swap(pos)
        assert best == int(np.argmin(full))
        assert delta <= 0.0


def test_swap_cache_updates_track_recomputation():
    rng = np.random.default_rng(10)
    k = kn.imq(0.6, 1.0)
    pts = rng.normal(size=(30, 3))
    cache = SwapCache(k, pts, np.arange(0, 30, 5))
    for step in range(10):
        pos = int(rng.integers(0, cache.out_size))
        z = int(rng.integers(0, 30))
        before = _full_mmd_sq(k, pts, cache.coreset)
        delta = mmd_swap_delta(cache, pos, z)
        cache.apply_swap(pos, z)
        after = _full_mmd_sq(k, pts, cache.coreset)
        assert after - before == pytest.approx(delta, abs=1e-10)


def test_refinement_reuses_the_best_swap_column(monkeypatch):
    # apply_swap takes k(z, old) from the best_swap that preceded it: one
    # column per position plus one per accepted swap, and cross stays bitwise
    # what fresh columns give
    rng = np.random.default_rng(12)
    k = kn.laplace(0.9)
    pts = rng.normal(size=(60, 2))
    columns = {"calls": 0}

    def counting_gram(kernel, x, y=None, **kwargs):
        columns["calls"] += 1
        return kn.gram(kernel, x, y, **kwargs)

    cache = SwapCache(k, pts, np.arange(1, 60, 6))
    cache.reference.row_mean  # the row-mean pass, made on first read, is not a column
    reference = cache.cross.copy()
    monkeypatch.setattr(discrepancy, "gram", counting_gram)
    total_accepted = 0
    for sweep in range(3):
        accepted = 0
        for pos in range(cache.out_size):
            old = int(cache.coreset[pos])
            best, _ = cache.best_swap(pos)
            cache.apply_swap(pos, best)
            if best != old:
                accepted += 1
                reference += kn.gram(k, pts, pts[[best]])[:, 0] - kn.gram(k, pts, pts[[old]])[:, 0]
        assert columns["calls"] == cache.out_size + accepted, sweep
        columns["calls"] = 0
        total_accepted += accepted
        assert np.array_equal(cache.cross, reference)
        fresh = kn.gram(k, pts, pts[cache.coreset]).sum(axis=1)
        np.testing.assert_allclose(cache.cross, fresh, rtol=0, atol=1e-12)
    assert total_accepted > 0


def test_kernel_row_means_match_direct():
    # the tiled row sums against the full Gram: the input's row means, and
    # the swap cache's cross-sums against a coreset of up to two tiles
    rng = np.random.default_rng(12)
    for ki, k in enumerate(TILE_KERNELS):
        for ni, n in enumerate(TILE_SIZES):
            pts = rng.normal(size=(n, 1 + (ki + ni) % 3))
            means = kernel_row_means(k, pts)
            full = kn.gram(k, pts)
            np.testing.assert_allclose(means, full.mean(axis=1), rtol=1e-12, atol=0)
            coreset = np.arange(0, n, 2)
            cache = SwapCache(k, pts, coreset, Reference(k, pts, means))
            np.testing.assert_allclose(
                cache.cross, full[:, coreset].sum(axis=1), rtol=1e-12, atol=0
            )


# ---------------------------------------------------------------------------
# the interpolation inequality
# ---------------------------------------------------------------------------

def test_interpolation_alpha_one_is_equality():
    rng = np.random.default_rng(13)
    k = kn.gauss(1.0)
    p, q = random_measure(rng), random_measure(rng)
    res = check_interpolation(k, k, k, p, q, alpha=1.0)
    assert res["holds"]
    assert res["rhs"] == pytest.approx(res["lhs"], rel=1e-12)


def test_interpolation_equal_measures():
    rng = np.random.default_rng(14)
    p = random_measure(rng)
    k, ka, k2a = gauss_interpolation_triple(1.0, 0.75, 2)
    res = check_interpolation(k, ka, k2a, p, p, alpha=0.75)
    assert res["holds"]
    assert res["lhs"] == 0.0


@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75, 0.9])
def test_interpolation_random_measures(alpha):
    rng = np.random.default_rng(int(alpha * 100))
    k, ka, k2a = gauss_interpolation_triple(1.3, alpha, 2)
    for _ in range(100):
        p, q = random_measure(rng), random_measure(rng)
        res = check_interpolation(k, ka, k2a, p, q, alpha=alpha)
        assert res["lhs"] <= res["rhs"] + 1e-10


def test_gauss_exact_power_constants_solve_convolution_identity():
    # with exact constants the half-power satisfies the convolution identity
    # with constant exactly 1 (d = 1 quadrature oracle)
    from scipy.integrate import quad

    sigma = 1.7
    k_half = kn.gauss_power_exact(sigma, 0.5, dim=1)
    for x, y in ((0.4, -0.9), (0.0, 0.0), (1.2, 0.3)):
        conv = quad(
            lambda z: kn.kernel_eval(k_half, [x], [z]) * kn.kernel_eval(k_half, [z], [y]),
            -40.0, 40.0, limit=200,
        )[0] / math.sqrt(2.0 * math.pi)
        target = kn.kernel_eval(kn.gauss(sigma), [x], [y])
        assert conv == pytest.approx(target, rel=1e-9)
