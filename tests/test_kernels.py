"""Kernel family evaluation, invariants, and power/sum constructions."""

import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad

from kthin import kernels as kn

ALL_FAMILIES = [
    kn.gauss(1.3),
    kn.laplace(0.8),
    kn.matern(2.5, 1.1),
    kn.imq(0.7, 1.2),
    kn.sinc(2.0),
    kn.bspline(1, 1.0),
]


def random_points(seed, n, d):
    return np.random.default_rng(seed).normal(size=(n, d))


# ---------------------------------------------------------------------------
# pointwise values
# ---------------------------------------------------------------------------

def test_gauss_diagonal_is_one():
    for d in (1, 2, 5):
        x = random_points(0, 1, d)[0]
        assert kn.kernel_eval(kn.gauss(1.0), x, x) == 1.0


def test_gauss_table_value():
    # exp(-|z|^2 / (2 sigma^2)) at |z| = sqrt(2), sigma = 1
    val = kn.kernel_eval(kn.gauss(1.0), [0.0], [math.sqrt(2.0)])
    assert val == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_sinc_zero_coordinate_and_pi():
    # coordinate with z_j = 0 contributes the limit value 1
    val = kn.kernel_eval(kn.sinc(1.0), [0.0, 0.0], [0.0, math.pi])
    assert abs(val - math.sin(math.pi) / math.pi) < 1e-12
    assert abs(val) < 1e-12


def test_sinc_taylor_branch_accuracy():
    t = 5e-9
    exact = 1.0 - t * t / 6.0  # next term is ~1e-35
    assert kn._sinc_univariate(np.array([t]))[0] == pytest.approx(exact, abs=1e-15)


def test_matern_equals_laplace_pointwise():
    rng = np.random.default_rng(42)
    for d in (1, 2, 4):
        sigma = 1.7
        x = rng.normal(size=(8, d))
        y = rng.normal(size=(8, d))
        g_lap = kn.gram(kn.laplace(sigma), x, y)
        g_mat = kn.gram(kn.matern((d + 1) / 2.0, 1.0 / sigma), x, y)
        assert np.max(np.abs(g_lap - g_mat)) < 1e-12


def test_matern_limit_continuity():
    for nu in (1.5, 2.0, 3.3):
        val = kn.kernel_eval(kn.matern(nu, 1.0), [0.0], [1e-8])
        assert abs(val - 1.0) < 1e-6
    assert kn.kernel_eval(kn.matern(2.5, 1.0), [0.0, 0.0], [0.0, 0.0]) == 1.0
    # the squared separation overflows to inf: the limit 0 on the Bessel path
    # (nu = 1.7 and 2.5 in d = 1) and the half-integer path (2.5 in d = 2)
    with np.errstate(over="ignore"):
        for nu, d in ((1.7, 1), (2.5, 1), (2.5, 2)):
            far = kn.kernel_eval(kn.matern(nu, 1.0), np.zeros(d), np.full(d, 1e160))
            assert far == 0.0
    # finite separations where the power of t overflows while K_a(t) or e^{-t}
    # underflows: a = 3 and 5 on the Bessel path, a = 5.5 on the half-integer one
    for nu, sep in ((3.5, 1e120), (3.5, 1e150), (5.5, 1e80), (6.0, 1e80)):
        assert kn.kernel_eval(kn.matern(nu, 1.0), [0.0], [sep]) == 0.0


@pytest.mark.parametrize("nu, sep", [
    # large orders: inf, NaN or OverflowError from the direct forms
    (120.5, 500.0), (120.5, 900.0), (150.5, 1.0), (200.5, 1.0), (120.0, 500.0), (151.0, 1.0),
    # K_a(t) underflows to 0 (t = 705, 800) or overflows (t = 1e-155) inside the cut-off
    (1.5, 705.0), (101.0, 800.0), (2.7, 1e-155),
])
def test_matern_log_domain_fallback_matches_mpmath(nu, sep):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, t = mpmath.mpf(nu) - mpmath.mpf(1) / 2, mpmath.mpf(sep)
        want = float(2 ** (1 - a) / mpmath.gamma(a) * t ** a * mpmath.besselk(a, t))
    got = kn.kernel_eval(kn.matern(nu, 1.0), [0.0], [sep])
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_matern_halfinteger_matches_bessel_path():
    # closed forms and the scipy Bessel evaluation agree away from zero
    from scipy.special import kv, gamma

    t = np.linspace(0.05, 12.0, 40)
    for a in (0.5, 1.5, 2.5, 3.5):
        closed = kn._matern_profile(a, t)
        direct = 2.0 ** (1 - a) / gamma(a) * t ** a * kv(a, t)
        assert np.max(np.abs(closed - direct)) < 1e-12


# ---------------------------------------------------------------------------
# Bessel-order Matern values on several threads
# ---------------------------------------------------------------------------

def _one_call_profile(a, t):
    """The Bessel-order profile from one kv call over every positive entry."""
    from scipy.special import gamma, kv

    far = t >= kn._matern_far_cutoff(a)
    pos = (t > 0.0) & ~far
    with np.errstate(over="ignore", invalid="ignore"):
        direct = 2.0 ** (1 - a) / gamma(a) * t[pos] ** a * kv(a, t[pos])
    bad = ~((direct > 0.0) & (direct < np.inf))
    direct[bad] = np.minimum(np.exp(kn._matern_log_profile(a, t[pos][bad])), 1.0)
    out = np.where(far, 0.0, 1.0)
    out[pos] = direct
    return out, bad.sum()


@pytest.mark.parametrize("workers", [None, 1, 2, 3])
@pytest.mark.parametrize("a, fallback", [(0.125, 700.0), (120.0, 500.0)])
def test_bessel_profile_matches_one_call_at_chunk_edges(monkeypatch, workers, a, fallback):
    # the positive entries below the cut-off are what kv sees, so their count
    # is the length that the chunks cut
    if workers is not None:
        monkeypatch.setattr(kn, "_cpu_count", lambda: workers)
    chunk = kn._KV_CHUNK
    rng = np.random.default_rng(int(a * 8))
    for length in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        inner = rng.exponential(3.0, length)
        inner[rng.integers(0, length, 3)] = fallback
        cutoff = kn._matern_far_cutoff(a)
        t = rng.permutation(np.concatenate([inner, [0.0, 0.0, cutoff, 2 * cutoff, np.inf]]))
        want, n_fallback = _one_call_profile(a, t)
        assert n_fallback >= 1
        assert np.array_equal(kn._matern_profile(a, t), want), (length, workers)


def test_bessel_chunks_run_on_helper_threads(monkeypatch):
    monkeypatch.setattr(kn, "_cpu_count", lambda: 3)
    started = []
    inner = threading.Thread.start

    def counting(self):
        started.append(self)
        inner(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    before = threading.active_count()
    t = np.random.default_rng(1).exponential(3.0, 3 * kn._KV_CHUNK + 5)
    assert np.array_equal(kn._matern_profile(0.125, t), _one_call_profile(0.125, t)[0])
    assert len(started) == 2
    assert threading.active_count() == before
    # one chunk: the single call, no helper
    kn._matern_profile(0.125, t[:kn._KV_CHUNK])
    assert len(started) == 2


def test_bessel_helper_exception_reaches_the_caller(monkeypatch):
    import scipy.special

    monkeypatch.setattr(kn, "_cpu_count", lambda: 2)
    real_kv = scipy.special.kv
    caller = threading.current_thread()
    helper_failed = threading.Event()

    def failing_in_helpers(a, x, out=None):
        if threading.current_thread() is not caller:
            helper_failed.set()
            raise ArithmeticError("kv failed in a helper's chunk")
        # hold the caller's first chunk until a helper has taken one
        assert helper_failed.wait(30)
        return real_kv(a, x, out=out)

    monkeypatch.setattr(scipy.special, "kv", failing_in_helpers)
    before = threading.active_count()
    t = np.random.default_rng(2).exponential(3.0, 4 * kn._KV_CHUNK)
    with pytest.raises(ArithmeticError, match="helper's chunk"):
        kn._matern_profile(0.125, t)
    assert threading.active_count() == before


def test_bessel_caller_exception_stops_the_helpers(monkeypatch):
    import scipy.special

    monkeypatch.setattr(kn, "_cpu_count", lambda: 2)
    real_kv = scipy.special.kv
    caller = threading.current_thread()
    helper_started, caller_failed = threading.Event(), threading.Event()
    helper_chunks = []

    def failing_in_caller(a, x, out=None):
        if threading.current_thread() is caller:
            # fail while the helper holds a chunk, so it looks for its next one after
            assert helper_started.wait(30)
            caller_failed.set()
            raise ArithmeticError("kv failed in the caller's chunk")
        helper_chunks.append(len(x))
        helper_started.set()
        assert caller_failed.wait(30)
        return real_kv(a, x, out=out)

    monkeypatch.setattr(scipy.special, "kv", failing_in_caller)
    before = threading.active_count()
    t = np.random.default_rng(4).exponential(3.0, 40 * kn._KV_CHUNK)
    with pytest.raises(ArithmeticError, match="caller's chunk"):
        kn._matern_profile(0.125, t)
    assert threading.active_count() == before
    # the caller emptied the chunk iterator, so the helper stopped after its chunk
    assert len(helper_chunks) <= 2


@pytest.mark.parametrize("k, threads", [
    (kn.gauss(1.5), False),
    (kn.laplace(1.0), False),
    (kn.matern(1.125, 1.0), True),  # the control: order 0.125 at d = 2 takes the Bessel path
], ids=["gauss", "laplace", "matern-bessel"])
def test_only_bessel_kernels_start_threads(monkeypatch, k, threads):
    # a gauss or laplace target KT pays no per-call thread start
    from kthin import ThinningConfig, target_kt

    monkeypatch.setattr(kn, "_cpu_count", lambda: 2)
    started = []
    inner = threading.Thread.start

    def counting(self):
        started.append(self)
        inner(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    x = np.random.default_rng(3).normal(size=(1024, 2))
    target_kt(k, x, ThinningConfig(m=3, seed=3))
    assert bool(started) == threads


def test_dimension_mismatch_rejected():
    with pytest.raises(kn.KernelError):
        kn.gram(kn.gauss(1.0), np.zeros((2, 2)), np.zeros((2, 3)))


def test_invalid_parameters_rejected_at_construction():
    with pytest.raises(kn.KernelError):
        kn.gauss(0.0)
    with pytest.raises(kn.KernelError):
        kn.gauss(-1.0)
    with pytest.raises(kn.KernelError):
        kn.sinc(0.0)
    with pytest.raises(kn.KernelError):
        kn.matern(-1.0, 1.0)
    with pytest.raises(kn.KernelError):
        kn.imq(1.0, -2.0)
    with pytest.raises(kn.KernelError):
        kn.bspline(1.5, 1.0)


# per parameter, the finite values outside its domain
_OUT_OF_DOMAIN = {"sigma": (0.0, -1.0), "nu": (0.0, -2.0), "gamma": (0.0, -1.0),
                  "theta": (0.0,), "beta": (-1, 1.5, 6)}


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_every_path_to_a_kernel_rejects_bad_parameters(spec):
    # the constructor, kernel JSON and direct KernelSpec construction all
    # meet the one check in KernelSpec.__post_init__, and it names the value
    ctor = getattr(kn, spec.family)
    good = dict(zip(kn._PARAM_NAMES[spec.family], spec.params))
    cases = [("scale", v) for v in (math.nan, math.inf, -math.inf, 0.0, -1.0)]
    cases += [(name, v) for name in good
              for v in (math.nan, math.inf, -math.inf) + _OUT_OF_DOMAIN[name]]
    for name, bad in cases:
        params = {**good, name: bad} if name in good else good
        scale = bad if name == "scale" else 1.0
        text = json.dumps({"family": spec.family, "params": params, "scale": scale})
        for build in (lambda: ctor(**params, scale=scale),
                      lambda: kn.from_json(text),
                      lambda: kn.KernelSpec(spec.family, tuple(params.values()), scale)):
            with pytest.raises(kn.KernelError, match=f"{spec.family} kernel {name} must be"):
                build()
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(kn.KernelError, match="scale"):
            spec.scaled(bad)
    with pytest.raises(kn.KernelError, match="must be finite"):
        spec.with_lengthscale(math.inf)


def test_sum_kernel_checks():
    with pytest.raises(kn.KernelError, match="at least one component"):
        kn.kernel_sum()
    with pytest.raises(kn.KernelError, match="at least one component"):
        kn.from_json('{"family": "sum", "components": []}')
    with pytest.raises(kn.KernelError, match="sum kernel scale must be"):
        kn.from_json('{"family": "sum", "components": [{"family": "sinc", '
                     '"params": {"theta": 1.0}}], "scale": -1}')
    with pytest.raises(kn.KernelError, match="expected a family"):
        kn.KernelSpec("cauchy")


@pytest.mark.parametrize("weight", [math.nan, math.inf, 0.0, -1.0])
def test_identity_weight_must_be_finite_and_positive(weight):
    with pytest.raises(kn.KernelError, match="identity weight"):
        kn.IdentityPerturbedKernel(kn.gauss(1.0), weight)


def test_gram_reads_one_dimensional_input_as_a_column():
    x = np.random.default_rng(2).normal(size=9)
    for spec in ALL_FAMILIES:
        assert np.array_equal(kn.gram(spec, x), kn.gram(spec, x[:, None]))
        assert kn.gram(spec, x).shape == (9, 9)


def test_matern_smoothness_checked_at_use_site():
    k = kn.matern(1.0, 1.0)  # fine in d = 1, invalid in d >= 2
    kn.gram(k, np.zeros((2, 1)))
    with pytest.raises(kn.KernelError, match="nu > d/2"):
        kn.gram(k, np.zeros((2, 2)))


# every family, Matern at half-integer (nu - d/2 = 1.5 in d = 2) and Bessel
# orders, imq at exponent -1 (numpy's ** takes a reciprocal there) and at
# -0.5 and -0.7, and sum and scaled kernels
OUT_KERNELS = ALL_FAMILIES + [
    kn.matern(3.7, 0.9),
    kn.imq(1.0, 0.9),
    kn.imq(0.5, 1.4),
    kn.kernel_sum(kn.gauss(0.5), kn.laplace(2.0), kn.matern(2.5, 1.0)),
    kn.gauss(0.7, scale=2.5),
    kn.kernel_sum(kn.imq(0.7, 1.0), kn.sinc(1.5)).scaled(0.3),
]


@pytest.mark.parametrize("spec", OUT_KERNELS, ids=repr)
def test_evaluate_into_out_is_bitwise_the_allocating_path(spec):
    # y repeats three points of x, so the blocks hold zero distances
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        if spec.family == "matern" and spec.nu <= d / 2:
            continue
        x = rng.normal(size=(9, d))
        y = np.concatenate([rng.normal(size=(6, d)), x[:3]])
        for a, b in ((x[:, None], y[None]), (y[None], x[:, None])):
            want = kn.evaluate(spec, a, b)
            out = np.full(want.shape, np.nan)
            assert kn.evaluate(spec, a, b, out=out) is out
            assert np.array_equal(out, want)
        out = np.full((9, 9), np.nan)
        assert kn.gram(spec, x, y, out=out) is out
        assert np.array_equal(out, kn.gram(spec, x, y))


def test_gram_rejects_a_malformed_out():
    x = np.zeros((3, 2))
    for out in (np.empty((3, 4)), np.empty((3, 3), dtype=np.float32),
                np.empty((3, 6))[:, ::2]):
        with pytest.raises(ValueError, match="out must be a C-contiguous float64 array"):
            kn.gram(kn.gauss(1.0), x, out=out)


# ---------------------------------------------------------------------------
# family-wide invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_gram_symmetric_and_psd(spec):
    for seed, n, d in ((0, 20, 2), (1, 50, 1), (2, 35, 3)):
        if spec.family == "matern" and spec.nu <= d / 2:
            continue
        x = random_points(seed, n, d)
        g = kn.gram(spec, x)
        assert np.array_equal(g, g.T)
        floor = -1e-8 * np.trace(g)
        assert np.linalg.eigvalsh(g).min() >= floor


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_shift_invariance(spec):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 2))
    y = rng.normal(size=(6, 2))
    for _ in range(3):
        c = rng.normal(size=2)
        g0 = kn.gram(spec, x, y)
        g1 = kn.gram(spec, x + c, y + c)
        assert np.max(np.abs(g0 - g1)) < 1e-12


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_unscaled_diagonal_is_one(spec):
    rng = np.random.default_rng(3)
    for x in rng.normal(size=(5, 2)):
        assert kn.kernel_eval(spec, x, x) == pytest.approx(1.0, abs=1e-14)


def test_scale_multiplies_values():
    x, y = np.array([0.1, 0.2]), np.array([1.0, -0.5])
    base = kn.kernel_eval(kn.imq(0.7, 1.2), x, y)
    scaled = kn.kernel_eval(kn.imq(0.7, 1.2, scale=3.5), x, y)
    assert scaled == pytest.approx(3.5 * base, rel=1e-15)
    assert kn.imq(0.7, 1.2, scale=3.5).sup_norm() == 3.5


# ---------------------------------------------------------------------------
# the univariate B-spline piece
# ---------------------------------------------------------------------------

def _bspline_convolution_oracle(beta, t, dt=2e-4):
    """(2 beta + 2)-fold convolution of 1_[-1/2,1/2] by direct numeric
    convolution on a grid."""
    grid = np.arange(-0.5, 0.5 + dt / 2, dt)
    f = np.ones_like(grid)
    g = f.copy()
    for _ in range(2 * beta + 1):
        g = np.convolve(g, f) * dt
    # g spans [-(beta+1), beta+1]
    idx = int(round((t + beta + 1) / dt))
    return g[idx]


def test_bspline_center_value():
    # frozen from the convolution oracle (= 2/3 exactly for beta = 1)
    assert kn.bspline_univariate(1, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert abs(_bspline_convolution_oracle(1, 0.0) - 2.0 / 3.0) < 1e-3


def test_bspline_center_memoized_bitwise():
    k = kn.bspline(2, 0.9)
    x = random_points(9, 40, 2)
    kn._bspline_center.cache_clear()
    first = kn.gram(k, x)
    for _ in range(3):
        assert np.array_equal(kn.gram(k, x), first)
    assert kn._bspline_center.cache_info().misses == 1
    assert kn._bspline_center(2) == kn._bspline_center.__wrapped__(2)


def test_bspline_matches_convolution_oracle_off_center():
    for beta, t in ((1, 0.7), (1, -1.3), (2, 0.5), (2, 2.2)):
        oracle = _bspline_convolution_oracle(beta, t)
        assert kn.bspline_univariate(beta, t) == pytest.approx(oracle, abs=1e-3)


def test_bspline_support_bound():
    for beta in (0, 1, 2, 3):
        for t in (beta + 1.0, -(beta + 1.0), beta + 1.5, -(beta + 4.0)):
            assert kn.bspline_univariate(beta, t) == 0.0
    # far outside the support the alternating sum cancels catastrophically;
    # inside it the values are the plain alternating sum, bit for bit
    for beta in range(5):
        order, half = 2 * beta + 2, beta + 1.0
        far = half * np.logspace(0.0, 8.0 - np.log10(half), 400)
        assert np.all(kn.bspline_univariate(beta, np.concatenate([far, -far])) == 0.0)
        inside = np.linspace(-half, half, 2001)[1:-1]
        plain = sum(
            (-1) ** j * math.comb(order, j) * np.maximum(inside + half - j, 0.0) ** (order - 1)
            for j in range(order + 1)
        ) / math.factorial(order - 1)
        assert np.array_equal(kn.bspline_univariate(beta, inside), plain)
    assert kn.kernel_eval(kn.bspline(3, 1.0), [0.0], [1000.0]) == 0.0


def test_bspline_matches_de_boor_up_to_the_largest_accepted_beta():
    # the alternating sum loses about a digit per order: up to the bound it is
    # within 1e-9 h_beta(0) of de Boor's recursion, and past it beta is rejected
    from scipy.interpolate import BSpline

    for beta in range(kn._BSPLINE_MAX_BETA + 1):
        half = beta + 1.0
        t = np.linspace(-half, half, 20001)[1:-1]
        oracle = BSpline.basis_element(np.arange(-half, half + 1.0), extrapolate=False)(t)
        error = np.max(np.abs(kn.bspline_univariate(beta, t) - oracle))
        assert error < 1e-9 * kn._bspline_center(beta)
    with pytest.raises(kn.KernelError, match="bspline kernel beta must be finite and an integer"):
        kn.bspline_univariate(kn._BSPLINE_MAX_BETA + 1, 0.0)


def test_bspline_even_symmetry():
    ts = np.linspace(-3.0, 3.0, 61)
    for beta in (1, 2):
        v1 = kn.bspline_univariate(beta, ts)
        v2 = kn.bspline_univariate(beta, -ts)
        assert np.max(np.abs(v1 - v2)) < 1e-12


# ---------------------------------------------------------------------------
# power kernels
# ---------------------------------------------------------------------------

def test_power_alpha_one_is_identity():
    for spec in ALL_FAMILIES:
        pair = kn.power_kernel(spec, 1.0, dim=1)
        assert pair.power == spec
        assert pair.alpha == 1.0


def test_gauss_power_bandwidth():
    pair = kn.power_kernel(kn.gauss(2.0), 0.5)
    assert pair.power.family == "gauss"
    assert pair.power.sigma == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_gauss_half_power_convolution_identity_up_to_scale():
    # (2 pi)^{-1/2} int k_half(x,z) k_half(z,y) dz proportional to k(x,y);
    # solve for the single constant on a grid and check 1e-6 relative error
    sigma = 2.0
    k = kn.gauss(sigma)
    k_half = kn.power_kernel(k, 0.5).power
    xs = np.linspace(-1.0, 1.0, 5)
    ratios = []
    for x in xs:
        for y in xs:
            conv = quad(
                lambda z: kn.kernel_eval(k_half, [x], [z]) * kn.kernel_eval(k_half, [z], [y]),
                -30.0, 30.0, limit=200,
            )[0] / math.sqrt(2.0 * math.pi)
            ratios.append(conv / kn.kernel_eval(k, [x], [y]))
    ratios = np.array(ratios)
    const = ratios.mean()
    assert np.max(np.abs(ratios / const - 1.0)) < 1e-6


def test_matern_power():
    pair = kn.power_kernel(kn.matern(3.0, 1.0), 0.5, dim=2)
    assert pair.power == kn.matern(1.5, 1.0)


def test_laplace_power_is_matern():
    # laplace(sigma) behaves as matern((d+1)/2, 1/sigma)
    pair = kn.power_kernel(kn.laplace(2.0), 0.9, dim=3)
    assert pair.power.family == "matern"
    assert pair.power.nu == pytest.approx(0.9 * 2.0)
    assert pair.power.gamma == pytest.approx(0.5)


def test_laplace_power_constraint():
    with pytest.raises(kn.NoClosedFormPowerError, match="alpha\\*nu > d/2"):
        kn.power_kernel(kn.laplace(1.0), 0.7, dim=4)


def test_matern_power_constraint():
    with pytest.raises(kn.NoClosedFormPowerError):
        kn.power_kernel(kn.matern(1.2, 1.0), 0.5, dim=2)


@pytest.mark.parametrize("dim", [0, -1, 1.5, "2"])
def test_power_kernel_rejects_a_dimension_below_one(dim):
    with pytest.raises(kn.KernelError, match="power_kernel dim must be an integer >= 1"):
        kn.power_kernel(kn.laplace(1.0), 0.75, dim=dim)


@pytest.mark.parametrize("alpha", [None, "0.5"])
def test_power_kernel_rejects_an_alpha_that_is_not_a_number(alpha):
    with pytest.raises(kn.KernelError, match="alpha must lie in"):
        kn.power_kernel(kn.gauss(1.0), alpha)


def test_bspline_power():
    pair = kn.power_kernel(kn.bspline(1, 1.0), 0.5)
    assert pair.power == kn.bspline(0, 1.0)  # the triangle kernel, order 2


def test_bspline_power_constraint():
    # beta = 2, alpha = 1/2 gives reduced order 1: odd, no closed form
    with pytest.raises(kn.NoClosedFormPowerError, match="even non-negative"):
        kn.power_kernel(kn.bspline(2, 1.0), 0.5)
    # but alpha = (beta + 2) / (2 beta + 2) = 2/3 works
    pair = kn.power_kernel(kn.bspline(2, 1.0), 2.0 / 3.0)
    assert pair.power == kn.bspline(1, 1.0)


def test_sinc_power_is_itself():
    pair = kn.power_kernel(kn.sinc(1.5), 0.5)
    assert pair.power == kn.sinc(1.5)


def test_imq_has_no_closed_form_power():
    with pytest.raises(kn.NoClosedFormPowerError, match="explicit split kernel"):
        kn.power_kernel(kn.imq(0.5, 1.0), 0.5, dim=2)


def test_alpha_range_enforced():
    with pytest.raises(kn.KernelError):
        kn.power_kernel(kn.gauss(1.0), 0.3)
    with pytest.raises(kn.KernelError):
        kn.power_kernel(kn.gauss(1.0), 1.2)


def test_bspline_half_power_convolution_identity_up_to_scale():
    # same check as for gauss, for the compactly supported family
    k = kn.bspline(1, 1.0)
    k_half = kn.power_kernel(k, 0.5).power
    xs = np.linspace(-0.8, 0.8, 5)
    ratios = []
    for x in xs:
        for y in xs:
            conv = quad(
                lambda z: kn.kernel_eval(k_half, [x], [z]) * kn.kernel_eval(k_half, [z], [y]),
                -4.0, 4.0, limit=400,
                points=sorted({x - 1, x + 1, y - 1, y + 1, x, y}),
            )[0] / math.sqrt(2.0 * math.pi)
            ratios.append(conv / kn.kernel_eval(k, [x], [y]))
    ratios = np.array(ratios)
    const = ratios.mean()
    assert np.max(np.abs(ratios / const - 1.0)) < 1e-6


# ---------------------------------------------------------------------------
# sums and the identity perturbation
# ---------------------------------------------------------------------------

def test_ktplus_diagonal_and_pointwise_sum():
    k = kn.gauss(1.0)
    ka = kn.gauss(1.0 / math.sqrt(2.0))
    kp = kn.ktplus_kernel(k, ka)
    assert kn.kernel_eval(kp, [0.0, 0.0], [0.0, 0.0]) == 2.0
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=2), rng.normal(size=2)
    expect = kn.kernel_eval(k, x, y) + kn.kernel_eval(ka, x, y)
    assert kn.kernel_eval(kp, x, y) == pytest.approx(expect, rel=1e-14)


def test_ktplus_vanishes_along_ray():
    kp = kn.ktplus_kernel(kn.gauss(1.0), kn.gauss(0.7))
    vals = [kn.kernel_eval(kp, [0.0], [r]) for r in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-10


def test_ktplus_sup_norm_at_most_two():
    kp = kn.ktplus_kernel(kn.gauss(1.0, scale=5.0), kn.laplace(2.0, scale=0.3))
    assert kp.sup_norm() == pytest.approx(2.0, abs=1e-12)
    x = random_points(11, 30, 2)
    assert np.max(np.abs(kn.gram(kp, x))) <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip():
    specs = ALL_FAMILIES + [
        kn.gauss(2.0, scale=1.5),
        kn.ktplus_kernel(kn.gauss(1.0), kn.gauss(0.5)),
    ]
    for spec in specs:
        assert kn.from_json(spec.to_json()) == spec


def test_json_errors():
    with pytest.raises(kn.KernelError):
        kn.from_json("not json")
    with pytest.raises(kn.KernelError):
        kn.from_json('{"family": "cauchy", "params": {}}')
    with pytest.raises(kn.KernelError):
        kn.from_json('{"family": "gauss", "params": {"wrong": 1.0}}')
    # top-level keys outside family/params/scale (family/components/scale for
    # a sum) are rejected by name, and a scale that is not a JSON number
    # reaches the parameter check as it is
    for text, key in [
        ('{"family": "gauss", "params": {"sigma": 1.0}, "scael": 2.0}', "scael"),
        ('{"family": "gauss", "components": []}', "components"),
        ('{"family": "sum", "params": {}, "components": [{"family": "sinc"}]}', "params"),
    ]:
        with pytest.raises(kn.KernelError, match=f"unknown key '{key}'"):
            kn.from_json(text)
    for bad in ('null', '"two"', '[1.0]', '"2"', 'true'):
        with pytest.raises(kn.KernelError, match="gauss kernel scale must be finite and > 0"):
            kn.from_json('{"family": "gauss", "params": {"sigma": 1.0}, "scale": %s}' % bad)
    with pytest.raises(kn.KernelError, match="numeric scale"):
        kn.from_json('{"family": "sum", "components": 5}')


def test_scipy_special_is_imported_only_for_matern():
    # scipy.special is most of the package's import time; only the Matern
    # family evaluates it, so a gauss pipeline must not load it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import kthin\n"
        "x = np.random.default_rng(0).normal(size=(64, 2))\n"
        "kthin.target_kt(kthin.gauss(1.0), x, kthin.ThinningConfig(m=2, seed=0))\n"
        "assert 'scipy.special' not in sys.modules, 'loaded by the gauss pipeline'\n"
        "kthin.gram(kthin.matern(2.5, 1.0), x)\n"
        "assert 'scipy.special' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(kn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
