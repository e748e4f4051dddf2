"""Split-stage behavior, swap-stage refinement, and the variant front-ends."""

import json
import math

import numpy as np
import pytest

from kthin import kernels as kn
from kthin import thinning
from kthin.discrepancy import _COLS, _ROWS, DiscreteMeasure, SwapCache, mmd, mmd_points
from kthin.thinning import (
    ThinningConfig,
    anchored_stride,
    baseline_thin,
    generalized_kt,
    get_swap_params,
    kt_plus,
    kt_split,
    kt_swap,
    power_kt,
    swap_probability,
    target_kt,
)

K = kn.gauss(1.0)


def gauss_points(seed, n, d=2):
    return np.random.default_rng(seed).normal(size=(n, d))


# ---------------------------------------------------------------------------
# get_swap_params and the probability rule
# ---------------------------------------------------------------------------

def test_swap_params_from_zero_sigma():
    a, sigma_sq = get_swap_params(0.0, 3.0, delta_hat=0.01)
    assert a == 3.0  # the b^2 branch dominates when sigma = 0
    assert sigma_sq == 3.0


def test_swap_params_threshold_branches():
    # large sigma: the sigma branch of the max dominates
    a, _ = get_swap_params(100.0, 1.0, delta_hat=0.01)
    assert a == pytest.approx(math.sqrt(100.0 * 2.0 * math.log(200.0)))
    # the clamp keeps the update non-negative
    _, sigma_sq = get_swap_params(100.0, 1.0, delta_hat=0.01)
    assert sigma_sq >= 100.0


def test_swap_params_sigma_nondecreasing():
    rng = np.random.default_rng(0)
    sigma_sq = 0.0
    for _ in range(50):
        b_sq = float(rng.random() * 4.0)
        _, new_sigma_sq = get_swap_params(sigma_sq, b_sq, delta_hat=1e-3)
        assert new_sigma_sq >= sigma_sq
        sigma_sq = new_sigma_sq


def test_swap_params_at_zero_distance():
    # b^2 = 0 carries no information: sigma stays, and the threshold is 0
    # instead of the 0/0 of the recursion
    for sigma_sq in (0.0, 0.7, 123.0):
        assert get_swap_params(sigma_sq, 0.0, 0.01) == (0.0, sigma_sq)


def test_swap_probability_range_and_half():
    rng = np.random.default_rng(1)
    for _ in range(200):
        alpha = float(rng.normal() * 10.0)
        a = float(rng.random() * 5.0 + 1e-6)
        p = swap_probability(alpha, a)
        assert 0.0 <= p <= 1.0
    assert swap_probability(0.0, 2.3) == 0.5


def test_delta_schedules():
    assert ThinningConfig(m=2, delta=0.5).deltas(101) == [0.5 / 101] * 50
    obl = ThinningConfig(m=3, delta=0.5, delta_rule="oblivious").deltas(100)
    assert len(obl) == 50
    i, m = 7, 3
    expect = m * 0.5 / (2 ** (m + 2) * (i + 1) * math.log(i + 1) ** 2)
    assert obl[i - 1] == pytest.approx(expect)
    assert all(0.0 < v < 1.0 for v in obl)
    with pytest.raises(ValueError, match="delta must lie in"):
        ThinningConfig(delta=1.5)
    with pytest.raises(ValueError, match="^ThinningConfig spec key 'delta_rule'"):
        ThinningConfig(delta_rule="weekly")


def test_config_validation_and_round_trip():
    with pytest.raises(ValueError):
        ThinningConfig(m=0)
    for m in ("2", None, 2.5):
        with pytest.raises(ValueError, match="key 'm': expected an integer"):
            ThinningConfig(m=m)
    # m and the seed are read as plan.json reads them: a whole-number float is
    # an integer, and any other value that is not an integer fails when the
    # config is built, instead of being truncated to one that is
    for cfg in (ThinningConfig(m=np.int64(2), seed=np.float64(1.0)),
                ThinningConfig(m=2.0, seed=1.0)):
        assert (cfg.m, cfg.seed) == (2, 1) and (type(cfg.m), type(cfg.seed)) == (int, int)
    for seed in (1.7, True, "1", None):
        with pytest.raises(ValueError, match="key 'seed': expected an integer"):
            ThinningConfig(seed=seed)
    # integer seeds of any size, past the float range too, wrap modulo 2^64
    x = gauss_points(49, 16)
    for seed, wrapped in ((-1, 2 ** 64 - 1), (2 ** 64 + 3, np.uint64(3)), (2 ** 1100 + 3, 3)):
        a = target_kt(K, x, ThinningConfig(m=2, seed=seed))
        b = target_kt(K, x, ThinningConfig(m=2, seed=wrapped))
        assert np.array_equal(a.indices, b.indices)


def test_config_reads_m_and_delta_as_numbers():
    # a bool is not a depth, nor a string or a bool a probability: each
    # fails naming its field
    for m in (True, False):
        with pytest.raises(ValueError, match="ThinningConfig spec key 'm': expected an integer"):
            ThinningConfig(m=m)
    for delta in ("0.5", True, float("nan"), None):
        with pytest.raises(ValueError, match="key 'delta': expected a finite number"):
            ThinningConfig(delta=delta)
    cfg = ThinningConfig(m=np.int64(3), delta=np.float64(0.25))
    assert (type(cfg.m), type(cfg.delta)) == (int, float)


@pytest.mark.filterwarnings("error")
def test_numbers_read_without_warnings():
    # numpy float32 and float64 values read as Python floats without a
    # RuntimeWarning; non-finite values and ints past the float range fail
    for value in (np.float32(0.25), np.float64(0.25), 0.25):
        assert ThinningConfig(delta=value).delta == 0.25
        assert kn._as_number(value) == 0.25
    assert kn._as_number(np.float32(3.0), int) == 3
    for value in (np.float32("inf"), np.float32("nan"), float("nan"), 10 ** 400, -10 ** 400):
        with pytest.raises(ValueError, match="expected a finite number"):
            kn._as_number(value)
        with pytest.raises(ValueError, match="key 'delta': expected a finite number"):
            ThinningConfig(delta=value)


# ---------------------------------------------------------------------------
# kt_split
# ---------------------------------------------------------------------------

def test_two_point_split_is_a_fair_coin():
    # alpha = 0 by hand-execution, so the pair swaps with probability 1/2;
    # binomial 3 sigma band at 10^4 trials is +/- 0.015
    x = np.array([[0.0], [1.0]])
    trials = 10_000
    swaps = 0
    for seed in range(trials):
        cands = kt_split(K, x, ThinningConfig(m=1, seed=seed))
        swaps += int(cands[0][0] == 1)
    freq = swaps / trials
    assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / trials)


def test_identical_pair_deterministic():
    x = np.array([[2.5], [2.5]])
    for seed in range(25):
        cands = kt_split(K, x, ThinningConfig(m=1, seed=seed))
        assert cands[0].tolist() == [0] and cands[1].tolist() == [1]


def test_split_scale_invariance_exact():
    x = gauss_points(0, 96)
    cfg = ThinningConfig(m=2, seed=5)
    base = kt_split(K, x, cfg)
    for c in (0.1, 7.3, 1024.0):
        scaled = kt_split(K.scaled(c), x, cfg)
        for a, b in zip(base, scaled):
            assert np.array_equal(a, b)


def test_split_sizes_and_disjoint_candidates():
    for n, m in ((16, 2), (64, 3), (18, 1), (19, 1), (22, 2)):
        cands = kt_split(K, gauss_points(n, n), ThinningConfig(m=m, seed=1))
        assert len(cands) == 2 ** m
        for c in cands:
            assert len(c) == n // 2 ** m
        merged = np.concatenate(cands)
        assert len(np.unique(merged)) == len(merged)


def _assert_partition_of_prefix(cands, n):
    merged = np.concatenate(cands)
    assert len(np.unique(merged)) == len(merged)
    assert ((merged >= 0) & (merged < 2 * (n // 2))).all()
    for c in cands:
        assert (np.diff(c) > 0).all()


def test_split_invariants_every_prefix():
    # the oblivious schedule does not depend on n, so every prefix x[:size]
    # is split as the full run split it up to that point: each candidate is
    # the full run's candidate cut to floor(size / 2^m)
    n = 101
    x = gauss_points(4, n)
    for m in (1, 2, 3):
        cfg = ThinningConfig(m=m, seed=m, delta_rule="oblivious")
        full = kt_split(K, x, cfg)
        _assert_partition_of_prefix(full, n)
        for size in range(2 ** m, n):
            cands = kt_split(K, x[:size], cfg)
            _assert_partition_of_prefix(cands, size)
            for a, b in zip(cands, full):
                assert np.array_equal(a, b[:size // 2 ** m]), (m, size)


def test_split_determinism():
    x = gauss_points(10, 64)
    cfg = ThinningConfig(m=2, seed=123)
    a = kt_split(K, x, cfg)
    b = kt_split(K, x, cfg)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["kt_split", "kt_swap", "generalized_kt", "power_kt", "kt_plus"])
def test_non_finite_input_rejected_at_every_entry(entry, bad):
    # a NaN would make every alpha NaN and the split would never swap
    x = np.array([[0.0], [bad], [1.0], [2.0]])
    cfg = ThinningConfig(m=1, seed=0)
    calls = {
        "kt_split": lambda: kt_split(K, x, cfg),
        "kt_swap": lambda: kt_swap(K, x, [np.array([0, 2]), np.array([1, 3])], cfg),
        "generalized_kt": lambda: generalized_kt(K, K, x, cfg),
        "power_kt": lambda: power_kt(K, x, cfg, alpha=0.5),
        "kt_plus": lambda: kt_plus(K, x, cfg, alpha=0.5),
    }
    with pytest.raises(ValueError, match="non-finite input value at row 1, column 0"):
        calls[entry]()


def test_one_dimensional_input_is_a_column():
    x = gauss_points(3, 32, d=1)
    cfg = ThinningConfig(m=2, seed=8)
    assert all(np.array_equal(a, b) for a, b in zip(kt_split(K, x[:, 0], cfg), kt_split(K, x, cfg)))
    with pytest.raises(ValueError, match=r"\(n, d\) array"):
        kt_split(K, np.zeros((4, 1, 1)), cfg)


def test_split_errors():
    with pytest.raises(ValueError, match="at least 2"):
        kt_split(K, np.zeros((1, 1)), ThinningConfig(m=1, seed=0))
    with pytest.raises(ValueError, match="too large"):
        kt_split(K, gauss_points(0, 8), ThinningConfig(m=4, seed=0))


# ---------------------------------------------------------------------------
# baseline thinning
# ---------------------------------------------------------------------------

def test_baseline_thin_examples():
    assert baseline_thin(8, 1).tolist() == [1, 3, 5, 7]
    nine = baseline_thin(9, 1)
    assert len(nine) == 4 and nine[-1] == 8
    assert baseline_thin(5, 0).tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError, match="too large"):
        baseline_thin(4, 3)


def test_anchored_stride_matches_both_strided_rules():
    # baseline_thin steps by 2^m and targets._thin_to by n // size; the two
    # differ, e.g. at n = 11, size 2: step 4 (m = 2) against step 5
    def old_rule(n, size, step):
        return np.array([n - 1 - step * (size - 1 - j) for j in range(size)])

    for n in range(1, 70):
        for size in range(1, n + 1):
            step = n // size
            assert np.array_equal(anchored_stride(n, size, step), old_rule(n, size, step))
        for m in range(int(math.log2(n)) + 1):
            assert np.array_equal(baseline_thin(n, m), old_rule(n, n // 2 ** m, 2 ** m))
    assert baseline_thin(11, 2).tolist() == [6, 10]
    assert anchored_stride(11, 2, 11 // 2).tolist() == [5, 10]


# ---------------------------------------------------------------------------
# kt_swap
# ---------------------------------------------------------------------------

def test_swap_never_worse_than_incumbent_candidate():
    # if a candidate is already locally optimal the sweep keeps its value
    x = gauss_points(20, 32)
    cfg = ThinningConfig(m=1, seed=3)
    cands = kt_split(K, x, cfg)
    out = kt_swap(K, x, cands, cfg)
    best_before = min(out.provenance["selection_mmds"])
    after = mmd_points(K, x, x[out.indices])
    assert after <= best_before + 1e-12


def test_swap_idempotent_on_refined_output():
    # feeding the refined coreset back in accepts no further swaps
    x = gauss_points(21, 64)
    cfg = ThinningConfig(m=2, seed=4)
    out = kt_swap(K, x, kt_split(K, x, cfg), cfg)
    again = kt_swap(K, x, [out.indices], cfg)
    assert mmd_points(K, x, x[again.indices]) <= mmd_points(K, x, x[out.indices]) + 1e-12


def test_swap_monotone_across_each_accepted_swap():
    x = gauss_points(22, 64)
    cfg = ThinningConfig(m=2, seed=5)
    cands = kt_split(K, x, cfg)
    cache = SwapCache(K, x, cands[0])
    last = mmd_points(K, x, x[cache.coreset]) ** 2
    for pos in range(cache.out_size):
        best, delta = cache.best_swap(pos)
        assert delta <= 0.0
        cache.apply_swap(pos, best)
        now = mmd_points(K, x, x[cache.coreset]) ** 2
        assert now <= last + 1e-12
        last = now


def test_swap_greedy_matches_exhaustive_per_position():
    # n = 16, m = 2: each position's choice equals the brute-force argmin
    for seed in range(20):
        x = gauss_points(seed, 16)
        cfg = ThinningConfig(m=2, seed=seed)
        cands = kt_split(K, x, cfg)
        pool = [baseline_thin(16, 2)] + cands
        mmds = [mmd_points(K, x, x[c]) for c in pool]
        cache = SwapCache(K, x, pool[int(np.argmin(mmds))])
        for pos in range(cache.out_size):
            full = []
            for z in range(16):
                modified = cache.coreset.copy()
                modified[pos] = z
                full.append(mmd_points(K, x, x[modified]) ** 2)
            brute = int(np.argmin(full))
            best, _ = cache.best_swap(pos)
            assert best == brute
            cache.apply_swap(pos, best)


def test_swap_baseline_domination_quick():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(32, 128))
        x = rng.normal(size=(n, int(rng.integers(1, 4))))
        cfg = ThinningConfig(m=int(rng.integers(1, 3)), seed=seed)
        out = generalized_kt(K, K, x, cfg)
        base = baseline_thin(n, cfg.m)
        p = DiscreteMeasure(x)
        assert mmd(K, p, DiscreteMeasure(x[out.indices])) <= (
            mmd(K, p, DiscreteMeasure(x[base])) + 1e-12
        )


@pytest.mark.parametrize("m", [1, 2])
def test_selection_mmds_match_mmd_points(m):
    # the strip-summed selection against the plain MMD, with coresets of
    # s > _ROWS
    x = gauss_points(32, 2400)
    cfg = ThinningConfig(m=m, seed=6)
    cands = kt_split(K, x, cfg)
    assert len(cands[0]) > _ROWS
    pool = [baseline_thin(len(x), m)] + cands
    got = kt_swap(K, x, cands, cfg).provenance["selection_mmds"]
    assert len(got) == len(pool)
    for value, c in zip(got, pool):
        assert value == pytest.approx(mmd_points(K, x, x[c]), rel=1e-12)


def test_swap_selection_evaluates_only_tiles_and_columns(monkeypatch):
    # at m = 1 the coresets have s = n / 2 points: each self-term runs over
    # _ROWS x _COLS strips instead of one s x s Gram, and gram_rows is never
    # called
    n = 2048
    x = gauss_points(33, n)
    cfg = ThinningConfig(m=1, seed=7)
    cands = kt_split(K, x, cfg)
    shapes = []
    inner = kn.evaluate

    def recording(k, a, b, **kwargs):
        out = inner(k, a, b, **kwargs)
        shapes.append(out.shape)
        return out

    def forbidden(*args):
        raise AssertionError("kt_swap called gram_rows")

    monkeypatch.setattr(kn, "evaluate", recording)
    monkeypatch.setattr(thinning, "gram_rows", forbidden)
    kt_swap(K, x, cands, cfg)
    assert shapes
    assert max(math.prod(shape) for shape in shapes) <= max(_ROWS * _COLS, n)


def test_swap_candidate_size_mismatch():
    x = gauss_points(30, 16)
    with pytest.raises(ValueError, match="differ in size"):
        kt_swap(K, x, [np.array([0, 1]), np.array([0, 1, 2])], ThinningConfig(m=3, seed=0))


@pytest.mark.parametrize("bad", [
    [-1, 3],  # -1 is also the swap cache's "no column kept" sentinel
    [0, 16],
    [0.0, 3.0],
    [[0, 3]],
    [True, False],
])
def test_swap_rejects_malformed_candidates(bad):
    x = gauss_points(31, 16)
    good = np.array([5, 9])
    with pytest.raises(ValueError, match=r"1-D integer array of entries in \[0, 16\)"):
        kt_swap(K, x, [good, bad], ThinningConfig(m=3, seed=0))


def test_swap_allows_duplicates_in_output():
    # two identical clusters: the argmin may pick the same point repeatedly
    x = np.concatenate([np.zeros((8, 1)), np.ones((8, 1))])
    cfg = ThinningConfig(m=2, seed=0)
    out = generalized_kt(K, K, x, cfg)
    assert len(out.indices) == 4  # duplicates permitted, size preserved


# ---------------------------------------------------------------------------
# the pipeline front-ends
# ---------------------------------------------------------------------------

def test_target_kt_is_generalized_with_equal_kernels():
    x = gauss_points(40, 64)
    cfg = ThinningConfig(m=2, seed=9)
    a = target_kt(K, x, cfg)
    b = generalized_kt(K, K, x, cfg)
    assert np.array_equal(a.indices, b.indices)


def test_power_kt_wiring_and_size():
    x = gauss_points(41, 64)
    cfg = ThinningConfig(m=2, seed=10)
    a = power_kt(K, x, cfg, alpha=0.5)
    b = generalized_kt(kn.power_kernel(K, 0.5, dim=2).power, K, x, cfg)
    assert np.array_equal(a.indices, b.indices)
    assert a.provenance["variant"] == "powerkt"
    assert len(a) == 16


def test_kt_plus_wiring():
    x = gauss_points(42, 64)
    cfg = ThinningConfig(m=2, seed=11)
    split = kn.ktplus_kernel(K, kn.power_kernel(K, 0.5, dim=2).power)
    assert kn.kernel_eval(split, x[0], x[0]) == 2.0
    a = kt_plus(K, x, cfg, alpha=0.5)
    b = generalized_kt(split, K, x, cfg)
    assert np.array_equal(a.indices, b.indices)


def test_power_kt_error_carries_hint():
    x = gauss_points(43, 64, d=4)
    cfg = ThinningConfig(m=2, seed=12)
    with pytest.raises(kn.NoClosedFormPowerError, match="explicit split kernel"):
        power_kt(kn.laplace(1.0), x, cfg, alpha=0.7)
    # explicit split kernel unblocks the same call
    out = power_kt(kn.laplace(1.0), x, cfg, alpha=0.7,
                   split_kernel=kn.matern(2.1, 1.0))
    assert len(out) == 16


def test_split_kernel_for_each_variant():
    half = kn.power_kernel(K, 0.5, dim=2).power
    explicit = kn.gauss(0.7)
    V = thinning.Variant
    assert V("standard").split_kernel_for(K, 2) is None
    assert V("targetkt").split_kernel_for(K, 2) == K
    assert V("powerkt", 0.5).split_kernel_for(K, 2) == half
    assert V("rootkt").split_kernel_for(K, 2) == half
    assert V("powerkt", 0.5, explicit).split_kernel_for(K, 2) == explicit
    assert V("ktplus", 0.5).split_kernel_for(K, 2) == kn.ktplus_kernel(K, half)
    assert V("ktplus", 0.5, explicit).split_kernel_for(K, 2) == kn.ktplus_kernel(K, explicit)
    assert V("generalized", split_kernel=explicit).split_kernel_for(K, 2) == explicit
    # without a split kernel alpha is required; beside one it may be left out
    for variant in ("powerkt", "ktplus"):
        with pytest.raises(kn.KernelError, match="requires an alpha or an explicit split kernel"):
            V(variant)
    assert V("powerkt", split_kernel=explicit).split_kernel_for(K, 2) == explicit
    for variant, alpha in (("powerkt", 7.0), ("ktplus", 0.1)):  # checked with a split kernel too
        with pytest.raises(kn.KernelError, match="alpha must lie in"):
            V(variant, alpha, explicit)
    with pytest.raises(kn.KernelError, match="requires an explicit split kernel"):
        V("generalized")
    for variant in (V("ktplus", 0.5), V("rootkt")):
        with pytest.raises(kn.NoClosedFormPowerError):
            variant.split_kernel_for(kn.imq(0.5, 1.0), 2)
    for name in ("standard", "targetkt", "rootkt"):
        with pytest.raises(kn.KernelError, match="takes no split kernel"):
            V(name, split_kernel=explicit)
    with pytest.raises(ValueError, match="^Variant spec key 'name'"):
        V("rootKT")


def test_target_kt_size_contract():
    out = target_kt(K, gauss_points(44, 16), ThinningConfig(m=2, seed=0))
    assert len(out) == 4


def test_odd_n_leftover_point_can_enter_via_swap():
    # the trailing point never enters candidates but the refinement argmin
    # ranges over the whole input, so it may appear in the result
    found = False
    for seed in range(40):
        x = gauss_points(seed + 100, 17, d=1)
        cfg = ThinningConfig(m=1, seed=seed)
        cands = kt_split(K, x, cfg)
        assert all(16 not in c for c in cands)
        out = kt_swap(K, x, cands, cfg)
        if 16 in out.indices:
            found = True
            break
    assert found


def test_pipeline_determinism_and_provenance():
    x = gauss_points(45, 128)
    cfg = ThinningConfig(m=3, seed=77)
    a = target_kt(K, x, cfg)
    b = target_kt(K, x, cfg)
    assert np.array_equal(a.indices, b.indices)
    prov = a.provenance
    assert prov["algorithm"] == "kt"
    assert 0 <= prov["candidate"] <= 2 ** 3
    assert prov["accepted_swaps"] >= 0
    assert prov["sigma_m"] > 0 and prov["p_sg"] <= 1.0


def test_split_kernel_scale_does_not_change_pipeline():
    x = gauss_points(46, 64)
    cfg = ThinningConfig(m=2, seed=13)
    a = generalized_kt(K, K, x, cfg)
    b = generalized_kt(K.scaled(7.3), K, x, cfg)
    assert np.array_equal(a.indices, b.indices)


def test_coreset_serialization():
    out = target_kt(K, gauss_points(47, 16), ThinningConfig(m=1, seed=0))
    blob = json.loads(out.to_json())
    assert blob["indices"] == out.indices.tolist()
    assert "provenance" in blob
    lines = out.to_csv().strip().splitlines()
    assert lines[0] == "index"
    assert [int(v) for v in lines[1:]] == out.indices.tolist()


def test_identity_perturbed_split_runs():
    x = gauss_points(48, 32)
    cfg = ThinningConfig(m=1, seed=14)
    k_split = kn.IdentityPerturbedKernel(K, weight=0.25)
    assert k_split.sup_norm() == 1.25
    out = generalized_kt(k_split, K, x, cfg)
    assert len(out) == 16
