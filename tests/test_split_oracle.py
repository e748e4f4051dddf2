"""The slot-batched KT-SPLIT against the scalar split it replaced.

`oracle_split` is the original one-slot-at-a-time loop: alpha in the
parent/left-child form, one `gram_rows` call per kernel row and one Philox
generator per draw.  The library's split evaluates the signed-sum form for
every slot of a level at once and draws all uniforms in one pass, so the two
agree on every decision unless a uniform lands within rounding of a swap
probability; the battery below expects index-identical candidates.
"""

import numpy as np
import pytest

from kthin import kernels as kn
from kthin import rng
from kthin.kernels import IdentityPerturbedKernel, gram_rows
from kthin.thinning import ThinningConfig, get_swap_params, kt_split, swap_probability


class _Evaluator:
    """Index-based split-kernel evaluation with the kernel's scale divided out,
    and the identity perturbation added per index pair."""

    def __init__(self, k_split, points):
        if isinstance(k_split, IdentityPerturbedKernel):
            base, self.weight = k_split.base, k_split.weight
        else:
            base, self.weight = k_split, 0.0
        base.validate_dim(points.shape[1])
        self.kernel = base.normalized()
        self.points = points
        self.diag_value = self.kernel.sup_norm() + self.weight

    def pair(self, i, j):
        val = float(gram_rows(self.kernel, self.points, [i], [j])[0, 0])
        return val + self.weight if i == j else val

    def rows_pair(self, idxs, j1, j2):
        """k(points[idxs], points[j1]) and k(points[idxs], points[j2])."""
        if not idxs:
            return np.zeros(0), np.zeros(0)
        block = gram_rows(self.kernel, self.points, idxs, [j1, j2])
        v1, v2 = block[:, 0], block[:, 1]
        for pos, idx in enumerate(idxs):
            if idx == j1:
                v1[pos] += self.weight
            if idx == j2:
                v2[pos] += self.weight
        return v1, v2


def oracle_split(k_split, points, cfg, stats=None):
    """The scalar split; `stats`, if given, counts b^2 = 0 pairs ("tied")."""
    stats = {} if stats is None else stats
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = len(points)
    m = cfg.m
    ev = _Evaluator(k_split, points)
    deltas = cfg.deltas(n)
    coresets = [[[] for _ in range(2 ** j)] for j in range(m + 1)]
    sigma_sq = [np.zeros(2 ** max(j - 1, 0)) for j in range(m + 1)]
    for i in range(1, n // 2 + 1):
        coresets[0][0].append(2 * i - 2)
        coresets[0][0].append(2 * i - 1)
        j = 1
        while j <= m and i % 2 ** (j - 1) == 0:
            for l in range(2 ** (j - 1)):
                parent = coresets[j - 1][l]
                left_child = coresets[j][2 * l]
                x, xt = parent[-2], parent[-1]
                k_xx = k_tt = ev.diag_value
                k_xt = ev.pair(x, xt)
                b_sq = max(0.0, k_xx + k_tt - 2.0 * k_xt)
                if b_sq == 0.0:
                    stats["tied"] = stats.get("tied", 0) + 1
                    left_child.append(x)
                    coresets[j][2 * l + 1].append(xt)
                    continue
                delta_i = deltas[len(parent) // 2 - 1]
                a, sigma_sq[j][l] = get_swap_params(
                    float(sigma_sq[j][l]), b_sq, delta_i * 2 ** (j - 1) / m
                )
                # alpha = k(xt,xt) - k(x,x) + sum_{y in parent} (k(y,x) - k(y,xt))
                #         - 2 sum_{z in left child} (k(z,x) - k(z,xt))
                par_x, par_t = ev.rows_pair(parent, x, xt)
                alpha = k_tt - k_xx + float(np.sum(par_x) - np.sum(par_t))
                if left_child:
                    ch_x, ch_t = ev.rows_pair(left_child, x, xt)
                    alpha -= 2.0 * float(np.sum(ch_x) - np.sum(ch_t))
                if rng.swap_uniform(cfg.seed, i, j, l + 1) < swap_probability(alpha, a):
                    x, xt = xt, x
                left_child.append(x)
                coresets[j][2 * l + 1].append(xt)
            j += 1
    return [np.asarray(c, dtype=int) for c in coresets[m]]


def _family_kernel(family, d, gen):
    """A random kernel of the family that is valid in dimension d."""
    u = float(gen.uniform(0.5, 2.0))
    if family == "gauss":
        return kn.gauss(u)
    if family == "laplace":
        return kn.laplace(u)
    if family == "matern":
        # half-integer orders take the closed form, the others scipy's Bessel
        return kn.matern(d / 2.0 + float(gen.choice([0.5, 1.5, 0.3, 1.125])), u)
    if family == "imq":
        return kn.imq(float(gen.choice([0.5, 1.0, 2.5])), u)
    if family == "sinc":
        return kn.sinc(u)
    if family == "bspline":
        return kn.bspline(int(gen.integers(0, 3)), u)
    if family == "sum":
        return kn.kernel_sum(kn.gauss(u), kn.laplace(2.0 * u, scale=0.5))
    if family == "ktplus":
        return kn.ktplus_kernel(kn.laplace(u), kn.matern(d / 2.0 + 0.125, 1.0 / u))
    return IdentityPerturbedKernel(kn.gauss(u), weight=float(gen.choice([1.0, 0.25])))


FAMILIES = ("gauss", "laplace", "matern", "imq", "sinc", "bspline", "sum", "ktplus", "perturbed")


def _instance(case):
    gen = np.random.default_rng(case)
    family = FAMILIES[case % len(FAMILIES)]
    d = int(gen.integers(1, 4))
    m = int(gen.integers(1, 4))
    n = int(gen.integers(2 ** m, 2 ** m * 10 + 4))  # odd n included
    if case % 4 == 3:
        # a coarse grid: many identical points, identical pairs, tied alphas
        x = gen.integers(-2, 3, size=(n, d)).astype(float)
    else:
        x = gen.normal(size=(n, d)) * float(gen.uniform(0.3, 3.0))
        firsts, seconds = x[0:2 * (n // 2):2], x[1:2 * (n // 2):2]
        if case % 4 == 1:
            dup = gen.random(n // 2) < 0.3
            seconds[dup] = firsts[dup]  # identical pairs
        elif case % 4 == 2:
            # near-identical pairs: b^2 of order 1e-6 next to pairs of order 1
            near = gen.random(n // 2) < 0.5
            seconds[near] = firsts[near] + 1e-3 * gen.normal(size=(int(near.sum()), d))
    rule = "oblivious" if case % 2 else "known_n"
    cfg = ThinningConfig(m=m, delta=float(gen.uniform(0.05, 0.9)), delta_rule=rule,
                         seed=int(gen.integers(-2 ** 63, 2 ** 63)))
    return _family_kernel(family, d, gen), x, cfg


@pytest.mark.parametrize("block", range(9))
def test_split_matches_scalar_oracle(block):
    # 9 blocks of 25 instances: every family, sum and perturbed kernels,
    # d = 1..3, m = 1..3, odd and even n, both delta rules
    stats = {}
    for case in range(block * 25, (block + 1) * 25):
        k, x, cfg = _instance(case)
        got = kt_split(k, x, cfg)
        want = oracle_split(k, x, cfg, stats)
        assert len(got) == len(want) == 2 ** cfg.m
        for a, b in zip(got, want):
            assert np.array_equal(a, b), (case, k, cfg)
    # every block meets b^2 = 0 pairs, which skip the threshold update
    assert stats.get("tied", 0) > 0, stats
