"""Kernel thinning: randomized halving into candidate coresets, then
selection and greedy refinement against a baseline.

The pipeline has two stages.  The split stage halves the input m times:
level j splits each of its 2^(j-1) parent coresets pair by pair, keeping
the within-pair assignment balanced through a probabilistic swap rule driven
by running sub-Gaussian scale parameters; it emits 2^m candidate coresets of
size floor(n / 2^m).  The swap stage picks the candidate (or a
standard-thinning baseline) with the smallest MMD to the input and then
sweeps the coreset once, replacing each element by whichever input point
most reduces MMD.  The returned coreset therefore never has larger MMD to
the input than the baseline does.

Randomness is confined to the split stage and drawn from counter-based
streams keyed by (round, level, slot), so results are reproducible across
platforms and independent of evaluation order.  The split draws every
uniform up front, one vectorized Philox pass (`rng.swap_uniforms`) per
level, bit-identical to drawing each with `rng.swap_uniform`.  It then runs
over aligned blocks of 2^m input points, and within a block level by level.
Each block has its split-kernel columns against the input prefix computed
once, in one array of at most 8 2^m n bytes, and all m levels read their
kernel values from it.  A level first runs the scale recursion over all of
the block's pairs, which needs only their squared kernel distances, and
then decides the pairs in order, halving all slots of a level in one array
operation.  Swap decisions depend on the split kernel only through
scale-free ratios, so the kernel's scale factor is divided out up front;
c * k yields the same candidates as k under the same seed, bitwise.

The blocks cover the lower triangle of the split kernel's Gram matrix, so
the split also adds up its row sums.  When the split kernel is the target
kernel up to scale (target KT, or generalized KT with k_split = c * k), the
swap stage takes its row means from those sums and the whole pipeline
evaluates about n^2 / 2 kernel entries instead of n^2.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import rng
from .discrepancy import SwapCache, _as_indices, _quadratic_form, kernel_row_means
# gram and gram_rows are not called here; they stay module attributes because
# perfbench/spans.py traces the kernel boundary by wrapping
# kthin.thinning.gram and kthin.thinning.gram_rows
from .kernels import (  # noqa: F401
    IdentityPerturbedKernel,
    KernelSpec,
    KernelError,
    _as_number,
    _as_points,
    _check_alpha,
    evaluate,
    gram,
    gram_rows,
    ktplus_kernel,
    power_kernel,
)


@dataclass(frozen=True)
class ThinningConfig:
    """Thinning depth, seed, and per-round failure probabilities.

    The output size is floor(n / 2^m).  `delta_rule` "known_n" gives each
    round i = 1..floor(n/2) the budget delta_i = delta / n (it needs the
    input length up front); "oblivious" gives
    delta_i = m * delta / (2^(m+2) * (i+1) * log^2(i+1)), valid for any
    stopping time.  The seed must be an integer; negative and large ones wrap
    modulo 2^64.  Kernels are passed to the thinning operations directly
    rather than stored here.
    """

    m: int = 1
    seed: int = 0
    delta: float = 0.5
    delta_rule: str = "known_n"

    def __post_init__(self):
        # m and delta are read as JSON numbers are: a bool, a string or a
        # non-finite value fails here, naming its field
        m = _number(self.m, int) if isinstance(self.m, numbers.Integral) else None
        if m is None or m < 1:
            raise ValueError(f"thinning depth m must be an integer >= 1, got {self.m!r}")
        rng._as_u64(self.seed)
        if self.delta_rule not in ("known_n", "oblivious"):
            raise ValueError(f"unknown delta rule {self.delta_rule!r}")
        delta = _number(self.delta, float)
        if delta is None or not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "delta", delta)

    def deltas(self, n: int) -> list[float]:
        """[delta_1, ..., delta_floor(n/2)] for an input of n points."""
        if self.delta_rule == "known_n":
            return [self.delta / n] * (n // 2)
        m = self.m
        return [m * self.delta / (2 ** (m + 2) * (i + 1) * math.log(i + 1) ** 2)
                for i in range(1, n // 2 + 1)]


def _number(value, kind: type):
    """value through `kernels._as_number`, or None where that rejects it."""
    try:
        return _as_number(value, kind)
    except ValueError:
        return None


@dataclass
class Coreset:
    """Indices into the input point set plus provenance of how they were chosen."""

    indices: np.ndarray
    provenance: dict

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)

    def __len__(self) -> int:
        return len(self.indices)

    def to_json(self) -> str:
        return json.dumps(
            {"indices": self.indices.tolist(), "provenance": self.provenance}
        )

    def to_csv(self) -> str:
        return "\n".join(["index"] + [str(i) for i in self.indices]) + "\n"


# ---------------------------------------------------------------------------
# the split stage
# ---------------------------------------------------------------------------

def get_swap_params(sigma_sq: float, b_sq: float, delta_hat: float) -> tuple[float, float]:
    """One step of the swap-threshold recursion, on Python floats.

    Args:
      sigma_sq: current squared sub-Gaussian scale of one (level, slot), >= 0.
      b_sq: squared within-pair kernel distance k(x,x) + k(y,y) - 2k(x,y), >= 0.
      delta_hat: failure-probability budget for this step.

    Returns:
      (threshold a, updated sigma_sq).  With sigma = 0 the update reduces to
      sigma_sq = b_sq.  With b^2 = 0 either assignment of the pair is
      equivalent: the result is (0.0, sigma_sq), sigma unchanged, and the
      caller does not swap.
    """
    if b_sq == 0.0:
        return 0.0, sigma_sq
    # clamped at 0: extreme schedules can push delta_hat above 2
    log_term = max(0.0, 2.0 * math.log(2.0 / delta_hat))
    a = max(math.sqrt(b_sq * sigma_sq * log_term), b_sq)
    growth = max(1.0 + (b_sq - 2.0 * a) * sigma_sq / (a * a), 0.0)
    return a, sigma_sq + b_sq * growth


def swap_probability(alpha: float, a: float) -> float:
    """min(1, (1 - alpha/a)_+ / 2): always in [0, 1], and 1/2 when alpha = 0."""
    return min(1.0, max(0.0, 0.5 * (1.0 - alpha / a)))


def _split_base(k_split) -> tuple[KernelSpec, float]:
    """(the split kernel's base divided by its sup-norm, its identity weight)."""
    if isinstance(k_split, IdentityPerturbedKernel):
        return k_split.base.normalized(), k_split.weight
    if isinstance(k_split, KernelSpec):
        return k_split.normalized(), 0.0
    raise KernelError(f"unsupported split kernel type {type(k_split).__name__}")


def kt_split(k_split, points, cfg: ThinningConfig) -> list[np.ndarray]:
    """Divide the input into 2^m candidate coresets of size floor(n / 2^m).

    Consumes the input in consecutive pairs (x_{2i-1}, x_{2i}); with odd n
    the final point is skipped here (it stays eligible for the refinement
    stage).  Returns index arrays into `points`.

    Level j halves each of its 2^(j-1) parent coresets pair by pair, in
    order: its t-th pair (x, x~) is the parent's points 2t - 1 and 2t, and
    all slots of a level are one array operation.  The pair splits against

        alpha = sum_{y in right child} [k(y, x) - k(y, x~)]
                - sum_{y in left child} [k(y, x) - k(y, x~)],

    which equals the parent/left-child form of the algorithm (the pair's own
    terms cancel).  It never meets a pair's own index, so the identity
    perturbation only adds 2w to b^2 = k(x, x) + k(x~, x~) - 2 k(x, x~).
    The split computes alpha as written, from the points each child already
    holds.

    The loops run block, then level, then pair.  An aligned block
    B = [2^m q, 2^m (q + 1)) of input points feeds exactly the pairs
    t in (2^(m-j) q, 2^(m-j) (q + 1)] of every level j, and those pairs
    depend only on B's earlier levels, on the uniforms addressed by
    (round, level, slot), and on sigma^2, which stays sequential in t within
    each level; so this order makes the same decisions as consuming the
    input pair by pair.  The threshold a and sigma^2 depend on the pairs'
    b^2 alone, so each level runs its scale recursion over all of the
    block's pairs first and then decides them in order.  k(y, x) for x in B
    and every y before B's end comes from one `evaluate` call, and each pair
    reads its values from it with one gather over the children built so
    far.  A block holds at most 2^m x n doubles, 8 2^m n bytes (0.5 MB at
    n = 2048, m = 5; 2 MB at n = 4096, m = 6).  The split evaluates
    sum_B |B| (end of B) kernel entries, about n^2 / 2, and adds up the
    blocks' row sums as it goes: when the split kernel is the target kernel
    up to scale, `generalized_kt` takes the swap stage's row means from them
    (with one more kernel column for the last point when n is odd).

    Args:
      k_split: KernelSpec or IdentityPerturbedKernel used for swap decisions.
      points: (n, d) input array.
      cfg: thinning configuration; cfg.m halvings, round t's failure budget
        cfg.deltas(n)[t - 1], counter-based randomness from cfg.seed.
    """
    return _split(k_split, points, cfg)[0]


def _split(k_split, points, cfg: ThinningConfig) -> tuple[list[np.ndarray], np.ndarray]:
    """`kt_split`'s candidates, and the blocks' row sums of the split
    kernel's normalized base (`_split_base`): sum_y k(x, y) over every y in
    the first 2 floor(n / 2) points, for every x (0 for the last point of
    an odd input, which is in no block)."""
    points = _as_points(points)
    n, d = points.shape
    if n < 2:
        raise ValueError(f"kt_split needs at least 2 points, got {n}")
    m = cfg.m
    if n // 2 ** m < 1:
        raise ValueError(f"m={m} too large for n={n}: output would be empty")
    # the scale factor is divided out: the swap ratio and the scale recursion
    # are invariant to positive rescaling, and this makes that exact
    kernel, weight = _split_base(k_split)
    kernel.validate_dim(d)
    diag = kernel.sup_norm() + weight
    deltas = cfg.deltas(n)
    used = 2 * (n // 2)

    # Level j holds 2^j coresets of used >> j points; level 0 is the input.
    # Children 2l and 2l+1 of parent l are written side by side through a
    # (2^(j-1), 2, used >> j) view.
    idx = [np.arange(used)[None]] + [np.empty((2 ** j, used >> j), int) for j in range(1, m + 1)]
    sigma_sq = [None] + [[0.0] * 2 ** (j - 1) for j in range(1, m + 1)]
    uniforms = _split_uniforms(cfg.seed, used // 2, m)
    sums = np.zeros(n)

    for s0 in range(0, used, 2 ** m):
        end = min(s0 + 2 ** m, used)
        # kb[w, y] = k(points[y], points[s0 + w]): the block's points
        # against every input point up to the block's end, which is the
        # block's rows of the lower triangle and its columns of the upper
        kb = evaluate(kernel, points[None, :end], points[s0:end, None])
        sums[s0:end] += kb.sum(1)
        sums[:s0] += kb[:, :s0].sum(0)
        for j in range(1, m + 1):
            slots, t0, t1 = 2 ** (j - 1), (s0 >> j) + 1, (end >> j) + 1
            children = idx[j].reshape(slots, 2, -1)
            # pairs[l, i] = (x, x~) of slot l's pair t0 + i, and base its
            # members' row offsets into the flat kb
            pairs = idx[j - 1][:, 2 * t0 - 2:2 * t1 - 2].reshape(slots, t1 - t0, 2)
            base = (pairs - s0) * end
            b_sq = np.maximum(diag + diag - 2.0 * kb.take(base[..., 1] + pairs[..., 0]), 0.0)

            # the scale recursion, sequential in t within each slot
            delta_hats = [deltas[t - 1] * 2 ** (j - 1) / m for t in range(t0, t1)]
            thresholds = []
            for l, row in enumerate(b_sq.tolist()):
                s, a_row = sigma_sq[j][l], []
                for b, delta_hat in zip(row, delta_hats):
                    a, s = get_swap_params(s, b, delta_hat)
                    a_row.append(a)
                sigma_sq[j][l] = s
                thresholds.append(a_row)
            # b^2 = 0: either assignment is equivalent and the pair never
            # swaps; a NaN threshold makes the swap test below false
            thresholds = np.where(b_sq > 0.0, thresholds, np.nan)

            # pair-major views: index i holds the block's pair t0 + i of
            # every slot, shaped to broadcast against the (slots, 1) alpha
            pairs, base = pairs.swapaxes(0, 1), base.swapaxes(0, 1)[..., None, None]
            thresholds, u = thresholds.T[..., None], uniforms[j][t0 - 1:t1 - 1, :, None]
            for i, t in enumerate(range(t0, t1)):
                # k_y[l, p, h, i] = k(y, pair member p) for the i-th point
                # y of child h of parent l, over the t - 1 points each
                # child already holds
                k_y = kb.take(base[i] + children[:, None, :, :t - 1])
                per_child = (k_y[:, 0] - k_y[:, 1]).sum(axis=2)
                alpha = per_child[:, 1:] - per_child[:, :1]
                # u in [0, 1) falls below 0.5 (1 - alpha / a) exactly when
                # it falls below swap_probability(alpha, a), its clamp to
                # [0, 1]
                swap = u[i] < 0.5 * (1.0 - alpha / thresholds[i])
                # children 2l and 2l+1 receive (x, x~), reversed on a swap
                children[:, :, t - 1] = np.where(swap, pairs[i, :, ::-1], pairs[i])
    return list(idx[m]), sums


def _split_uniforms(seed: int, rounds: int, m: int) -> list:
    """uniforms[j][t - 1, l - 1] = swap_uniform(seed, t 2^(j-1), j, l), the
    draw of slot l at the t-th halving of level j, one Philox pass per level."""
    return [None] + [
        rng.swap_uniforms(seed, np.arange(1, (rounds >> (j - 1)) + 1)[:, None] << (j - 1), j,
                          np.arange(1, 2 ** (j - 1) + 1))
        for j in range(1, m + 1)
    ]


# ---------------------------------------------------------------------------
# baseline and the swap stage
# ---------------------------------------------------------------------------

def baseline_thin(n: int, m: int) -> np.ndarray:
    """Standard thinning: every 2^m-th index, anchored to include the last.

    m = 0 returns the identity selection.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    size = n // 2 ** m
    if size < 1:
        raise ValueError(f"m={m} too large for n={n}")
    return anchored_stride(n, size, 2 ** m)


def anchored_stride(n: int, size: int, step: int) -> np.ndarray:
    """Every step-th index of range(n), `size` of them, ending at n - 1:
    index j is n - 1 - step (size - 1 - j)."""
    return n - 1 - step * np.arange(size - 1, -1, -1)


def kt_swap(
    k: KernelSpec,
    points,
    candidates: list[np.ndarray],
    cfg: ThinningConfig,
    row_mean: np.ndarray | None = None,
) -> Coreset:
    """Select the best of {baseline, candidates} by MMD, then refine it.

    One greedy sweep over coreset positions replaces each element by the
    input point minimizing the resulting MMD (ties to the lowest index).
    The incumbent is always a valid replacement, so MMD never increases and
    the result never exceeds the baseline's MMD to the input.

    `row_mean`, if given, is the input's row means (1/n) sum_y k(z, y), as
    for `SwapCache`; otherwise they are computed with `kernel_row_means`.

    At m = 1 on an even input the two split candidates are the two halves of
    the input, whose MMDs to it are equal in exact arithmetic, so rounding
    decides which of them is selected.
    """
    points = _as_points(points)
    n = len(points)
    if not candidates:
        raise ValueError("kt_swap needs at least one candidate coreset")
    candidates = [_as_indices(c, n) for c in candidates]
    sizes = {len(c) for c in candidates}
    if len(sizes) != 1:
        raise ValueError(f"candidate coresets differ in size: {sorted(sizes)}")

    base = baseline_thin(n, cfg.m)
    if len(base) != len(candidates[0]):
        raise ValueError(
            f"baseline size {len(base)} does not match candidate size {len(candidates[0])}"
        )

    # the row means serve candidate ranking and the refinement cache: one
    # pass of n^2 / 2 kernel evaluations unless the split already summed them
    if row_mean is None:
        row_mean = kernel_row_means(k, points)
    input_self = float(row_mean.mean())

    pool = [base] + list(candidates)
    mmd_sqs = []
    for c in pool:
        coreset_self = _quadratic_form(k, points[c], np.full(len(c), 1.0 / len(c)))
        cross = 2.0 * float(row_mean[c].mean())
        mmd_sqs.append(max(0.0, input_self + coreset_self - cross))
    chosen = int(np.argmin(mmd_sqs))

    cache = SwapCache(k, points, pool[chosen], row_mean=row_mean)
    accepted = 0
    for pos in range(cache.out_size):
        best, _ = cache.best_swap(pos)
        if best != cache.coreset[pos]:
            accepted += 1
        cache.apply_swap(pos, best)

    return Coreset(
        indices=cache.coreset.copy(),
        provenance={
            "algorithm": "kt",
            "candidate": chosen,  # 0 = baseline, 1..2^m = split candidates
            "accepted_swaps": accepted,
            "selection_mmds": [float(np.sqrt(v)) for v in mmd_sqs],
        },
    )


# ---------------------------------------------------------------------------
# the full pipeline and its front-ends
# ---------------------------------------------------------------------------

def _sigma_diagnostics(n: int, cfg: ThinningConfig, k_sup: float) -> dict:
    """High-probability bound parameters of the split stage, for reporting only.

    p_sg is reported with the conventional choice delta' = delta / 2.
    """
    m, deltas = cfg.m, cfg.deltas(n)
    sigma_m = (
        2.0 / math.sqrt(3.0) * 2 ** m / n
        * math.sqrt(k_sup * max(0.0, math.log(6 * m / (2 ** m * min(deltas)))))
    )
    level_sum = sum(2 ** (j - 1) / m * sum(deltas[:n // 2 ** j]) for j in range(1, m + 1))
    p_sg = 1.0 - cfg.delta / 2.0 - level_sum
    return {"sigma_m": sigma_m, "p_sg": p_sg}


def split_kernel_for(variant: str, k: KernelSpec, dim: int,
                     alpha: float | None = None, split_kernel=None):
    """The split kernel of a KT variant with target kernel k on dim-dimensional
    input.  Every variant is generalized KT with one of these split kernels:

      targetkt     k itself
      powerkt      `split_kernel` if given, else the closed-form alpha-power of k
      ktplus       ktplus_kernel(k, that power kernel)
      generalized  `split_kernel`, which it requires

    Raises NoClosedFormPowerError when powerkt or ktplus needs a closed form
    that k lacks in dimension dim, and KernelError for generalized without
    `split_kernel`, an unknown variant, or powerkt or ktplus with alpha
    missing or outside [1/2, 1] where the power kernel is built from it, or
    given beside `split_kernel` and outside [1/2, 1].
    """
    if variant == "targetkt":
        return k
    if variant == "generalized":
        if split_kernel is None:
            raise KernelError("variant generalized requires an explicit split kernel")
        return split_kernel
    if variant not in ("powerkt", "ktplus"):
        raise KernelError(f"unknown KT variant {variant!r}")
    if split_kernel is None:
        split_kernel = power_kernel(k, alpha, dim=dim).power
    elif alpha is not None:
        _check_alpha(alpha)
    return split_kernel if variant == "powerkt" else ktplus_kernel(k, split_kernel)


def generalized_kt(k_split, k_target: KernelSpec, points, cfg: ThinningConfig) -> Coreset:
    """Split with k_split, then select and refine with k_target.

    When k_split, less any identity perturbation, is k_target up to scale,
    the swap stage takes the input's row means from the split's row sums
    instead of evaluating the Gram matrix a second time.
    """
    points = _as_points(points)
    candidates, sums = _split(k_split, points, cfg)
    kernel, _ = _split_base(k_split)
    row_mean = None
    if kernel == k_target.normalized():
        if len(points) % 2:
            # the last point of an odd input is in no block: one column for it
            last = evaluate(kernel, points, points[-1])
            sums[:-1] += last[:-1]
            sums[-1] = last.sum()
        row_mean = sums * (k_target.scale / kernel.scale) / len(points)
    out = kt_swap(k_target, points, candidates, cfg, row_mean=row_mean)
    out.provenance.update(_sigma_diagnostics(len(points), cfg, k_split.sup_norm()))
    return out


def _variant_kt(variant: str, k: KernelSpec, points, cfg: ThinningConfig,
                alpha: float | None = None, split_kernel=None) -> Coreset:
    """Generalized KT with the variant's split kernel, refined with k, and the
    variant (and the alpha the split kernel was built from) recorded in the
    provenance."""
    points = _as_points(points)
    k_split = split_kernel_for(variant, k, points.shape[1], alpha, split_kernel)
    out = generalized_kt(k_split, k, points, cfg)
    out.provenance["variant"] = variant
    if variant != "targetkt" and split_kernel is None:
        out.provenance["alpha"] = alpha
    return out


def target_kt(k: KernelSpec, points, cfg: ThinningConfig) -> Coreset:
    """Generalized thinning with the target kernel doing both stages."""
    return _variant_kt("targetkt", k, points, cfg)


def power_kt(
    k: KernelSpec,
    points,
    cfg: ThinningConfig,
    alpha: float,
    split_kernel: KernelSpec | None = None,
) -> Coreset:
    """Split with the alpha-power kernel of k, refine with k.

    If the family has no closed-form power kernel, pass `split_kernel`
    explicitly.
    """
    return _variant_kt("powerkt", k, points, cfg, alpha, split_kernel)


def kt_plus(
    k: KernelSpec,
    points,
    cfg: ThinningConfig,
    alpha: float,
    split_kernel: KernelSpec | None = None,
) -> Coreset:
    """Split with the normalized sum of k and its alpha-power, refine with k.

    `split_kernel`, when given, replaces the closed-form power kernel as the
    second summand.
    """
    return _variant_kt("ktplus", k, points, cfg, alpha, split_kernel)
