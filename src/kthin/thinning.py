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
once, into one buffer of 8 2^m n bytes that every block reuses, and all m
levels read their kernel values from it.  A level first runs the scale
recursion over all of the block's pairs, which needs only their squared
kernel distances, and then decides the pairs in order, halving all slots of
a level in one array operation.  Swap decisions depend on the split kernel only through
scale-free ratios, so the kernel's scale factor is divided out up front;
c * k yields the same candidates as k under the same seed, bitwise.

The blocks cover the lower triangle of the split kernel's Gram matrix, so
the split also adds up its row sums.  When the split kernel is the target
kernel up to scale (target KT, or generalized KT with k_split = c * k), the
swap stage takes its row means from those sums and the whole pipeline
evaluates about n^2 / 2 kernel entries instead of n^2.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from . import rng
from .discrepancy import Reference, SwapCache, _as_indices, kernel_row_means
# gram and gram_rows are not called here; they stay module attributes because
# perfbench/spans.py traces the kernel boundary by wrapping
# kthin.thinning.gram and kthin.thinning.gram_rows
from .kernels import (  # noqa: F401
    IdentityPerturbedKernel,
    KernelSpec,
    KernelError,
    _as_points,
    _check_alpha,
    _read_fields,
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
    stopping time.  m and the seed are integers, read as in plan.json (2.0
    reads as 2); a negative or large seed wraps modulo 2^64.  Kernels are
    passed to the thinning operations directly rather than stored here.
    """

    m: int = 1
    seed: int = 0
    delta: float = 0.5
    delta_rule: Literal["known_n", "oblivious"] = "known_n"

    def __post_init__(self):
        _read_fields(self)
        if self.m < 1:
            raise ValueError(f"thinning depth m must be an integer >= 1, got {self.m!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")

    def deltas(self, n: int) -> list[float]:
        """[delta_1, ..., delta_floor(n/2)] for an input of n points."""
        if self.delta_rule == "known_n":
            return [self.delta / n] * (n // 2)
        m = self.m
        return [m * self.delta / (2 ** (m + 2) * (i + 1) * math.log(i + 1) ** 2)
                for i in range(1, n // 2 + 1)]


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
    far.  A block holds at most 2^m x n doubles, and every block is written
    into one buffer of that size, 8 2^m n bytes (0.5 MB at n = 2048, m = 5;
    2 MB at n = 4096, m = 6), which gauss, laplace and imq fill in place.
    The split evaluates sum_B |B| (end of B) kernel entries, about n^2 / 2,
    and adds up the blocks' row sums as it goes: when the split kernel is
    the target kernel up to scale, `thin` takes the swap stage's
    row means from them (with one more kernel column for the last point
    when n is odd).

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
    # every block is evaluated into this one buffer, reshaped to the block so
    # that kb stays C-contiguous and the flat offsets below stay valid
    buf = np.empty(2 ** m * used)

    for s0 in range(0, used, 2 ** m):
        end = min(s0 + 2 ** m, used)
        # kb[w, y] = k(points[y], points[s0 + w]): the block's points
        # against every input point up to the block's end, which is the
        # block's rows of the lower triangle and its columns of the upper
        kb = evaluate(kernel, points[None, :end], points[s0:end, None],
                      out=buf[:(end - s0) * end].reshape(end - s0, end))
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

    Candidates are ranked by the input's `Reference`.  `row_mean`, its row
    means (1/n) sum_y k(z, y), is computed with `kernel_row_means` unless
    given, and must then be a finite array of shape (n,), else a ValueError.

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
    ref = Reference(k, points, kernel_row_means(k, points) if row_mean is None else row_mean)
    pool = [base] + list(candidates)
    mmd_sqs = [ref.mmd_sq(c) for c in pool]
    chosen = int(np.argmin(mmd_sqs))

    cache = SwapCache(k, points, pool[chosen], row_mean=ref.row_mean)
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


class _Entry(NamedTuple):
    seed_id: int
    takes_alpha: bool
    takes_split_kernel: bool
    build: Callable


def _power(v: Variant, k: KernelSpec, dim: int, alpha: float):
    """v's explicit split kernel, else the closed-form alpha-power of k."""
    return power_kernel(k, alpha, dim=dim).power if v.split_kernel is None else v.split_kernel


# Every variant but standard thinning (every 2^m-th point) is generalized KT
# refined with the target kernel k and split with the kernel that `build`
# makes from the variant v, k and the input dimension.  The harness derives
# each study cell's seed from `seed_id`, so raw.csv depends on it.
VARIANTS = {
    "standard": _Entry(0, False, False, lambda v, k, dim: None),
    "targetkt": _Entry(1, False, False, lambda v, k, dim: k),
    "powerkt": _Entry(2, True, True, lambda v, k, dim: _power(v, k, dim, v.alpha)),
    "ktplus": _Entry(3, True, True, lambda v, k, dim: ktplus_kernel(k, _power(v, k, dim, v.alpha))),
    "rootkt": _Entry(4, False, False, lambda v, k, dim: _power(v, k, dim, 0.5)),
    "generalized": _Entry(5, False, True, lambda v, k, dim: v.split_kernel),
}


@dataclass(frozen=True)
class Variant:
    """A thinning method, named by a key of `VARIANTS`.

    `alpha`, a JSON number in [1/2, 1], is the exponent of k's closed-form
    power kernel, and `split_kernel` replaces that kernel.  A variant that
    takes either needs one of them and checks a given alpha all the same.
    """

    name: Literal[tuple(VARIANTS)]
    alpha: float | None = None
    split_kernel: KernelSpec | IdentityPerturbedKernel | None = None

    def __post_init__(self):
        _read_fields(self)
        _, takes_alpha, takes_split_kernel, _ = VARIANTS[self.name]
        if self.alpha is not None and not takes_alpha:
            takers = " and ".join(name for name, e in VARIANTS.items() if e.takes_alpha)
            raise ValueError(f"variant {self.name} with alpha {self.alpha}: {takers} "
                             "take an alpha, the other variants take none")
        if self.split_kernel is not None and not takes_split_kernel:
            raise KernelError(f"variant {self.name} takes no split kernel")
        if self.alpha is not None:
            _check_alpha(self.alpha)
        elif self.split_kernel is None and takes_split_kernel:
            raise KernelError(f"variant {self.name} requires "
                              f"{'an alpha or ' if takes_alpha else ''}an explicit split kernel")

    @property
    def tag(self) -> str:
        """The name in raw.csv and report.json: the table name, then any
        alpha, then a digest of any explicit split kernel, say
        `powerkt(a=0.5)[k=1f0e9c2a]`; no comma or `|`, which both files use."""
        tag = self.name if self.alpha is None else f"{self.name}(a={self.alpha:g})"
        return tag if self.split_kernel is None else f"{tag}[k={self._split_digest()}]"

    def _seed_parts(self) -> tuple[int, ...]:
        alpha = self.alpha if self.alpha is not None else -1.0
        parts = VARIANTS[self.name].seed_id, int(round(alpha * 1e6))
        return parts if self.split_kernel is None else (*parts, int(self._split_digest(), 16))

    def _split_digest(self) -> str:
        """8 hex digits of the sha256 of the split kernel's canonical JSON
        (an identity-perturbed kernel's: its base's, with the weight)."""
        k = self.split_kernel
        obj = k.to_json_dict() if isinstance(k, KernelSpec) else {
            "base": k.base.to_json_dict(), "identity_weight": k.weight}
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:8]

    def split_kernel_for(self, k: KernelSpec, dim: int):
        """The split kernel for target kernel k on dim-dimensional input, or
        None for standard thinning.  Raises NoClosedFormPowerError when the
        power kernel it needs has no closed form for k in dimension dim."""
        return VARIANTS[self.name].build(self, k, dim)


def thin(variant: Variant, k: KernelSpec, points, cfg: ThinningConfig) -> Coreset:
    """Thin points with the variant, selecting and refining with k.

    Standard thinning keeps every 2^m-th point.  Every other variant splits
    with `variant.split_kernel_for(k, d)` and runs `kt_swap` with k, fed the
    split's row sums when they are k's (see the module docstring).  The
    provenance names the variant, and the alpha of a power kernel built
    from a given one.
    """
    points = _as_points(points)
    k_split = variant.split_kernel_for(k, points.shape[1])
    if k_split is None:
        out = Coreset(baseline_thin(len(points), cfg.m), {})
    else:
        candidates, sums = _split(k_split, points, cfg)
        kernel, _ = _split_base(k_split)
        row_mean = None
        if kernel == k.normalized():
            if len(points) % 2:
                # the last point of an odd input is in no block: one column for it
                last = evaluate(kernel, points, points[-1])
                sums[:-1] += last[:-1]
                sums[-1] = last.sum()
            row_mean = sums * (k.scale / kernel.scale) / len(points)
        out = kt_swap(k, points, candidates, cfg, row_mean=row_mean)
        out.provenance.update(_sigma_diagnostics(len(points), cfg, k_split.sup_norm()))
    out.provenance["variant"] = variant.name
    if variant.alpha is not None and variant.split_kernel is None:
        out.provenance["alpha"] = variant.alpha
    return out


def generalized_kt(k_split, k_target: KernelSpec, points, cfg: ThinningConfig) -> Coreset:
    """Split with k_split, then select and refine with k_target."""
    return thin(Variant("generalized", split_kernel=k_split), k_target, points, cfg)


def target_kt(k: KernelSpec, points, cfg: ThinningConfig) -> Coreset:
    """Generalized thinning with the target kernel doing both stages."""
    return thin(Variant("targetkt"), k, points, cfg)


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
    return thin(Variant("powerkt", alpha, split_kernel), k, points, cfg)


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
    return thin(Variant("ktplus", alpha, split_kernel), k, points, cfg)
