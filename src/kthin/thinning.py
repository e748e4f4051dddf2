"""Kernel thinning: randomized halving into candidate coresets, then
selection and greedy refinement against a baseline.

The pipeline has two stages.  The split stage consumes the input two points
at a time and recursively halves it m times, keeping the within-pair
assignment balanced through a probabilistic swap rule driven by running
sub-Gaussian scale parameters; it emits 2^m candidate coresets of size
floor(n / 2^m).  The swap stage picks the candidate (or a standard-thinning
baseline) with the smallest MMD to the input and then sweeps the coreset
once, replacing each element by whichever input point most reduces MMD.
The returned coreset therefore never has larger MMD to the input than the
baseline does.

Randomness is confined to the split stage and drawn from counter-based
streams keyed by (round, level, slot), so results are reproducible across
platforms and independent of evaluation order.  The split draws every
(round, level, slot) uniform up front in one vectorized Philox pass
(`rng.swap_uniforms`), bit-identical to drawing each with `rng.swap_uniform`,
and halves all slots of a level in one array operation.  Swap decisions
depend on the split kernel only through scale-free ratios, so the kernel's
scale factor is divided out up front; c * k yields the same candidates as k
under the same seed, bitwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import rng
from .discrepancy import SwapCache, kernel_row_means
# gram is not called here; it stays a module attribute because
# perfbench/spans.py traces the kernel boundary by wrapping
# kthin.thinning.gram and kthin.thinning.gram_rows
from .kernels import (  # noqa: F401
    IdentityPerturbedKernel,
    KernelSpec,
    KernelError,
    evaluate,
    gram,
    gram_rows,
    ktplus_kernel,
    power_kernel,
)


@dataclass(frozen=True)
class DeltaSchedule:
    """Per-round failure probabilities delta_i for i = 1..floor(n/2).

    rule "known_n" gives delta_i = delta / n (requires the input length up
    front); rule "oblivious" gives
    delta_i = m * delta / (2^(m+2) * (i+1) * log^2(i+1)) and is valid for
    any stopping time.
    """

    rule: str = "known_n"
    delta: float = 0.5

    def __post_init__(self):
        if self.rule not in ("known_n", "oblivious"):
            raise ValueError(f"unknown delta schedule rule {self.rule!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    def value(self, i: int, n: int, m: int) -> float:
        if self.rule == "known_n":
            return self.delta / n
        return m * self.delta / (2 ** (m + 2) * (i + 1) * math.log(i + 1) ** 2)


@dataclass(frozen=True)
class ThinningConfig:
    """Thinning depth, failure-probability schedule, seed, and baseline rule.

    The output size is floor(n / 2^m).  Kernels are passed to the thinning
    operations directly rather than stored here.
    """

    m: int = 1
    delta_schedule: DeltaSchedule = field(default_factory=DeltaSchedule)
    seed: int = 0
    baseline: str = "standard"
    refine_sweeps: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"thinning depth m must be >= 1, got {self.m}")
        if self.baseline not in ("standard",):
            raise ValueError(f"unknown baseline rule {self.baseline!r}")
        if self.refine_sweeps < 1:
            raise ValueError("refine_sweeps must be >= 1")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(obj: dict) -> "ThinningConfig":
        sched = obj.get("delta_schedule", {})
        return ThinningConfig(
            m=obj.get("m", 1),
            delta_schedule=DeltaSchedule(**sched),
            seed=obj.get("seed", 0),
            baseline=obj.get("baseline", "standard"),
            refine_sweeps=obj.get("refine_sweeps", 1),
        )


@dataclass
class Coreset:
    """Indices into the input point set plus provenance of how they were chosen."""

    indices: np.ndarray
    provenance: dict

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)

    def __len__(self) -> int:
        return len(self.indices)

    def points(self, input_points: np.ndarray) -> np.ndarray:
        return np.asarray(input_points)[self.indices]

    def to_json(self) -> str:
        return json.dumps(
            {"indices": self.indices.tolist(), "provenance": self.provenance}
        )

    def to_csv(self) -> str:
        return "\n".join(["index"] + [str(i) for i in self.indices]) + "\n"


# ---------------------------------------------------------------------------
# the input boundary
# ---------------------------------------------------------------------------

def _as_input(points) -> np.ndarray:
    """The input as an (n, d) float array; a 1-D input is n points in d = 1.

    Non-finite coordinates are rejected here: a NaN makes every swap
    statistic NaN, and the split would silently never swap.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ValueError(f"points must be an (n, d) array, got shape {points.shape}")
    finite = np.isfinite(points)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite input value at row {int(r)}, column {int(c)}")
    return points


# ---------------------------------------------------------------------------
# the split stage
# ---------------------------------------------------------------------------

def get_swap_params(sigma_sq: float, b_sq: float, delta_hat: float) -> tuple[float, float]:
    """One step of the swap-threshold recursion.

    Args:
      sigma_sq: current squared sub-Gaussian scale for this (level, slot).
      b_sq: squared within-pair kernel distance k(x,x) + k(y,y) - 2k(x,y).
      delta_hat: failure-probability budget for this step.

    Returns:
      (threshold a, updated sigma_sq).  With sigma = 0 the update reduces to
      sigma_sq = b_sq.
    """
    log_term = _log_term(delta_hat)
    a = max(math.sqrt(b_sq * sigma_sq * log_term), b_sq)
    growth = max(0.0, 1.0 + (b_sq - 2.0 * a) * sigma_sq / (a * a))
    return a, sigma_sq + b_sq * growth


def _log_term(delta_hat: float) -> float:
    # clamped at 0: extreme schedules can push delta_hat above 2
    return max(0.0, 2.0 * math.log(2.0 / delta_hat))


def swap_probability(alpha: float, a: float) -> float:
    """min(1, (1 - alpha/a)_+ / 2): always in [0, 1], and 1/2 when alpha = 0."""
    return min(1.0, max(0.0, 0.5 * (1.0 - alpha / a)))


# the weights a parent records for its pair (x, x~), one row per point and
# one column per kernel argument: alpha takes +(k(y, x) - k(y, x~)) for
# points y that went right and -(k(y, x) - k(y, x~)) for those that went
# left, and x goes left unless the pair swaps
_WEIGHTS_KEPT = np.array([[-1.0, 1.0], [1.0, -1.0]])
_WEIGHTS_SWAPPED = -_WEIGHTS_KEPT


def kt_split(k_split, points, cfg: ThinningConfig, _check_invariants: bool = False) -> list[np.ndarray]:
    """Divide the input into 2^m candidate coresets of size floor(n / 2^m).

    Consumes the input in consecutive pairs (x_{2i-1}, x_{2i}); with odd n
    the final point is skipped here (it stays eligible for the refinement
    stage).  Returns index arrays into `points`.

    Round i halves, at every level j <= m with 2^(j-1) dividing i, the last
    pair (x, x~) of each of the level's 2^(j-1) parent coresets; all slots of
    a level are one array operation.  The pair splits against

        alpha = sum_{y in right child} [k(y, x) - k(y, x~)]
                - sum_{y in left child} [k(y, x) - k(y, x~)],

    which equals the parent/left-child form of the algorithm (the pair's own
    terms cancel).  It never meets a pair's own index, so the identity
    perturbation only adds 2w to b^2 = k(x, x) + k(x~, x~) - 2 k(x, x~).
    Each level keeps its coresets' coordinates in a buffer and, per point,
    the signed weights of the child it went to, so alpha is one weighted sum
    over the parent's points already passed down.

    Args:
      k_split: KernelSpec or IdentityPerturbedKernel used for swap decisions.
      points: (n, d) input array.
      cfg: thinning configuration; cfg.m halvings, counter-based randomness
        from cfg.seed.
      _check_invariants: assert size and partition invariants of the
        internal state after every round (debug builds / tests only).
    """
    points = _as_input(points)
    n, d = points.shape
    if n < 2:
        raise ValueError(f"kt_split needs at least 2 points, got {n}")
    m = cfg.m
    if n // 2 ** m < 1:
        raise ValueError(f"m={m} too large for n={n}: output would be empty")
    # the scale factor is divided out: the swap ratio and the scale recursion
    # are invariant to positive rescaling, and this makes that exact
    if isinstance(k_split, IdentityPerturbedKernel):
        kernel, weight = k_split.base.normalized(), k_split.weight
    elif isinstance(k_split, KernelSpec):
        kernel, weight = k_split.normalized(), 0.0
    else:
        raise KernelError(f"unsupported split kernel type {type(k_split).__name__}")
    kernel.validate_dim(d)
    diag = kernel.sup_norm() + weight
    sched = cfg.delta_schedule
    rounds = n // 2

    # Level j holds 2^j coresets of up to cap[j] points; level 0 is the
    # input.  Siblings 2l and 2l+1 sit side by side in the (2^(j-1), 2, ...)
    # views; unfilled index slots hold -1, which the invariants check.
    cap = [2 * rounds >> j for j in range(m + 1)]
    coords = [points[None, :2 * rounds]]
    idx = [np.arange(2 * rounds)[None]]
    for j in range(1, m + 1):
        if j < m:
            coords.append(np.empty((2 ** (j - 1), 2, cap[j], d)))
        idx.append(np.full((2 ** (j - 1), 2, cap[j]), -1))
    weights = [np.empty((2 ** j, cap[j], 2)) for j in range(m)]
    sigma_sq = [None] + [np.zeros(2 ** (j - 1)) for j in range(1, m + 1)]
    uniforms = _split_uniforms(cfg.seed, rounds, m)

    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(1, rounds + 1):
            # levels 1 .. 1 + (trailing zero bits of i) halve this round
            for j in range(1, min(m, (i & -i).bit_length()) + 1):
                t = i >> (j - 1)  # each parent now holds 2t points
                c = 2 * t - 2  # ... of which c were passed down before
                parent = coords[j - 1].reshape(2 ** (j - 1), -1, d)[:, :c + 2]
                pair = parent[:, c:]
                # k(y, x) and k(y, x~) for every point y of each parent
                k_y = evaluate(kernel, parent[:, :, None, :], pair[:, None, :, :])
                alpha = (k_y[:, :c] * weights[j - 1][:, :c]).sum(axis=(1, 2))
                b_sq = np.maximum(diag + diag - 2.0 * k_y[:, c, 1], 0.0)

                delta_hat = sched.value(t, n, m) * 2 ** (j - 1) / m
                sig = sigma_sq[j]
                a = np.maximum(np.sqrt(b_sq * sig * _log_term(delta_hat)), b_sq)
                growth = np.maximum(1.0 + (b_sq - 2.0 * a) * sig / (a * a), 0.0)
                # b^2 = 0: either assignment is equivalent and the threshold
                # and scale update are 0/0, so the pair neither swaps nor
                # updates sigma
                moved = b_sq > 0.0
                sigma_sq[j] = np.where(moved, sig + b_sq * growth, sig)
                # u in [0, 1) falls below 0.5 (1 - alpha / a) exactly when it
                # falls below swap_probability(alpha, a), its clamp to [0, 1]
                swap = ((uniforms[j][t - 1] < 0.5 * (1.0 - alpha / a)) & moved)[:, None, None]

                weights[j - 1][:, c:c + 2] = np.where(swap, _WEIGHTS_SWAPPED, _WEIGHTS_KEPT)
                # children 2l and 2l+1 receive (x, x~), reversed on a swap
                pair_idx = idx[j - 1].reshape(2 ** (j - 1), -1)[:, c:c + 2]
                idx[j][:, :, t - 1] = np.where(swap[:, :, 0], pair_idx[:, ::-1], pair_idx)
                if j < m:
                    coords[j][:, :, t - 1] = np.where(swap, pair[:, ::-1], pair)
            if _check_invariants:
                _assert_split_invariants(idx, consumed=2 * i)

    return list(idx[m].reshape(2 ** m, -1))


def _split_uniforms(seed: int, rounds: int, m: int) -> list:
    """uniforms[j][t - 1, l - 1] = swap_uniform(seed, t 2^(j-1), j, l), the
    draw of slot l at the t-th halving of level j, from one Philox pass.

    Level j's visits are numbered k = 0, 1, ... in (round, slot) order, so
    visit k is slot (k mod 2^(j-1)) + 1 of round k - (k mod 2^(j-1)) + 2^(j-1).
    """
    visit = np.arange(rounds)
    level = np.arange(1, m + 1)[:, None]
    width = 1 << (level - 1)
    slot = visit & (width - 1)
    grid = rng.swap_uniforms(seed, visit - slot + width, level, slot + 1)
    return [None] + [
        grid[j - 1, :rounds >> (j - 1) << (j - 1)].reshape(-1, 2 ** (j - 1))
        for j in range(1, m + 1)
    ]


def _assert_split_invariants(idx: list, consumed: int) -> None:
    """After consuming `consumed` input points, each level-j coreset holds
    floor(consumed / 2^j) of them, and sibling pairs partition the prefix of
    their parent that has been passed down."""
    for j in range(1, len(idx)):
        filled = consumed >> j
        assert (idx[j][:, :, :filled] >= 0).all(), (j, consumed)
        assert (idx[j][:, :, filled:] == -1).all(), (j, consumed)
        siblings = idx[j][:, :, :filled].reshape(2 ** (j - 1), 2 * filled)
        parents = idx[j - 1].reshape(2 ** (j - 1), -1)[:, :2 * filled]
        assert np.array_equal(np.sort(siblings, axis=1), np.sort(parents, axis=1)), (j, consumed)


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
    step = 2 ** m
    return np.array([n - 1 - step * (size - 1 - j) for j in range(size)], dtype=int)


def kt_swap(
    k: KernelSpec,
    points,
    candidates: list[np.ndarray],
    cfg: ThinningConfig,
) -> Coreset:
    """Select the best of {baseline, candidates} by MMD, then refine it.

    One greedy sweep over coreset positions replaces each element by the
    input point minimizing the resulting MMD (ties to the lowest index).
    The incumbent is always a valid replacement, so MMD never increases and
    the result never exceeds the baseline's MMD to the input.
    """
    points = _as_input(points)
    n = len(points)
    if not candidates:
        raise ValueError("kt_swap needs at least one candidate coreset")
    sizes = {len(c) for c in candidates}
    if len(sizes) != 1:
        raise ValueError(f"candidate coresets differ in size: {sorted(sizes)}")

    base = baseline_thin(n, cfg.m)
    if len(base) != len(candidates[0]):
        raise ValueError(
            f"baseline size {len(base)} does not match candidate size {len(candidates[0])}"
        )

    # one O(n^2) pass serves candidate ranking and the refinement cache
    row_mean = kernel_row_means(k, points)
    input_self = float(row_mean.mean())

    pool = [base] + list(candidates)
    mmd_sqs = []
    for c in pool:
        s = float(len(c))
        coreset_self = float(gram_rows(k, points, c, c).sum()) / (s * s)
        cross = 2.0 * float(row_mean[c].mean())
        mmd_sqs.append(max(0.0, input_self + coreset_self - cross))
    chosen = int(np.argmin(mmd_sqs))

    cache = SwapCache(k, points, pool[chosen], row_mean=row_mean)
    accepted = 0
    for _ in range(cfg.refine_sweeps):
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

def _sigma_diagnostics(n: int, m: int, sched: DeltaSchedule, k_sup: float) -> dict:
    """High-probability bound parameters of the split stage, for reporting only.

    p_sg is reported with the conventional choice delta' = delta / 2.
    """
    delta_star = min(sched.value(i, n, m) for i in range(1, n // 2 + 1))
    sigma_m = (
        2.0 / math.sqrt(3.0) * 2 ** m / n
        * math.sqrt(k_sup * max(0.0, math.log(6 * m / (2 ** m * delta_star))))
    )
    level_sum = sum(
        2 ** (j - 1) / m * sum(sched.value(i, n, m) for i in range(1, n // 2 ** j + 1))
        for j in range(1, m + 1)
    )
    p_sg = 1.0 - sched.delta / 2.0 - level_sum
    return {"sigma_m": sigma_m, "p_sg": p_sg}


def generalized_kt(k_split, k_target: KernelSpec, points, cfg: ThinningConfig) -> Coreset:
    """Split with k_split, then select and refine with k_target."""
    points = _as_input(points)
    candidates = kt_split(k_split, points, cfg)
    out = kt_swap(k_target, points, candidates, cfg)
    sup = (
        k_split.sup_norm() if isinstance(k_split, KernelSpec)
        else 1.0 + k_split.weight
    )
    out.provenance.update(_sigma_diagnostics(len(points), cfg.m, cfg.delta_schedule, sup))
    return out


def target_kt(k: KernelSpec, points, cfg: ThinningConfig) -> Coreset:
    """Generalized thinning with the target kernel doing both stages."""
    out = generalized_kt(k, k, points, cfg)
    out.provenance["variant"] = "targetkt"
    return out


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
    points = _as_input(points)
    if split_kernel is None:
        split_kernel = power_kernel(k, alpha, dim=points.shape[1]).power
    out = generalized_kt(split_kernel, k, points, cfg)
    out.provenance["variant"] = "powerkt"
    out.provenance["alpha"] = alpha
    return out


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
    points = _as_input(points)
    if split_kernel is None:
        split_kernel = power_kernel(k, alpha, dim=points.shape[1]).power
    out = generalized_kt(ktplus_kernel(k, split_kernel), k, points, cfg)
    out.provenance["variant"] = "ktplus"
    out.provenance["alpha"] = alpha
    return out
