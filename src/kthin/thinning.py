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
platforms and independent of evaluation order.  Swap decisions depend on
the split kernel only through scale-free ratios, so c * k yields the same
candidates as k under the same seed, bitwise.  `kt_split` owns how the
split runs: its loop order, its buffers, when helper threads evaluate its
blocks, and when it hands the swap stage the input's row means.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from . import rng
from .discrepancy import Reference, SwapCache, _as_target, kernel_row_means
from .kernels import (
    IdentityPerturbedKernel,
    KernelSpec,
    KernelError,
    _as_indices,
    _as_points,
    _check_alpha,
    _evaluates_kv,
    _in_order,
    _number_in,
    _read_fields,
    _row_buffered,
    _scratch_count,
    evaluate,
    ktplus_kernel,
    power_kernel,
)
# gram and gram_rows are not called here; they stay module attributes because
# perfbench/spans.py traces the kernel boundary by wrapping them
from .kernels import gram, gram_rows  # noqa: F401

# the most bytes a pipelined split's block buffers hold (see `kt_split`)
_PIPELINE_BYTES = 2 ** 25


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
        indices = np.asarray(self.indices)
        if indices.ndim != 1 or indices.dtype.kind not in "iu":
            raise ValueError(f"indices must be a 1-D integer array, got {self.indices!r}")
        self.indices = np.asarray(indices, dtype=int)

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
    a = max(math.sqrt(b_sq * sigma_sq * _log_term(delta_hat)), b_sq)
    growth = max(1.0 + (b_sq - 2.0 * a) * sigma_sq / (a * a), 0.0)
    return a, sigma_sq + b_sq * growth


def _log_term(delta_hat: float) -> float:
    """The scale recursion's log term max(0, 2 log(2 / delta_hat)), clamped
    at 0 because extreme schedules can push delta_hat above 2."""
    return max(0.0, 2.0 * math.log(2.0 / delta_hat))


def swap_probability(alpha: float, a: float) -> float:
    """min(1, (1 - alpha/a)_+ / 2): always in [0, 1], and 1/2 when alpha = 0;
    a ValueError unless alpha is finite and the threshold a finite and > 0."""
    alpha = _number_in(alpha, float, lambda v: True, "alpha must be finite", ValueError)
    a = _number_in(a, float, lambda v: v > 0, "a must be finite and > 0", ValueError)
    return min(1.0, max(0.0, 0.5 * (1.0 - alpha / a)))


def kt_split(k_split, points, cfg: ThinningConfig) -> list[np.ndarray]:
    """Divide the input into 2^m candidate coresets of size floor(n / 2^m).

    Consumes the input in consecutive pairs (x_{2i-1}, x_{2i}); with odd n
    the final point is skipped here (it stays eligible for the refinement
    stage).  Returns index arrays into `points`.

    Level j halves each of its 2^(j-1) parent coresets pair by pair, in
    order: its t-th pair (x, x~) is the parent's points 2t - 1 and 2t.  The
    pair splits against

        alpha = sum_{y in right child} [k(y, x) - k(y, x~)]
                - sum_{y in left child} [k(y, x) - k(y, x~)],

    which equals the parent/left-child form of the algorithm (the pair's own
    terms cancel).  It never meets a pair's own index, so the identity
    perturbation only adds 2w to b^2 = k(x, x) + k(x~, x~) - 2 k(x, x~).

    The loops run block, then level, then pair, with every uniform drawn
    up front, one `rng.swap_uniforms` call per level.  An aligned block
    B = [2^m q, 2^m (q + 1)) of input points feeds exactly the pairs
    t in (2^(m-j) q, 2^(m-j) (q + 1)] of every level j, and those pairs
    depend only on B's earlier levels, on the uniforms addressed by
    (round, level, slot), and on sigma^2, which stays sequential in t within
    each level; so this order makes the same decisions as consuming the
    input pair by pair.  k(y, x) for x in B and every y before B's end
    comes from one `evaluate` call, under a numpy ufunc buffer of one row
    (`kernels._row_buffered`).  Each finest coreset holds one point of every
    block before B; B's rows are summed over those points into a prefix
    table that folds pairwise up the levels, so a pair reads its children's
    terms from before B in four lookups, and each earlier pair of B in its
    slot adds four terms, signed by its swap.  A level reads all of these
    with one gather from B's own 2^m x 2^m columns, k(x, x~) for b^2
    included, and one lookup in the folded table, and converts each to a
    list once; one loop then runs the scale recursion of `get_swap_params`
    inline, bit for bit, with its log term formed once per round of the
    level rather than once per pair.  The table takes one gather of
    |B| (start of B) entries per block, about n^2 / 2 in all, against about
    n^2 for a gather per pair over the children built so far.  Summed in
    this order, alpha decides as in the scalar oracle unless a uniform
    lands within rounding of a swap probability.  A block fills a buffer of
    2^m x n doubles, 8 2^m n bytes (0.5 MB at n = 2048, m = 5; 2 MB at
    n = 4096, m = 6), which gauss, laplace, imq and Matern fill in place,
    and is gathered into another.  The split evaluates sum_B |B| (end of B)
    kernel entries, about n^2 / 2.

    The blocks are decided on the calling thread in block order, and
    evaluated there too, into one reused buffer with the gather buffer (and
    one more for a sum) as scratch, unless the kernel calls scipy's Bessel
    `kv` (`kernels._evaluates_kv`; alone, in a sum or as an
    identity-perturbed base), whose block takes longer to evaluate than to
    decide.  Such a split evaluates its blocks as `kernels._in_order` tasks,
    so that helper threads evaluate the next blocks while the calling thread
    decides the current one.  Each thread holds two result buffers and one
    scratch buffer, two for a sum, within `_PIPELINE_BYTES` (32 MB) for all
    threads; below two threads the split stays on the calling thread.
    Candidates and row means are bitwise the same either way.

    `_split`, given the target kernel, decides whether the split kernel is
    it up to scale (target KT, or generalized KT with k_split = c k); only
    then does it add up the blocks' row sums (with one more kernel column
    for the last point when n is odd) into the row means of the input's
    `Reference` for the swap stage, so that the whole pipeline evaluates
    about n^2 / 2 kernel entries instead of n^2.  Those row means are summed
    in another order than `kernel_row_means` sums them, so they can differ
    from it in the last bits.

    Args:
      k_split: KernelSpec or IdentityPerturbedKernel used for swap decisions.
      points: (n, d) input array.
      cfg: thinning configuration; cfg.m halvings, round t's failure budget
        cfg.deltas(n)[t - 1], counter-based randomness from cfg.seed.
    """
    return _split(k_split, points, cfg)[0]


def _split(k_split, points, cfg: ThinningConfig,
           k_target: KernelSpec | None = None) -> tuple[list[np.ndarray], Reference | None]:
    """`kt_split`'s candidates, and the input's `Reference` on k_target
    from the blocks' row sums when the split kernel is k_target up to scale,
    else None and no sums are formed."""
    points = _as_points(points)
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
    # b^2 = k(x, x) + k(x~, x~) - 2 k(x, x~), with k(x, x) = diag
    diag = kernel.sup_norm() + weight
    two_diag = diag + diag
    used, width = 2 * (n // 2), 2 ** m
    # uniforms[j][t - 1, l - 1]: the draw of slot l at the t-th halving of level j
    uniforms = [None] + [rng.swap_uniforms(cfg.seed, j, used >> j) for j in range(1, m + 1)]
    # log_terms[j][t - 1]: the log term of level j's round t, whose budget
    # is delta_t 2^(j-1) / m, formed once per distinct budget
    deltas, log_terms = cfg.deltas(n), [None]
    for j in range(1, m + 1):
        level = deltas[:used >> j]
        of = {v: _log_term(v * 2 ** (j - 1) / m) for v in dict.fromkeys(level)}
        log_terms.append(list(map(of.__getitem__, level)))
    # the gather positions of each pair count, built once per split: they
    # grow as the square of the count, so no cache outlives the split
    pair_terms = functools.cache(_pair_terms)
    # slot_index[j][l, 0] = l, which picks slot l's column of a level-j table
    slot_index = [None] + [np.arange(2 ** (j - 1))[:, None] for j in range(1, m + 1)]
    sigma_sq = [None] + [[0.0] * 2 ** (j - 1) for j in range(1, m + 1)]
    # finest[q, c]: the point that finest coreset c takes from block q
    finest = np.empty((used >> m, width), int)
    # the blocks' row sums, formed only when they are k_target's up to scale
    sums = None if k_target is None or kernel != k_target.normalized() else np.zeros(n)
    # coordinate-major columns, whose coordinates numpy subtracts faster
    cols = np.asfortranarray(points)
    # block q's points [s0, end) against every input point up to its end:
    # block(q, out, scratch) evaluates it into the flat buffer out, and
    # decide(s0, kb) makes its pairs' decisions, in block order
    size, blocks = width * used, -(-used >> m)

    def block(q: int, out: np.ndarray, scratch: tuple) -> tuple[int, np.ndarray]:
        s0 = q << m
        end = min(s0 + width, used)
        shape = end - s0, end
        # kb[w, y] = k(points[y], points[s0 + w]): the block's points against
        # every input point up to the block's end, which is the block's rows
        # of the lower triangle and its columns of the upper
        return s0, _row_buffered(end, evaluate, kernel, cols[None, :end], points[s0:end, None],
                                 out=out[:shape[0] * end].reshape(shape),
                                 _scratch=tuple(a[:shape[0] * end].reshape(shape) for a in scratch))

    def decide(s0: int, kb: np.ndarray) -> None:
        q, end = s0 >> m, s0 + len(kb)
        if sums is not None:
            sums[s0:end] += kb.sum(1)
            sums[:s0] += kb[:, :s0].sum(0)
        # table[w, c] sums kb's row w over the points that finest coreset c
        # held before the block, one per earlier block; folded up the
        # levels, prior[j][w, l] is that sum over child 2l + 1 of slot l
        # less the sum over child 2l; mode "clip" spares numpy's copy of out
        table = np.take(kb, finest[:q], axis=1, mode="clip",
                        out=gbuf[:len(kb) * s0].reshape(len(kb), q, width)).sum(1)
        prior = [None] * (m + 1)
        for j in range(m, 0, -1):
            prior[j], table = table[:, 1::2] - table[:, ::2], table[:, ::2] + table[:, 1::2]
        # loc[l]: the points of level j's parent coreset l in the block, less
        # s0, in order; level 1 has one, the whole block
        loc = np.arange(len(kb))[None]
        for j in range(1, m + 1):
            # slot l's pairs in the block are loc[l, 2i], loc[l, 2i + 1] for
            # i < n_pairs, its rounds t0 + i + 1; a partial last block runs
            # out of pairs before level m
            slots, n_pairs, t0 = len(loc), loc.shape[1] // 2, s0 >> j
            if not n_pairs:
                return
            loc, runs = loc[:, :2 * n_pairs], n_pairs * (n_pairs - 1) // 2
            # one gather from the block's own columns: terms[l, :n_pairs] is
            # k(x, x~) of each pair, the rest four runs of the entries
            # k(member p' of pair i', member p of pair i) for each i' < i
            at_rows, at_cols = pair_terms(n_pairs)
            at = np.take(loc, at_rows, 1)
            at *= end
            at += np.take(loc, at_cols, 1)
            at += s0
            terms = kb.take(at)
            k_pair = terms[:, :n_pairs].tolist()
            # d_terms[l]: the term that pair i' adds to pair i's alpha when x'
            # joins child 2l and x~' child 2l + 1, a swap negating it, for
            # i = 1, 2, ... and i' < i in turn; none with one pair a slot
            if n_pairs > 1:
                # the runs hold k00, k10, k01, k11, kpp' the entry of member
                # p of pair i against member p' of pair i', and
                # d = (k01 - k00) - (k11 - k10)
                g = terms[:, n_pairs + 2 * runs:] - terms[:, n_pairs:n_pairs + 2 * runs]
                d_terms = (g[:, :runs] - g[:, runs:]).tolist()
            else:
                d_terms = [()] * slots
            # pre[l][i]: pair i's alpha over the points its children held
            # before the block
            pre = prior[j][loc, slot_index[j]]
            pre = (pre[:, ::2] - pre[:, 1::2]).tolist()
            u = uniforms[j][t0:t0 + n_pairs].T.tolist()
            logs = log_terms[j][t0:t0 + n_pairs]

            # the scale recursion and the decisions, sequential in t per slot
            sig, signs = [], []
            for s, k_row, d_row, pre_row, u_row in zip(sigma_sq[j], k_pair, d_terms, pre, u):
                earlier, d_row = [], iter(d_row)
                for k, alpha, v, log_term in zip(k_row, pre_row, u_row, logs):
                    for sign, term in zip(earlier, d_row):
                        alpha += sign * term
                    b = two_diag - 2.0 * k
                    # get_swap_params(s, b, delta_hat), inlined: a pair with
                    # b^2 = 0 (or less, from rounding) never swaps and leaves
                    # sigma unchanged; else u in [0, 1) falls below
                    # 0.5 (1 - alpha / a) exactly when it falls below
                    # swap_probability(alpha, a), its clamp to [0, 1]
                    if b > 0.0:
                        root = math.sqrt(b * s * log_term)
                        a = b if b > root else root
                        growth = 1.0 + (b - 2.0 * a) * s / (a * a)
                        s += b * (0.0 if growth < 0.0 else growth)
                        earlier.append(-1.0 if v < 0.5 * (1.0 - alpha / a) else 1.0)
                    else:
                        earlier.append(1.0)
                sig.append(s)
                signs += earlier
            sigma_sq[j] = sig
            # children 2l and 2l+1 receive (x, x~), reversed on a swap, and
            # are the next level's parents 2l and 2l + 1
            members = loc.reshape(slots, n_pairs, 2).transpose(0, 2, 1)
            swap = np.array(signs).reshape(slots, 1, n_pairs) < 0.0
            loc = np.where(swap, members[:, ::-1], members).reshape(2 * slots, n_pairs)
        finest[q] = loc[:, 0] + s0

    # gbuf takes decide's gather; `kt_split` says which splits pipeline
    gbuf = np.empty(size)
    n_scratch = _scratch_count(kernel)
    most = _PIPELINE_BYTES // (8 * size * (2 + n_scratch))
    if _evaluates_kv(kernel, d) and most >= 2:
        # results cycle through two buffers per thread: `_in_order` claims
        # block q + 2 threads only once block q is decided
        ring: list = []

        def state() -> tuple:
            ring.extend(np.empty(size) for _ in range(2))
            return tuple(np.empty(size) for _ in range(n_scratch))

        _in_order(lambda q, own: block(q, ring[q % len(ring)], own), blocks, state,
                  lambda res: decide(*res), most=most)
    else:
        buf, scratch = np.empty(size), (gbuf, *(np.empty(size) for _ in range(n_scratch - 1)))
        for q in range(blocks):
            decide(*block(q, buf, scratch))
    candidates = list(finest.T.copy())
    if sums is None:
        return candidates, None
    if n % 2:
        # the last point of an odd input is in no block: one column for it
        last = evaluate(kernel, points, points[-1])
        sums[:-1] += last[:-1]
        sums[-1] = last.sum()
    return candidates, Reference(k_target, points, sums * (k_target.scale / kernel.scale) / n)


def _pair_terms(n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column positions, in a slot's row of pair members (x, x~ of
    pair 0, then of pair 1, ...), of the block entries a level reads: row x~
    and column x of each pair, then four runs over the pairs i = 1, 2, ...
    and each i' < i in turn, of row member p of pair i and column member p'
    of pair i', for (p, p') = (0, 0), (1, 0), (0, 1) and (1, 1)."""
    i, i2 = np.tril_indices(n_pairs, -1)
    rows = np.concatenate([np.arange(1, 2 * n_pairs, 2), 2 * i, 2 * i + 1, 2 * i, 2 * i + 1])
    cols = np.concatenate([np.arange(0, 2 * n_pairs, 2), 2 * i2, 2 * i2, 2 * i2 + 1, 2 * i2 + 1])
    return rows, cols


# ---------------------------------------------------------------------------
# baseline and the swap stage
# ---------------------------------------------------------------------------

def baseline_thin(n: int, m: int) -> np.ndarray:
    """Standard thinning: every 2^m-th index, anchored to include the last.

    n >= 1 and m >= 0 are integers, read as in plan.json (2.0 reads as 2);
    m = 0 returns the identity selection.
    """
    n = _number_in(n, int, lambda v: v >= 1, "n must be an integer >= 1", ValueError)
    m = _number_in(m, int, lambda v: True, "m must be an integer", ValueError)
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


def kt_swap(k: KernelSpec, points, candidates: list[np.ndarray], cfg: ThinningConfig,
            reference: Reference | None = None) -> Coreset:
    """Select the best of {baseline, candidates} by MMD, then refine it.

    One greedy sweep over coreset positions replaces each element by the
    input point minimizing the resulting MMD (ties to the lowest index).
    The incumbent is always a valid replacement, so MMD never increases and
    the result never exceeds the baseline's MMD to the input.

    Candidates are ranked by the input's `reference`, built with a
    `kernel_row_means` pass unless given, and then on k and these points,
    else a ValueError.  A k that is not a KernelSpec is a KernelError.

    At m = 1 on an even input the two split candidates are the two halves of
    the input, whose MMDs to it are equal in exact arithmetic, so rounding
    decides which of them is selected.
    """
    points, k = _as_points(points), _as_target(k)
    n = len(points)
    # one per row of a 2-D array, before the count
    candidates = [_as_indices(c, n, "candidate coreset") for c in candidates]
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

    # the row means serve candidate ranking and the refinement cache: one
    # pass of n^2 / 2 kernel evaluations unless the split or the caller has them
    ref = (Reference(k, points, kernel_row_means(k, points)) if reference is None
           else reference._on(k, points))
    pool = [base] + list(candidates)
    mmd_sqs = [ref.mmd_sq(c) for c in pool]
    chosen = int(np.argmin(mmd_sqs))

    cache = SwapCache(k, points, pool[chosen], ref)
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


def thin(variant: Variant, k: KernelSpec, points, cfg: ThinningConfig,
         reference: Reference | None = None) -> Coreset:
    """Thin points with the variant, selecting and refining with k.

    Standard thinning keeps every 2^m-th point.  Every other variant splits
    with `variant.split_kernel_for(k, d)` and runs `kt_swap` with k and the
    `Reference` that `_split` returns when the split kernel is k up to scale,
    else the given `reference` on k and these points, which `kt_swap` reads.
    A k that is not a KernelSpec is a KernelError.  The provenance names the
    variant, and the alpha of a power kernel built from a given one.
    """
    points, k = _as_points(points), _as_target(k)
    if reference is not None:
        reference._on(k, points)
    k_split = variant.split_kernel_for(k, points.shape[1])
    if k_split is None:
        out = Coreset(baseline_thin(len(points), cfg.m), {})
    else:
        candidates, own = _split(k_split, points, cfg, k)
        out = kt_swap(k, points, candidates, cfg, own or reference)
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


def power_kt(k: KernelSpec, points, cfg: ThinningConfig, alpha: float,
             split_kernel: KernelSpec | None = None, reference: Reference | None = None) -> Coreset:
    """Split with the alpha-power kernel of k, refine with k.

    If the family has no closed-form power kernel, pass `split_kernel`
    explicitly.  `reference`, the input's `Reference` on k, spares the swap
    stage its row-mean pass (see `thin`).
    """
    return thin(Variant("powerkt", alpha, split_kernel), k, points, cfg, reference)


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
