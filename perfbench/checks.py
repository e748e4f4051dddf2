"""Output checks that do not trust the library's own arithmetic.

MMD is recomputed here from a plain numpy implementation of the two target
kernels the workloads use (Gaussian and Laplace), and standard thinning is
re-derived from its definition, so a defect in kthin's Gram or MMD code
cannot hide a defect in its coresets.
"""

from __future__ import annotations

import hashlib

import numpy as np

_ROWS = 256  # rows per Gram block; keeps the checks' memory below the ops'

# tolerance of the baseline-domination check, in MMD units
DOMINATION_SLACK = 1e-12


def gauss_kernel(sigma: float):
    def k(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.exp(_sq_dists(a, b) / (-2.0 * sigma * sigma))
    return k


def laplace_kernel(sigma: float):
    def k(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.exp(-np.sqrt(_sq_dists(a, b)) / sigma)
    return k


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # coordinate differences, not |a|^2 + |b|^2 - 2ab: no cancellation for
    # near points, so near-ties in the domination check are decided exactly
    out = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        diff = a[:, j, None] - b[None, :, j]
        out += diff * diff
    return out


def kernel_mean(k, a: np.ndarray, b: np.ndarray) -> float:
    """(1 / |a||b|) sum_ij k(a_i, b_j)."""
    total = 0.0
    for start in range(0, len(a), _ROWS):
        total += float(k(a[start:start + _ROWS], b).sum())
    return total / (len(a) * len(b))


def self_mean(k, x: np.ndarray) -> float:
    """kernel_mean(k, x, x) from the blocks on and above the diagonal."""
    total = 0.0
    for start in range(0, len(x), _ROWS):
        block = k(x[start:start + _ROWS], x[start:])
        width = block.shape[0]
        total += float(block[:, :width].sum()) + 2.0 * float(block[:, width:].sum())
    return total / (len(x) * len(x))


def mmd(k, x: np.ndarray, y: np.ndarray, xx: float) -> float:
    """MMD_k between the uniform measures on x and y; xx is self_mean(k, x)."""
    sq = xx + self_mean(k, y) - 2.0 * kernel_mean(k, x, y)
    return float(np.sqrt(max(sq, 0.0)))


def standard_thin(n: int, m: int) -> np.ndarray:
    """Every 2^m-th index, anchored so the last input point is kept."""
    size = n // 2 ** m
    return n - 1 - 2 ** m * np.arange(size - 1, -1, -1)


def check_coreset(k, x: np.ndarray, indices, m: int, xx: float | None = None):
    """Size, index-range and baseline-domination checks for one KT output.

    Returns (errors, mmd of the coreset, mmd of standard thinning); the two
    MMDs are None when the indices are unusable.
    """
    n = len(x)
    idx = np.asarray(indices)
    want = n // 2 ** m
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        return [f"coreset indices are not a 1-D integer array: {idx.dtype} {idx.shape}"], None, None
    if len(idx) != want:
        return [f"coreset size {len(idx)} != floor({n}/2^{m}) = {want}"], None, None
    if idx.min() < 0 or idx.max() >= n:
        return [f"coreset index out of range [0, {n}): {idx.min()}..{idx.max()}"], None, None
    if xx is None:
        xx = self_mean(k, x)
    mmd_kt = mmd(k, x, x[idx], xx)
    mmd_std = mmd(k, x, x[standard_thin(n, m)], xx)
    errors = []
    if not mmd_kt <= mmd_std + DOMINATION_SLACK:
        errors.append(f"baseline domination fails: MMD {mmd_kt!r} > standard {mmd_std!r}")
    if not mmd_kt > 0.0:
        errors.append(f"coreset MMD {mmd_kt!r} is not positive")
    return errors, mmd_kt, mmd_std


def sha256_indices(indices) -> str:
    return hashlib.sha256(np.asarray(indices, dtype="<i8").tobytes()).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
