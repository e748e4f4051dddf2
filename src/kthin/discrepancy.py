"""Exact maximum mean discrepancy between weighted empirical measures.

MMD here is always between finite discrete measures, computed from the
closed-form kernel double sums

    MMD^2 = sum_ij w_i w_j k(x_i, x_j) + sum_ij v_i v_j k(y_i, y_j)
            - 2 sum_ij w_i v_j k(x_i, y_j),

clamped at zero before the square root to absorb negative rounding dust.
Every kernel sum in the package -- the MMD terms, a `Reference`'s row
means and the coreset self-terms and cross-terms of its MMDs, and the swap
cache's coreset cross-sums -- runs through one loop, `_kernel_sums`,
which forms the weighted sums sum_j w_j k(x_i, y_j) over strips of the Gram
matrix: at most _ROWS points of the shorter set against at most _COLS
points of the other, whose matrix-vector products are `np.dot` calls,
which release the GIL while BLAS runs (`@` does not).  A large sum runs its
strips on one thread per CPU and adds them up in strip order, bitwise the
one-thread sums; each thread writes its strips into one 1 MB buffer, with
one scratch array of the same size, that the call allocates for it, under
a numpy ufunc buffer of one strip row.  The full matrix is never
materialized, and the working set is those buffers plus vectors of the
inputs' lengths.  The
one exception is target KT's input row means: its split stage has already
evaluated the lower triangle of the same Gram matrix block by block, so
`thinning._split`, the one place that decides this, returns the input's
`Reference` from its blocks' row sums and `kernel_row_means` is not called.
Against the points themselves (y = x) the Gram matrix is symmetric: each
strip is evaluated only from its own diagonal block on, and every column
past that block adds to both the strip's rows and its own, which halves
the kernel evaluations.

Point arrays are read by `kernels._as_points`, as everywhere in the
package, so NaN or inf coordinates are rejected at the boundary instead of
surfacing as a NaN MMD; a kernel sum reads them once, not once per strip.

A `Reference` gives the MMD to fixed points from their row means (given,
else one pass on first read) and is the only way row means reach the swap
stage: kt_swap's selection, `mmd_input` and `mmd_surrogate` measure against
one.  A SwapCache holds the input's for the coreset refinement loop: given
a fixed input set and a current coreset, it answers "how does MMD^2 change
if coreset slot i is replaced by input point z".  Each query costs O(n),
accepted or not: it builds the delta vector over all n candidates, plus one
kernel column of n entries unless that column is cached; an accepted swap
adds one more column.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernels import (
    KernelError,
    KernelSpec,
    _PointsRead,
    _as_indices,
    _as_points,
    _check_alpha,
    _in_order,
    _row_buffered,
    _scratch_count,
    gauss_power_exact,
    gram,
)

# a kernel sum evaluates strips of at most _ROWS x _COLS entries, 1 MB
_ROWS = 32
_COLS = 4096
# the fewest strips a kernel sum spreads over threads: a symmetric sum of 4096
# points, or 1024 points against 16384
_POOL_STRIPS = 128


def _as_target(k) -> KernelSpec:
    """k if it is a KernelSpec, the kernel of every MMD; else a KernelError."""
    if not isinstance(k, KernelSpec):
        raise KernelError(f"the target kernel must be a KernelSpec, got {type(k).__name__}")
    return k


def _as_index(value, n: int, name: str) -> int:
    """value as a Python int in [0, n), a numpy integer included; a bool, a
    float or anything else is a ValueError naming the argument."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and 0 <= value < n):
        raise ValueError(f"{name} must be an integer in [0, {n}), got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finitely supported measure: points with non-negative weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        pts = _as_points(self.points)
        object.__setattr__(self, "points", pts)
        if self.weights is None:
            w = np.full(len(pts), 1.0 / len(pts))
        else:
            w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(pts),):
            raise ValueError(f"weights shape {w.shape} does not match {len(pts)} points")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _kernel_sums(k: KernelSpec, x, w, y=None) -> np.ndarray:
    """sum_j w_j k(x_i, y_j) for every i, summed over strips of the Gram matrix.

    x and y are read by `_as_points` once here, and every strip's `gram`
    call takes them as read, its scratch buffers passed as a
    `kernels._PointsRead`.  Each strip is at most _ROWS points of the
    shorter of x and y against at most _COLS points of the other.  A strip
    is short and wide, so numpy's per-row cost on the broadcast operand is
    paid over rows of up to _COLS entries, and it is evaluated under a
    ufunc buffer of one row
    (`kernels._row_buffered`), which the narrow strip ending each row of
    strips needs to escape numpy's buffering.  With x on the rows the
    strip g = k(x_I, y_J) adds np.dot(g, w_J) to rows I; with y on the rows
    (len(y) < len(x)) it adds np.dot(w_I, g) to rows J of x.  Every kernel
    is symmetric, bitwise, so either orientation sums the same entries.
    The products are `np.dot`, not `@`: both make the same BLAS call and
    the same bits, but numpy 2.4's matmul holds the GIL through it, so
    pooled strips would wait on each other's products.

    With y omitted, y = x: strip I = [i0, i1) is evaluated only against
    the columns from i0 on.  Its diagonal block k(x_I, x_I) is evaluated in
    full and adds only to rows I; each column J past it adds both
    np.dot(g, w_J) to rows I and w_I g to rows J, the sum over the
    transposed entries below the diagonal, which halves the kernel
    evaluations.  On the diagonal strip w_I g is formed over the whole
    strip and its columns past the block are kept: `np.dot` would copy the
    non-contiguous view of them first, which was 2.8 times slower.  Only a
    single such column is one dot product over the view, the product `@`
    forms there, whose summation order the whole-strip product does not
    share.  A symmetric sum of two strips (more than _ROWS and at most
    2 _ROWS points, as a selection's coreset) makes one `gram` call over its
    points against themselves instead of one per strip, and copies each
    strip's entries into the strip's buffer, so every product is formed as
    for the strip evaluated alone; this spares one call's overhead, about a
    quarter of a 64-point `Reference.mmd_sq`.

    `kernels._in_order` runs the strips on one thread per CPU from
    _POOL_STRIPS strips on, and on the calling thread below that, since on 2
    CPUs the threads' hand-offs cost about what they saved on sums of up to
    4096 points against themselves.  Either way each strip's matrix-vector
    products are formed from the same entries and added into the result by
    the calling thread in strip order, so the sums are bitwise the same at
    any thread count.  Each thread has its own strip buffer of _ROWS x _COLS
    doubles (1 MB) and `kernels._scratch_count(k)` scratch arrays of the
    same size, for the squared coordinate differences and a sum's later
    components, so a strip allocates nothing of its size.
    """
    symmetric = y is None
    x = _as_points(x)
    y = x if symmetric else _as_points(y)
    flip = not symmetric and len(y) < len(x)
    rows, cols = (y, x) if flip else (x, y)
    # coordinate-major columns: each coordinate of a strip's columns is then
    # one contiguous run, which numpy subtracts several times faster
    cols = np.asfortranarray(cols)
    strips = [(i0, min(i0 + _ROWS, len(rows)), j0, min(j0 + _COLS, len(cols)))
              for i0 in range(0, len(rows), _ROWS)
              for j0 in range(i0 if symmetric else 0, len(cols), _COLS)]
    size = min(_ROWS, len(rows)) * min(_COLS, len(cols))
    # a symmetric sum of two strips reads both from one gram call
    square = gram(k, rows, cols) if symmetric and len(strips) == 2 else None

    def strip(s: int, bufs) -> list:
        """The strip's sums, each with the rows of the result it adds to."""
        i0, i1, j0, j1 = strips[s]
        shape, n = (i1 - i0, j1 - j0), (i1 - i0) * (j1 - j0)
        if square is None:
            g = _row_buffered(j1 - j0, gram, k, rows[i0:i1], cols[j0:j1],
                              out=bufs[0][:n].reshape(shape),
                              _scratch=_PointsRead(b[:n].reshape(shape) for b in bufs[1:]))
        else:
            g = bufs[0][:n].reshape(shape)
            g[...] = square[i0:i1, j0:j1]
        if flip:
            return [(slice(j0, j1), np.dot(w[i0:i1], g))]
        sums = [(slice(i0, i1), np.dot(g, w[j0:j1]))]
        if symmetric and j1 > i1:
            # the columns past the diagonal block, kept from the product over
            # the whole strip; one column is one dot product, as `@` forms it
            past = max(j0, i1)
            wg = (np.dot(w[i0:i1], g[:, past - j0:]) if j1 - past == 1
                  else np.dot(w[i0:i1], g)[past - j0:])
            sums.append((slice(past, j1), wg))
        return sums

    out = np.zeros(len(x))

    def add(sums: list) -> None:
        for at, v in sums:
            out[at] += v

    n_bufs = 1 + _scratch_count(k)
    _in_order(strip, len(strips), lambda: tuple(np.empty(size) for _ in range(n_bufs)), add,
              _POOL_STRIPS)
    return out


def _quadratic_form(k: KernelSpec, x, wx, y=None, wy=None) -> float:
    """sum_ij wx_i wy_j k(x_i, y_j); with y omitted, the self-term
    sum_ij wx_i wx_j k(x_i, x_j) over the strips from the diagonal on."""
    return float(wx @ _kernel_sums(k, x, wx if y is None else wy, y))


def _clamped_sqrt(mmd_sq: float) -> float:
    """sqrt(max(mmd_sq, 0)); a NaN stays NaN instead of reading as MMD 0."""
    return float(np.sqrt(max(mmd_sq, 0.0)))


def mmd(k: KernelSpec, p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """MMD_k(p, q) >= 0 between two discrete measures."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    val = (
        _quadratic_form(k, p.points, p.weights)
        + _quadratic_form(k, q.points, q.weights)
        - 2.0 * _quadratic_form(k, p.points, p.weights, q.points, q.weights)
    )
    return _clamped_sqrt(val)


def mmd_points(k: KernelSpec, x, y) -> float:
    """MMD between the uniform empirical measures of two point arrays."""
    return mmd(k, DiscreteMeasure(x), DiscreteMeasure(y))


def kernel_row_means(k: KernelSpec, points: np.ndarray) -> np.ndarray:
    """(1/n) sum_y k(z, y) for every z in points, over the strips from the diagonal on."""
    points = _as_points(points)
    n = len(points)
    return _kernel_sums(k, points, np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# MMD to a fixed reference, and swap deltas for coreset refinement
# ---------------------------------------------------------------------------

class Reference:
    """MMD to the uniform measure on fixed points, from their row means
    row_mean[z] = (1/n) sum_y k(z, y) and the self-term, the mean of those.

    The row means are the caller's (a finite array of shape (n,), else a
    ValueError), else one `kernel_row_means` pass on their or the self-term's
    first read, so a Reference that nothing reads evaluates no kernel.  The
    cross term is a lookup in them against points[indices] (`mmd_sq`), a
    kernel sum against others (`mmd_to`).
    """

    def __init__(self, k: KernelSpec, points, row_mean: np.ndarray | None = None):
        self.kernel = _as_target(k)
        self.points = _as_points(points)
        if row_mean is not None:
            n, out = len(self.points), np.asarray(row_mean, float)
            finite = np.isfinite(out)
            if out.shape != (n,) or not finite.all():
                raise ValueError(f"row_mean must be a finite array of shape ({n},), got shape "
                                 f"{out.shape} with {int((~finite).sum())} non-finite values")
            self.row_mean = out

    @cached_property
    def row_mean(self) -> np.ndarray:
        return kernel_row_means(self.kernel, self.points)

    @cached_property
    def self_term(self) -> float:
        return float(self.row_mean.mean())

    def _on(self, k: KernelSpec, points: np.ndarray) -> Reference:
        """self, if it is on the kernel k and these points; else a ValueError."""
        if self.kernel != _as_target(k) or not np.array_equal(self.points, points):
            raise ValueError(f"the reference is on {self.kernel} and {len(self.points)} points, "
                             f"not on {k} and the {len(points)} given")
        return self

    def _clamped_mmd_sq(self, out_self: float, cross: float) -> float:
        # max(x, 0.0), not max(0.0, x): a NaN stays NaN, as in _clamped_sqrt
        return max(self.self_term + out_self - 2.0 * cross, 0.0)

    def mmd_sq(self, indices) -> float:
        """MMD^2, clamped at 0, between the reference and the uniform
        measure on its points[indices]."""
        idx = _as_indices(indices, len(self.points))
        out_self = _quadratic_form(self.kernel, self.points[idx], np.full(len(idx), 1.0 / len(idx)))
        # the mean of the row means at idx, formed as ndarray.mean forms it
        # without its per-call checks
        return self._clamped_mmd_sq(out_self, float(np.add.reduce(self.row_mean[idx]) / len(idx)))

    def mmd_to(self, out) -> float:
        """MMD between the reference and the uniform measure on the points out."""
        out = _as_points(out)
        n, wv = len(self.points), np.full(len(out), 1.0 / len(out))
        cross = _quadratic_form(self.kernel, self.points, np.full(n, 1.0 / n), out, wv)
        return _clamped_sqrt(self._clamped_mmd_sq(_quadratic_form(self.kernel, out, wv), cross))


class SwapCache:
    """Running cross-sums for one coreset against a fixed input point set.

    Maintains, for every input point z, the row means of the input's
    `reference` (given on k and these points, else built here, read lazily) and

        cross[z] = sum_{w in coreset} k(z, w)   (updated per accepted swap)

    so the MMD^2 change from replacing coreset slot i with z is O(1)
    arithmetic per candidate, done for all n candidates at once.
    """

    def __init__(self, k: KernelSpec, points, coreset, reference: Reference | None = None):
        self.kernel, self.points = _as_target(k), _as_points(points)
        self.coreset = _as_indices(coreset, len(self.points), "coreset")
        self.reference = (Reference(k, self.points) if reference is None
                          else reference._on(k, self.points))
        # k(z, z) for every z: each family attains its sup-norm on the
        # diagonal, bitwise equal to the Gram-path value at z = 0
        self.diag = k.sup_norm()
        self.cross = _kernel_sums(
            k, self.points, np.ones(len(self.coreset)), self.points[self.coreset]
        )
        self._last_column = (-1, None)

    @property
    def out_size(self) -> int:
        return len(self.coreset)

    def _delta_vector(self, position: int) -> np.ndarray:
        # delta(z) = (g(z) - g(old)) / s^2 - 2 (r(z) - r(old)) / s with
        # g(z) = 2 (cross(z) - k(z, old)) + k(z, z); exactly 0 at z = old
        old = self.coreset[_as_index(position, self.out_size, "position")]
        s = float(self.out_size)
        k_z_old = self._column(old)
        g, r = 2.0 * (self.cross - k_z_old) + self.diag, self.reference.row_mean
        return (g - g[old]) / (s * s) - 2.0 * (r - r[old]) / s

    def _column(self, index: int) -> np.ndarray:
        """k(z, points[index]) for every input z.  The last column is kept:
        apply_swap needs the one best_swap has just computed for its slot."""
        if self._last_column[0] != index:
            col = gram(self.kernel, self.points, self.points[index][None, :])[:, 0]
            self._last_column = (index, col)
        return self._last_column[1]

    def best_swap(self, position: int) -> tuple[int, float]:
        """The input index minimizing MMD after replacing the given slot.

        Ties break to the lowest index; the incumbent has delta exactly 0,
        so the returned delta is never positive.
        """
        deltas = self._delta_vector(position)
        best = int(np.argmin(deltas))
        return best, float(deltas[best])

    def apply_swap(self, position: int, candidate: int) -> None:
        """Replace the given slot's point by input index candidate."""
        position = _as_index(position, self.out_size, "position")
        candidate = _as_index(candidate, len(self.points), "candidate")
        old = self.coreset[position]
        if candidate != old:
            k_old = self._column(old)
            k_new = gram(self.kernel, self.points, self.points[candidate][None, :])[:, 0]
            self.cross += k_new - k_old
            self.coreset[position] = candidate


def mmd_swap_delta(cache: SwapCache, position: int, candidate: int) -> float:
    """MMD^2(inputs, coreset with [position] = candidate) - MMD^2(current) for
    the cache's coreset, at the O(n) cost of the slot's whole delta vector
    (see the module)."""
    deltas = cache._delta_vector(position)
    return float(deltas[_as_index(candidate, len(cache.points), "candidate")])


# ---------------------------------------------------------------------------
# the MMD interpolation inequality
# ---------------------------------------------------------------------------

def check_interpolation(
    k: KernelSpec,
    k_alpha: KernelSpec,
    k_2alpha: KernelSpec,
    p: DiscreteMeasure,
    q: DiscreteMeasure,
    alpha: float,
) -> dict:
    """Evaluate MMD_k <= MMD_{k_alpha}^(2 - 1/alpha) * MMD_{k_2alpha}^(1/alpha - 1).

    The caller must supply exactly scaled power kernels (the inequality is
    not invariant to rescaling the three kernels independently); for the
    Gaussian family use `gauss_interpolation_triple`.

    Returns a dict {"lhs", "rhs", "holds"} with holds = lhs <= rhs + 1e-10.
    """
    _check_alpha(alpha)
    lhs = mmd(k, p, q)
    m_a = mmd(k_alpha, p, q)
    m_2a = mmd(k_2alpha, p, q)
    rhs = m_a ** (2.0 - 1.0 / alpha) * m_2a ** (1.0 / alpha - 1.0)
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs + 1e-10)}


def gauss_interpolation_triple(
    sigma: float, alpha: float, dim: int
) -> tuple[KernelSpec, KernelSpec, KernelSpec]:
    """(k, k_alpha, k_2alpha) for gauss(sigma) with exact spectral constants.

    The spectrum of gauss(s) in dim d is s^d exp(-s^2 w^2 / 2) under the
    unitary transform, so the exact t-th power is
    s^((t-1) d) t^(-d/2) gauss(s sqrt(t)); see `gauss_power_exact`.
    """
    k = gauss_power_exact(sigma, 1.0, dim)
    return (
        k,
        gauss_power_exact(sigma, alpha, dim),
        gauss_power_exact(sigma, 2.0 * alpha, dim),
    )
