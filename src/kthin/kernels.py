"""Shift-invariant kernel families and their power / sum constructions.

Six families are supported, all normalized so the unscaled diagonal is 1:

    gauss(sigma)        exp(-|z|^2 / (2 sigma^2))
    laplace(sigma)      exp(-|z| / sigma)
    matern(nu, gamma)   c_a (gamma |z|)^a K_a(gamma |z|),  a = nu - d/2
    imq(nu, gamma)      (1 + |z|^2 / gamma^2)^(-nu)
    sinc(theta)         prod_j sin(theta z_j) / (theta z_j)
    bspline(beta, gamma) prod_j h_beta(gamma z_j) / h_beta(0)

where K_a is the modified Bessel function of the second kind,
c_a = 2^(1-a) / Gamma(a), and h_beta is the (2 beta + 2)-fold
self-convolution of the indicator of [-1/2, 1/2].

A KernelSpec is immutable and carries an explicit positive `scale`
multiplier so that scaled copies, normalized sums, and power-kernel results
all share one representation.  Fractional power kernels are returned up to
a positive constant scaling: thinning decisions and MMD rankings are
invariant to that constant, so it is left at 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("gauss", "laplace", "matern", "imq", "sinc", "bspline", "sum")

# sinc coordinates below this threshold use the Taylor expansion of sin(t)/t
_SINC_TAYLOR_CUTOFF = 1e-8
# radii below this evaluate the Matern family at its limit value 1
_MATERN_ZERO_CUTOFF = 1e-290


class KernelError(ValueError):
    """Invalid kernel parameters or incompatible kernel/point usage."""


class NoClosedFormPowerError(KernelError):
    """Requested power kernel has no closed form for this family/alpha.

    Carries the constraint that failed; callers may supply an explicit
    split kernel instead.
    """


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family tag, its parameters, and a positive scale multiplier.

    Build instances through the module-level constructors (`gauss`,
    `laplace`, ...) which validate parameters eagerly.  Values are immutable
    and safe to share across threads; evaluation is pure.
    """

    family: str
    params: tuple = ()
    scale: float = 1.0
    components: tuple = field(default=(), repr=False)

    def scaled(self, c: float) -> "KernelSpec":
        """The kernel c * k for c > 0."""
        if c <= 0:
            raise KernelError(f"scale must be positive, got {c}")
        return KernelSpec(self.family, self.params, self.scale * c, self.components)

    def normalized(self) -> "KernelSpec":
        """The kernel k / sup|k|, whose diagonal is exactly 1.

        The scale field is replaced outright rather than divided, so the
        result is bitwise independent of the original scale.
        """
        if self.family == "sum":
            comp_total = sum(c.sup_norm() for c in self.components)
            return KernelSpec("sum", (), 1.0 / comp_total, self.components)
        return KernelSpec(self.family, self.params, 1.0, self.components)

    def sup_norm(self) -> float:
        """sup_{x,y} |k(x,y)|; every family attains it on the diagonal."""
        if self.family == "sum":
            return sum(c.sup_norm() for c in self.components) * self.scale
        return self.scale

    # -- parameter accessors ------------------------------------------------

    @property
    def sigma(self) -> float:
        return self.params[0]

    @property
    def nu(self) -> float:
        return self.params[0]

    @property
    def gamma(self) -> float:
        return self.params[1]

    @property
    def theta(self) -> float:
        return self.params[0]

    @property
    def beta(self) -> int:
        return self.params[0]

    def validate_dim(self, d: int) -> None:
        """Check d-dependent constraints (Matern smoothness nu > d/2)."""
        if self.family == "matern" and self.nu <= d / 2:
            raise KernelError(
                f"matern requires nu > d/2: nu={self.nu}, d={d} gives nu <= {d / 2}"
            )
        if self.family == "sum":
            for c in self.components:
                c.validate_dim(d)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.family == "sum":
            return {
                "family": "sum",
                "components": [c.to_json_dict() for c in self.components],
                "scale": self.scale,
            }
        names = _PARAM_NAMES[self.family]
        return {
            "family": self.family,
            "params": dict(zip(names, self.params)),
            "scale": self.scale,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


_PARAM_NAMES = {
    "gauss": ("sigma",),
    "laplace": ("sigma",),
    "matern": ("nu", "gamma"),
    "imq": ("nu", "gamma"),
    "sinc": ("theta",),
    "bspline": ("beta", "gamma"),
}


def gauss(sigma: float, scale: float = 1.0) -> KernelSpec:
    if sigma <= 0:
        raise KernelError(f"gauss requires sigma > 0, got {sigma}")
    return KernelSpec("gauss", (float(sigma),), float(scale))


def laplace(sigma: float, scale: float = 1.0) -> KernelSpec:
    if sigma <= 0:
        raise KernelError(f"laplace requires sigma > 0, got {sigma}")
    return KernelSpec("laplace", (float(sigma),), float(scale))


def matern(nu: float, gamma: float, scale: float = 1.0) -> KernelSpec:
    if nu <= 0 or gamma <= 0:
        raise KernelError(f"matern requires nu > 0 and gamma > 0, got nu={nu}, gamma={gamma}")
    return KernelSpec("matern", (float(nu), float(gamma)), float(scale))


def imq(nu: float, gamma: float, scale: float = 1.0) -> KernelSpec:
    if nu <= 0 or gamma <= 0:
        raise KernelError(f"imq requires nu > 0 and gamma > 0, got nu={nu}, gamma={gamma}")
    return KernelSpec("imq", (float(nu), float(gamma)), float(scale))


def sinc(theta: float, scale: float = 1.0) -> KernelSpec:
    if theta == 0:
        raise KernelError("sinc requires theta != 0")
    return KernelSpec("sinc", (float(theta),), float(scale))


def bspline(beta: int, gamma: float, scale: float = 1.0) -> KernelSpec:
    # beta = 0 (the triangle kernel) arises as a power of bspline(1, .)
    if int(beta) != beta or beta < 0:
        raise KernelError(f"bspline requires integer beta >= 0, got {beta}")
    if gamma <= 0:
        raise KernelError(f"bspline requires gamma > 0, got {gamma}")
    return KernelSpec("bspline", (int(beta), float(gamma)), float(scale))


def kernel_sum(*specs: KernelSpec) -> KernelSpec:
    """The pointwise sum of the given kernels."""
    if not specs:
        raise KernelError("kernel_sum needs at least one component")
    return KernelSpec("sum", (), 1.0, tuple(specs))


def from_json_dict(obj: dict) -> KernelSpec:
    """Parse the JSON object form {"family": ..., "params": {...}, "scale": ...}."""
    try:
        family = obj["family"]
    except (TypeError, KeyError):
        raise KernelError(f"kernel JSON must be an object with a 'family' key: {obj!r}")
    scale = float(obj.get("scale", 1.0))
    if family == "sum":
        comps = tuple(from_json_dict(c) for c in obj.get("components", ()))
        return kernel_sum(*comps).scaled(scale)
    if family not in _PARAM_NAMES:
        raise KernelError(f"unknown kernel family {family!r}; expected one of {FAMILIES}")
    params = obj.get("params", {})
    ctor = {"gauss": gauss, "laplace": laplace, "matern": matern,
            "imq": imq, "sinc": sinc, "bspline": bspline}[family]
    try:
        return ctor(**params, scale=scale)
    except TypeError:
        raise KernelError(
            f"bad parameters for {family}: expected {_PARAM_NAMES[family]}, got {params!r}"
        )


def from_json(text: str) -> KernelSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise KernelError(f"kernel JSON does not parse: {exc}")
    return from_json_dict(obj)


# ---------------------------------------------------------------------------
# univariate pieces
# ---------------------------------------------------------------------------

def bspline_univariate(beta: int, t) -> np.ndarray | float:
    """The (2 beta + 2)-fold self-convolution of 1_[-1/2, 1/2] at t.

    Evaluated with the explicit alternating-sum piecewise-polynomial form of
    the centered cardinal B-spline of order k = 2 beta + 2:

        M_k(t) = 1/(k-1)! * sum_{j=0}^{k} (-1)^j C(k, j) (t + k/2 - j)_+^{k-1}

    Compactly supported on [-(beta + 1), beta + 1] and even in t.
    """
    if int(beta) != beta or beta < 0:
        raise KernelError(f"bspline_univariate requires integer beta >= 0, got {beta}")
    order = 2 * int(beta) + 2
    return _cardinal_bspline(order, np.asarray(t, dtype=float))


def _cardinal_bspline(order: int, t: np.ndarray) -> np.ndarray | float:
    half = order / 2.0
    acc = np.zeros_like(t, dtype=float)
    sign = 1.0
    for j in range(order + 1):
        acc += sign * math.comb(order, j) * np.maximum(t + half - j, 0.0) ** (order - 1)
        sign = -sign
    out = acc / math.factorial(order - 1)
    return out if out.ndim else float(out)


def _bspline_center(beta: int) -> float:
    """h_beta(0), the per-coordinate normalizer of the bspline family."""
    return float(_cardinal_bspline(2 * beta + 2, np.asarray(0.0)))


def _sinc_univariate(t: np.ndarray) -> np.ndarray:
    # evaluate at |t|: sin(t)/t is even, and this keeps Grams exactly symmetric
    t = np.abs(np.asarray(t, dtype=float))
    small = t < _SINC_TAYLOR_CUTOFF
    safe = np.where(small, 1.0, t)
    out = np.sin(safe) / safe
    t2 = t * t
    return np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, out)


def _matern_profile(a: float, t: np.ndarray) -> np.ndarray:
    """c_a t^a K_a(t) for t >= 0, with the limit value 1 at t = 0.

    Half-integer orders a = p + 1/2 use the exact exponential-polynomial
    form; other orders fall back to the scipy Bessel evaluation.
    """
    # imported here: scipy.special is most of the package's import time, and
    # only the Matern family needs it
    from scipy.special import gamma as _gamma_fn, kv as _bessel_kv

    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    pos = t > _MATERN_ZERO_CUTOFF
    tp = t[pos]
    two_a = 2.0 * a
    if abs(two_a - round(two_a)) < 1e-12 and int(round(two_a)) % 2 == 1:
        # K_{p+1/2}(t) = sqrt(pi/(2t)) e^{-t} sum_k (p+k)!/(k!(p-k)!) (2t)^{-k},
        # so c_a t^a K_a(t) = c_a sqrt(pi/2) e^{-t} sum_k coeff_k 2^{-k} t^{p-k}
        p = int(round(a - 0.5))
        poly = np.zeros_like(tp)
        for k in range(p + 1):
            coeff = math.factorial(p + k) / (math.factorial(k) * math.factorial(p - k))
            poly += coeff * 2.0 ** (-k) * tp ** (p - k)
        const = 2.0 ** (1.0 - a) / _gamma_fn(a) * math.sqrt(math.pi / 2.0)
        out[pos] = const * np.exp(-tp) * poly
    else:
        c_a = 2.0 ** (1.0 - a) / _gamma_fn(a)
        out[pos] = c_a * tp ** a * _bessel_kv(a, tp)
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise KernelError(f"points must be a (n, d) array, got shape {x.shape}")
    return x


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # coordinate-wise accumulation: deterministic regardless of BLAS threading
    out = x[..., 0] - y[..., 0]
    out *= out
    for j in range(1, x.shape[-1]):
        diff = x[..., j] - y[..., j]
        diff *= diff
        out += diff
    return out


def gram(k: KernelSpec, x, y=None) -> np.ndarray:
    """The matrix k(x_i, y_j); y defaults to x.

    Entries are evaluated independently, so any outer parallelization over
    blocks reproduces the same values bitwise.
    """
    x = _as_points(x)
    y = x if y is None else _as_points(y)
    if x.shape[1] != y.shape[1]:
        raise KernelError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    k.validate_dim(x.shape[1])
    return evaluate(k, x[:, None, :], y[None, :, :])


def evaluate(k: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """k(x, y) elementwise over the broadcast of the leading axes of x and y.

    The last axis of both float arrays holds the d coordinates.  Nothing is
    validated here: callers check k against d with `k.validate_dim` once.
    Every entry is computed by the same arithmetic whatever the shapes, so
    `gram` and the split stage, which both evaluate through this function,
    agree bitwise on every pair.
    """
    fam = k.family
    if fam == "sum":
        out = evaluate(k.components[0], x, y)
        for c in k.components[1:]:
            out += evaluate(c, x, y)
        if k.scale != 1.0:
            out *= k.scale
        return out
    if fam == "gauss":
        out = np.exp(_sq_dists(x, y) / (-2.0 * k.sigma**2))
    elif fam == "laplace":
        out = np.exp(-np.sqrt(_sq_dists(x, y)) / k.sigma)
    elif fam == "matern":
        a = k.nu - x.shape[-1] / 2.0
        out = _matern_profile(a, k.gamma * np.sqrt(_sq_dists(x, y)))
    elif fam == "imq":
        out = (1.0 + _sq_dists(x, y) / k.gamma**2) ** (-k.nu)
    elif fam == "sinc":
        out = _sinc_univariate(k.theta * (x[..., 0] - y[..., 0]))
        for j in range(1, x.shape[-1]):
            out *= _sinc_univariate(k.theta * (x[..., j] - y[..., j]))
    elif fam == "bspline":
        # evaluate at |z_j|: h is even, and this keeps Grams exactly symmetric
        center = _bspline_center(k.beta)
        order = 2 * k.beta + 2
        out = _cardinal_bspline(order, np.abs(k.gamma * (x[..., 0] - y[..., 0])))
        out /= center
        for j in range(1, x.shape[-1]):
            out *= (
                _cardinal_bspline(order, np.abs(k.gamma * (x[..., j] - y[..., j])))
                / center
            )
    else:
        raise KernelError(f"unknown family {fam!r}")
    if k.scale != 1.0:
        out *= k.scale
    return out


def kernel_eval(k: KernelSpec, x, y) -> float:
    """k(x, y) for two single points."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    y = np.asarray(y, dtype=float).reshape(1, -1)
    return float(gram(k, x, y)[0, 0])


def gram_rows(k: KernelSpec, points: np.ndarray, rows, cols) -> np.ndarray:
    """k(points[rows], points[cols]) without forming the full Gram matrix."""
    rows = np.atleast_1d(np.asarray(rows, dtype=int))
    cols = np.atleast_1d(np.asarray(cols, dtype=int))
    return gram(k, points[rows], points[cols])


# ---------------------------------------------------------------------------
# power kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerKernelPair:
    """A target kernel together with its fractional power kernel.

    `power` has generalized Fourier transform proportional to the alpha-th
    power of the target's; it is represented up to a positive constant
    scaling (scale = 1).
    """

    target: KernelSpec
    power: KernelSpec
    alpha: float
    closed_form: bool = True


def power_kernel(k: KernelSpec, alpha: float, dim: int | None = None) -> PowerKernelPair:
    """Resolve the alpha-power kernel of k in closed form.

    Args:
      k: target kernel spec.
      alpha: exponent in [1/2, 1]; alpha = 1 returns k itself.
      dim: point dimension, required for the matern/laplace validity
        constraint alpha * nu > dim / 2.

    Raises:
      NoClosedFormPowerError: family/alpha combination with no closed form
        (imq always; matern when alpha*nu <= d/2; bspline when the reduced
        order is not an even non-negative integer).
    """
    if not 0.5 <= alpha <= 1.0:
        raise KernelError(f"alpha must lie in [1/2, 1], got {alpha}")
    if alpha == 1.0:
        return PowerKernelPair(k, k, 1.0)
    fam = k.family
    if fam == "gauss":
        return PowerKernelPair(k, gauss(k.sigma * math.sqrt(alpha)), alpha)
    if fam == "sinc":
        # the spectrum is a rectangle, so every power is the kernel itself
        return PowerKernelPair(k, sinc(k.theta), alpha)
    if fam in ("laplace", "matern"):
        if dim is None:
            raise KernelError(f"power_kernel for {fam} needs the point dimension")
        if fam == "laplace":
            nu, gam = (dim + 1) / 2.0, 1.0 / k.sigma
        else:
            nu, gam = k.nu, k.gamma
        if alpha * nu <= dim / 2.0:
            raise NoClosedFormPowerError(
                f"no closed-form power kernel: {fam} requires alpha*nu > d/2, "
                f"but alpha*nu = {alpha * nu} <= {dim / 2.0} (d={dim}); "
                "supply an explicit split kernel instead"
            )
        return PowerKernelPair(k, matern(alpha * nu, gam), alpha)
    if fam == "bspline":
        reduced = 2.0 * alpha * k.beta + 2.0 * alpha - 2.0
        rounded = round(reduced)
        if abs(reduced - rounded) > 1e-9 or rounded < 0 or rounded % 2 != 0:
            raise NoClosedFormPowerError(
                f"no closed-form power kernel: bspline requires "
                f"2*alpha*(beta+1) - 2 to be an even non-negative integer, got {reduced}; "
                "supply an explicit split kernel instead"
            )
        return PowerKernelPair(k, bspline(rounded // 2, k.gamma), alpha)
    raise NoClosedFormPowerError(
        f"no closed-form power kernel for family {fam!r}; "
        "supply an explicit split kernel instead"
    )


def ktplus_kernel(k: KernelSpec, k_alpha: KernelSpec) -> KernelSpec:
    """The sum of k and k_alpha, each normalized by its sup-norm.

    The result has diagonal 2 and sup-norm at most 2.
    """
    return kernel_sum(k.normalized(), k_alpha.normalized())


def gauss_power_exact(sigma: float, exponent: float, dim: int) -> KernelSpec:
    """The Gaussian power kernel with its exact spectral constant.

    With the unitary transform convention, gauss(sigma) in dim d has
    transform sigma^d exp(-sigma^2 w^2 / 2); raising it to the t-th power
    gives sigma^(t d) exp(-t sigma^2 w^2 / 2), the transform of
    sigma^((t-1) d) t^(-d/2) * gauss(sigma sqrt(t)).  Any t > 0 is valid.
    """
    if exponent <= 0:
        raise KernelError(f"exponent must be positive, got {exponent}")
    scale = sigma ** ((exponent - 1.0) * dim) * exponent ** (-dim / 2.0)
    return gauss(sigma * math.sqrt(exponent), scale=scale)


# ---------------------------------------------------------------------------
# identity-perturbed kernel on indexed points
# ---------------------------------------------------------------------------

class IndexedPoints:
    """A point set whose elements carry their input index.

    Conceptually each point x_i is extended with the i-th standard basis
    vector; the basis vectors are never materialized.
    """

    def __init__(self, points):
        self.points = _as_points(points)

    def __len__(self) -> int:
        return self.points.shape[0]


class IdentityPerturbedKernel:
    """k(x_i, x_j) / sup|k| + [i == j], defined on one indexed point set.

    Evaluating across two different IndexedPoints instances is rejected:
    their implicit basis extensions live in different spaces.
    """

    def __init__(self, base: KernelSpec, weight: float = 1.0):
        if weight <= 0:
            raise KernelError(f"identity weight must be positive, got {weight}")
        self.base = base
        self.weight = float(weight)

    def eval(self, a: IndexedPoints, i: int, b: IndexedPoints, j: int) -> float:
        if a is not b:
            raise KernelError("identity-perturbed kernel requires both points "
                              "to come from the same indexed set")
        val = kernel_eval(self.base.normalized(), a.points[i], a.points[j])
        return val + (self.weight if i == j else 0.0)

    def gram(self, a: IndexedPoints) -> np.ndarray:
        out = gram(self.base.normalized(), a.points)
        out[np.diag_indices_from(out)] += self.weight
        return out


def identity_perturbed(k: KernelSpec, weight: float = 1.0) -> IdentityPerturbedKernel:
    """The identity-perturbed variant of k for use on indexed inputs."""
    return IdentityPerturbedKernel(k, weight)
