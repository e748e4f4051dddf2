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
self-convolution of the indicator of [-1/2, 1/2].  One function,
`_matern_into`, evaluates the Matern family at every order, in place: the
exponential-polynomial closed form at half-integer orders, scipy's `kv` at
the others (the Bessel orders), and a log-domain form wherever the direct
product leaves the float range.

A KernelSpec is immutable and carries an explicit positive `scale`
multiplier so that scaled copies, normalized sums, and power-kernel results
all share one representation.  Fractional power kernels are returned up to
a positive constant scaling: thinning decisions and MMD rankings are
invariant to that constant, so it is left at 1.

Threads start only in `_in_order`, the owner of the package's thread rule.
The one-row ufunc buffer of the Gram loops is `_row_buffered`'s, and the
exact power-of-two scaling is `_divide`'s.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import threading
import types
import typing
from dataclasses import dataclass, field

import numpy as np

# each family's parameter names, in the order of `KernelSpec.params`
_PARAM_NAMES = {
    "gauss": ("sigma",),
    "laplace": ("sigma",),
    "matern": ("nu", "gamma"),
    "imq": ("nu", "gamma"),
    "sinc": ("theta",),
    "bspline": ("beta", "gamma"),
}
FAMILIES = (*_PARAM_NAMES, "sum")

# sinc coordinates below this threshold use the Taylor expansion of sin(t)/t
_SINC_TAYLOR_CUTOFF = 1e-8
# radii below this evaluate the Matern family at its limit value 1
_MATERN_ZERO_CUTOFF = 1e-290
# entries per scipy Bessel call when the Matern profile spreads them over threads
_KV_CHUNK = 8192
# entries per chunk of the half-integer Matern polynomial's terms
_POLY_CHUNK = 8192
# the smallest normal double; a smaller c_a sends the Matern profile to its log form
_SMALLEST_NORMAL = 2.0 ** -1022
# the largest bspline beta whose alternating sum stays within 1e-9 h_beta(0) of
# de Boor's evaluation (1.4e-10 at 5, 2.1e-9 at 6; it overflows from 85 on)
_BSPLINE_MAX_BETA = 5


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
    `laplace`, ...).  `params` are the family's `_PARAM_NAMES`, in order,
    each read as `k.<name>` (any other name is an AttributeError); a sum's
    summands, one or more KernelSpecs, are its `components`, and no other
    family has any.  Values are immutable, safe to share across threads,
    and pure to evaluate.
    """

    family: str
    params: tuple = ()
    scale: float = 1.0
    components: tuple = field(default=(), repr=False)

    def __post_init__(self):
        """The one check of a kernel's parts, which the constructors, the
        JSON reader, `scaled`, `normalized` and `with_lengthscale` all pass
        through: see `_checked`, and the components rule above."""
        names = _PARAM_NAMES.get(self.family, ())
        if self.family not in FAMILIES or len(self.params) != len(names):
            raise KernelError(f"expected a family of {FAMILIES} with its parameters, "
                              f"got {self.family!r} with {self.params}")
        object.__setattr__(self, "scale", _checked(self.family, "scale", self.scale))
        object.__setattr__(self, "params", tuple(
            _checked(self.family, name, v) for name, v in zip(names, self.params)))
        comps = self.components
        if not isinstance(comps, tuple) or not all(isinstance(c, KernelSpec) for c in comps):
            raise KernelError(f"kernel components must be a tuple of KernelSpecs, got {comps!r}")
        if (self.family == "sum") != bool(comps):
            raise KernelError(f"a sum kernel needs at least one component and no other family "
                              f"takes any, got {self.family!r} with {len(comps)}")

    def scaled(self, c: float) -> "KernelSpec":
        """The kernel c * k for c > 0."""
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

    def with_lengthscale(self, length: float) -> "KernelSpec":
        """The same kernel at length scale `length`: the last parameter, a
        width, becomes `length` if it is sigma and 1 / length if it is gamma
        or theta; each component of a sum is rescaled alike.  Shape
        parameters (nu, beta) and scale multipliers are kept."""
        length = _number_in(length, float, lambda x: x > 0, "length scale must be finite and > 0")
        if self.family == "sum":
            comps = tuple(c.with_lengthscale(length) for c in self.components)
            return KernelSpec("sum", (), self.scale, comps)
        width = length if _PARAM_NAMES[self.family][-1] == "sigma" else 1.0 / length
        return KernelSpec(self.family, self.params[:-1] + (width,), self.scale)

    def __getattr__(self, name: str):
        """k.<name> for the family's parameter names (k.sigma, k.gamma, ...); read
        from `__dict__`, which a copy or an unpickling fills only after lookups."""
        family = self.__dict__.get("family")
        names = _PARAM_NAMES.get(family, ())
        if name not in names:
            raise AttributeError(f"{family!r} kernel has no attribute {name!r}")
        return self.__dict__["params"][names.index(name)]

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


def _checked(family: str, name: str, value):
    """Parameter `name`, or the scale, read by `_number_in`: beta is an int
    (0, the triangle kernel, is a power of bspline(1, .)), the others floats."""
    rule, in_domain = {"theta": ("!= 0", lambda x: x != 0), "beta": (
        f"an integer from 0 to {_BSPLINE_MAX_BETA}", lambda x: 0 <= x <= _BSPLINE_MAX_BETA),
    }.get(name, ("> 0", lambda x: x > 0))
    return _number_in(value, int if name == "beta" else float, in_domain,
                      f"{family} kernel {name} must be finite and {rule}")


def gauss(sigma: float, scale: float = 1.0) -> KernelSpec:
    return KernelSpec("gauss", (sigma,), scale)


def laplace(sigma: float, scale: float = 1.0) -> KernelSpec:
    return KernelSpec("laplace", (sigma,), scale)


def matern(nu: float, gamma: float, scale: float = 1.0) -> KernelSpec:
    return KernelSpec("matern", (nu, gamma), scale)


def imq(nu: float, gamma: float, scale: float = 1.0) -> KernelSpec:
    return KernelSpec("imq", (nu, gamma), scale)


def sinc(theta: float, scale: float = 1.0) -> KernelSpec:
    return KernelSpec("sinc", (theta,), scale)


def bspline(beta: int, gamma: float, scale: float = 1.0) -> KernelSpec:
    return KernelSpec("bspline", (beta, gamma), scale)


def kernel_sum(*specs: KernelSpec) -> KernelSpec:
    """The pointwise sum of the given kernels."""
    return KernelSpec("sum", (), 1.0, tuple(specs))


def from_json_dict(obj: dict) -> KernelSpec:
    """Parse the JSON object form {"family": ..., "params": {...}, "scale": ...},
    or {"family": "sum", "components": [...], "scale": ...}.  Any other key is
    rejected, and "scale" defaults to 1."""
    try:
        family = obj["family"]
    except (TypeError, KeyError):
        raise KernelError(f"kernel JSON must be an object with a 'family' key: {obj!r}")
    if family not in FAMILIES:
        raise KernelError(f"unknown kernel family {family!r}; expected one of {FAMILIES}")
    body = "components" if family == "sum" else "params"
    for key in obj:
        if key not in ("family", body, "scale"):
            raise KernelError(f"{family} kernel JSON has unknown key {key!r}; "
                              f"its keys are family, {body} and scale")
    try:
        scale = obj.get("scale", 1.0)
        if family == "sum":
            comps = tuple(from_json_dict(c) for c in obj.get("components", ()))
            return KernelSpec("sum", (), scale, comps)
        names, params = _PARAM_NAMES[family], obj.get("params", {})
        if set(params) == set(names):
            return KernelSpec(family, tuple(params[name] for name in names), scale)
    except KernelError:
        raise
    except (TypeError, ValueError):
        pass
    raise KernelError(f"bad {family} kernel JSON: expected {body} "
                      f"{_PARAM_NAMES.get(family, '[kernel objects]')} and a numeric scale, "
                      f"got {obj!r}")


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
    order = 2 * _checked("bspline", "beta", beta) + 2
    half = order / 2.0
    t = np.asarray(t, dtype=float)
    acc = np.zeros_like(t)
    sign = 1.0
    for j in range(order + 1):
        acc += sign * math.comb(order, j) * np.maximum(t + half - j, 0.0) ** (order - 1)
        sign = -sign
    # past the support the alternating sum cancels catastrophically (it reads
    # 858 for order 8 at t = 1000), so the zero there is set, not computed
    out = np.where(np.abs(t) < half, acc / math.factorial(order - 1), 0.0)
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=None)
def _bspline_center(beta: int) -> float:
    """h_beta(0), the per-coordinate normalizer of the bspline family.

    Memoized: `evaluate` divides by it on every call, and the split calls
    `evaluate` once per block of 2^m input points.
    """
    return bspline_univariate(beta, 0.0)


def _sinc_univariate(t: np.ndarray) -> np.ndarray:
    """sin(t) / t for t >= 0, by its Taylor expansion near 0."""
    small = t < _SINC_TAYLOR_CUTOFF
    safe = np.where(small, 1.0, t)
    out = np.sin(safe) / safe
    t2 = t * t
    return np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, out)


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# set on a thread while it runs `_in_order` tasks, which then start no threads
_in_pool = threading.local()


def _in_order(task, count: int, state, take, most: int | None = None) -> None:
    """take(task(i, s)) for i = 0 .. count - 1, taken in order of i.

    The package's one thread rule: one thread per CPU this process's
    affinity allows and per task, at most `most` when given, or the calling
    thread alone inside an `_in_order` task (a split block's `kv` chunks run
    on the block's thread).  No option, environment variable or parameter
    sets the count.  The callers: kernel-sum strips
    (`discrepancy._kernel_sums`), the `_KV_CHUNK`-entry chunks of a
    Bessel-order Matern (`_chunked_kv`; scipy's `kv` costs two orders of
    magnitude more per entry than `np.exp`), and the blocks of a split that
    calls `kv` (`thinning.kt_split`).

    Each thread claims the next index and runs its task with its own
    s = state() (say, a buffer), so a faster thread runs more tasks, under
    the calling thread's numpy error settings and callback; the helpers
    live only for the call.  Only the calling thread calls take, strictly in
    order of i, and no index is claimed more than twice the thread count
    past the next one to take, so at most that many results wait.  Whatever
    the thread count, take sees the same results in the same order.  A task
    that a helper may run forms its products with `np.dot` (see
    `discrepancy._kernel_sums`).  A task that raises stops the other threads
    at their next claim; the calling thread's exception, else the first
    helper's, is raised once every helper exited.
    """
    alone = getattr(_in_pool, "busy", False)
    threads = 1 if alone else min(_cpu_count(), count, count if most is None else most)
    states = [state() for _ in range(threads)]
    if len(states) < 2:
        for i in range(count):
            take(task(i, states[0]))
        return
    window = 2 * len(states)
    cond = threading.Condition()
    results: dict = {}
    errors: list = []
    claimed = taken = 0
    # numpy keeps its error settings in a context variable, which a new
    # thread does not inherit: the helpers run their tasks under the caller's,
    # its error callback included
    caller_err = dict(np.geterr(), call=np.geterrcall())

    def helper(state) -> None:
        nonlocal claimed
        _in_pool.busy = True
        with np.errstate(**caller_err):
            while True:
                with cond:
                    cond.wait_for(lambda: errors or claimed >= count or claimed < taken + window)
                    if errors or claimed >= count:
                        return
                    i, claimed = claimed, claimed + 1
                try:
                    res = task(i, state)
                except BaseException as exc:
                    with cond:
                        errors.append(exc)
                        cond.notify_all()
                    return
                with cond:
                    results[i] = res
                    cond.notify_all()

    helpers = []
    _in_pool.busy = True
    try:
        for state in states[1:]:
            h = threading.Thread(target=helper, args=(state,))
            h.start()
            helpers.append(h)
        while taken < count:
            with cond:
                cond.wait_for(lambda: errors or taken in results
                              or claimed < min(count, taken + window))
                if errors:
                    break
                ready = taken in results
                if ready:
                    res = results.pop(taken)
                else:
                    i, claimed = claimed, claimed + 1
            if not ready:
                res = task(i, states[0])
                if i != taken:
                    with cond:
                        results[i] = res
                    continue
            take(res)
            with cond:
                taken += 1
                cond.notify_all()
    except BaseException as exc:
        with cond:
            errors.insert(0, exc)
            cond.notify_all()
        raise
    finally:
        _in_pool.busy = False
        for h in helpers:
            h.join()
    if errors:
        raise errors[0]


def _chunked_kv(a: float, t: np.ndarray, out: np.ndarray) -> None:
    """K_a(t) into out, over chunks of `_KV_CHUNK` entries run by `_in_order`.

    scipy's `kv` is an elementwise ufunc that releases the GIL, so every
    value is bitwise what one call gives, on any number of threads.
    """
    # imported here: scipy.special is most of the package's import time, and
    # only the Matern family needs it
    from scipy.special import kv

    flat_t, flat_out = t.reshape(-1), out.reshape(-1)

    def chunk(i, _) -> None:
        at = slice(i * _KV_CHUNK, (i + 1) * _KV_CHUNK)
        kv(a, flat_t[at], out=flat_out[at])

    _in_order(chunk, -(-t.size // _KV_CHUNK), lambda: None, lambda _: None)


def _half_integer(a: float) -> bool:
    """Whether a = p + 1/2 for an integer p >= 0, the orders whose Matern
    profile has a closed exponential-polynomial form."""
    two_a = 2.0 * a
    return abs(two_a - round(two_a)) < 1e-12 and int(round(two_a)) % 2 == 1


def _evaluates_kv(k: KernelSpec, d: int) -> bool:
    """Whether evaluating k on d-dimensional points calls scipy's `kv`: a
    Matern of an order a = nu - d/2 that is not a half-integer, alone or in
    a sum: the kernels whose split `thinning.kt_split` pipelines."""
    if k.family == "sum":
        return any(_evaluates_kv(c, d) for c in k.components)
    return k.family == "matern" and not _half_integer(k.nu - d / 2.0)


def _matern_constant(a: float) -> float:
    """c_a = 2^(1-a) / Gamma(a), 0 once Gamma(a) overflows."""
    from scipy.special import gamma

    return 2.0 ** (1.0 - a) / gamma(a)


def _matern_into(a: float, gamma: float, x: np.ndarray, y: np.ndarray,
                 out: np.ndarray | None, scratch: np.ndarray | None) -> np.ndarray:
    """The Matern kernel of order a and scale parameter gamma at (x, y),
    c_a t^a K_a(t) at t = gamma |x - y|, written into out.

    The radii t go into out.  Before anything else, clip(t) - t in scratch
    marks the entries at the limits, positive where t <= `_MATERN_ZERO_CUTOFF`
    (value 1; every split block's diagonal) and negative from the far
    cut-off on (value 0; t = inf included), where the profile rounds to 0.
    The direct value then replaces t in place: for a half-integer order
    a = p + 1/2 the exact exponential-polynomial form, with the polynomial in
    scratch; for other orders K_a(t) goes into scratch through `_chunked_kv`
    and out becomes t^a, then c_a t^a, then c_a t^a K_a(t); where c_a is not
    a normal float, NaN.  After that, v / v - 1 in scratch marks where the
    value is not a positive finite number: at large orders t^a or the
    polynomial overflows while K_a(t) or e^{-t} underflows.  The limits are
    set, and the other marked entries are recomputed from their own
    coordinates in the log-domain form `_matern_log_profile`.  So with out
    and scratch given, a Bessel order allocates nothing but the marked
    entries' indices, coordinates and values, and a half-integer order also
    a buffer of `_POLY_CHUNK` entries for the polynomial's terms.
    """
    out = _sq_dists(x, y, out, scratch)
    scratch = np.empty_like(out) if scratch is None else scratch
    np.sqrt(out, out=out)
    out *= gamma
    np.clip(out, np.nextafter(_MATERN_ZERO_CUTOFF, np.inf),
            np.nextafter(_matern_far_cutoff(a), 0.0), out=scratch)
    scratch -= out
    limits = np.flatnonzero(scratch)
    limit_values = (scratch.flat[limits] > 0.0).astype(float)
    c_a = _matern_constant(a)
    with np.errstate(over="ignore", invalid="ignore"):
        if c_a < _SMALLEST_NORMAL:  # marks every entry for the log-domain form
            out.fill(np.nan)
        elif _half_integer(a):
            # K_{p+1/2}(t) = sqrt(pi/(2t)) e^{-t} sum_k (p+k)!/(k!(p-k)!) (2t)^{-k},
            # so c_a t^a K_a(t) = c_a sqrt(pi/2) e^{-t} sum_k coeff_k 2^{-k} t^{p-k};
            # coeff_k 2^{-k} as one division stays in float range wherever c_a does
            # summed over chunks of a small buffer, each term formed as
            # coeff * t ** (p - k) is, numpy's scalar fast paths included
            p = int(round(a - 0.5))
            coeffs = [math.factorial(p + k) / (math.factorial(k) * math.factorial(p - k) << k)
                      for k in range(p + 1)]
            scratch[...] = 0.0
            flat_t, flat_poly = out.reshape(-1), scratch.reshape(-1)
            term = np.empty(min(out.size, _POLY_CHUNK))
            for i in range(0, out.size, _POLY_CHUNK):
                t, poly = flat_t[i:i + _POLY_CHUNK], flat_poly[i:i + _POLY_CHUNK]
                buf = term[:len(t)]
                for k, coeff in enumerate(coeffs):
                    np.copyto(buf, t)
                    buf **= p - k
                    buf *= coeff
                    poly += buf
            np.negative(out, out=out)
            np.exp(out, out=out)
            out *= c_a * math.sqrt(math.pi / 2.0)
            out *= scratch
        else:
            _chunked_kv(a, out, scratch)
            out **= a
            out *= c_a
            out *= scratch
        np.divide(out, out, out=scratch)
    scratch -= 1.0
    redo = np.setdiff1d(np.flatnonzero(scratch), limits, assume_unique=True)
    out.flat[limits] = limit_values
    if redo.size:
        at = np.unravel_index(redo, out.shape)
        xr, yr = (np.broadcast_to(v, out.shape + v.shape[-1:])[at] for v in (x, y))
        log_values = _matern_log_profile(a, gamma * np.sqrt(_sq_dists(xr, yr)))
        # clamped to the value at t = 0, which the log-domain sum can pass by
        # rounding where the profile is 1 to double precision
        out.flat[redo] = np.minimum(np.exp(log_values), 1.0)
    return out


def _matern_log_profile(a: float, t: np.ndarray) -> np.ndarray:
    """log(c_a t^a K_a(t)) for t > 0 as log c_a + a log t + log kve(a, t) - t,
    with kve(a, t) = K_a(t) e^t, so that no factor needs to be in float range.

    Where kve(a, t) itself overflows (t small against a), its log climbs from
    the orders b = a - floor(a) and b - 1 (K_{b-1} = K_{1-b}), whose kve stay
    finite, up the recurrence K_{v+1} = K_{v-1} + (2v / t) K_v, carried as
    the ratio r_v = K_{v+1} / K_v = 1 / r_{v-1} + 2v / t >= 1.
    """
    from scipy.special import gammaln, kve

    log_kve = np.log(kve(a, t))
    over = np.isinf(log_kve)
    if over.any():
        b, t_over = a - math.floor(a), t[over]
        log_kve[over] = np.log(kve(b, t_over))
        ratio = kve(b, t_over) / kve(1.0 - b, t_over)
        for v in b + np.arange(math.floor(a)):
            ratio = 1.0 / ratio + 2.0 * v / t_over
            log_kve[over] += np.log(ratio)
    return (1.0 - a) * math.log(2.0) - gammaln(a) + a * np.log(t) + log_kve - t


@functools.lru_cache(maxsize=None)
def _matern_far_cutoff(a: float) -> float:
    """A t past which c_a t^a K_a(t) < 2^-1075, half the smallest subnormal,
    so that the profile rounds to exactly 0 in double precision.

    Bisects `_matern_log_profile`; the profile decreases in t, so every t
    past the returned upper end of the bracket is below the floor too.
    """
    def above_floor(t: float) -> bool:
        return _matern_log_profile(a, np.array([t]))[0] >= -1075.0 * math.log(2.0)

    lo, hi = 1.0, 1024.0
    while above_floor(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if above_floor(mid):
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _as_points(x) -> np.ndarray:
    """x as an (n, d) float array with n, d >= 1; 1-D input is n points in d = 1.

    Every function that takes points reads them here.  Other input is a
    ValueError naming the shape, or the row and column of a NaN or inf,
    which would make every MMD NaN and stop the split from ever swapping.
    """
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise ValueError(f"points must be an (n, d) array of numbers: {exc}") from None
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.size == 0:
        raise ValueError(f"points must be an (n, d) array of at least one point and one "
                         f"coordinate, got shape {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite input value at row {int(r)}, column {int(c)}")
    return x


def _as_indices(indices, n: int, name: str = "indices") -> np.ndarray:
    """indices as a non-empty 1-D int array of entries in [0, n); anything
    else is a ValueError naming the argument."""
    out = np.asarray(indices)
    if out.ndim != 1 or out.dtype.kind not in "iu" or not len(out) or not (
            0 <= out.min() <= out.max() < n):
        raise ValueError(f"{name} must be a non-empty 1-D integer array of entries in "
                         f"[0, {n}), got {out!r}")
    return out.astype(int)


def _as_number(value, kind: type = float):
    """value as a Python float, or a Python int for kind int, if it is a
    finite JSON number; every spec number is read here.

    A float takes any finite number, an int any integer (past the float
    range too, so large seeds wrap) or a whole-number float (2.0 reads as 2).
    A bool, a string, NaN, an infinity, a float past the float range, or a
    fractional value for an int is a ValueError.
    """
    if kind is int and isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    try:
        # compared as a Python float: a numpy float32 compared with the float
        # range would cast its bound to float32 (inf) and warn
        finite = isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            math.isfinite(float(value)))
    except OverflowError:  # an int past the float range
        finite = False
    if not finite or kind is int and not float(value).is_integer():
        raise ValueError(f"expected {'an integer' if kind is int else 'a finite number'}, "
                         f"got {value!r}")
    return kind(value)


def _number_in(value, kind: type, in_domain, rule: str, error: type = KernelError):
    """value as `_as_number` reads it as kind, if in_domain holds of that;
    else error("<rule>, got <value>").  Reads the spec numbers outside dataclasses."""
    try:
        number = _as_number(value, kind)
        valid = in_domain(number)
    except ValueError:
        valid = False
    if not valid:
        raise error(f"{rule}, got {value!r}")
    return number


_type_hints = functools.cache(typing.get_type_hints)


def _read_as(value, hint):
    """value read as the type annotation hint, or a ValueError: `tuple[X, ...]`
    takes any sequence but a string or a dict and reads each entry as X,
    `Literal[...]` one of its values (an int one reads value as an int first),
    int and float go through `_as_number`, `X | None` takes None too, and a
    class takes an instance of it (a str subclass read as a plain str)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        if value is None and type(None) in args:
            return None
        args = tuple(a for a in args if a is not type(None))
        return _read_as(value, args[0] if len(args) == 1 else args)
    if origin is tuple:
        if isinstance(value, (str, dict)) or not hasattr(value, "__iter__"):
            raise ValueError(f"expected an array, got {value!r}")
        return tuple(_read_as(v, args[0]) for v in value)
    if origin is typing.Literal:
        value = _as_number(value, int) if isinstance(args[0], int) else value
        if not any(isinstance(value, type(a)) and value == a for a in args):
            raise ValueError(f"expected one of {list(args)}, got {value!r}")
        return type(args[0])(value)
    if hint in (int, float):
        return _as_number(value, hint)
    if not isinstance(value, hint):
        names = " or ".join(c.__name__ for c in (hint if isinstance(hint, tuple) else (hint,)))
        raise ValueError(f"expected {names}, got {value!r}")
    return str(value) if isinstance(value, str) else value


def _read_fields(spec) -> None:
    """Read spec's fields in place by their annotations, or raise a ValueError naming the key."""
    for name, hint in _type_hints(type(spec)).items():
        try:
            value = _read_as(getattr(spec, name), hint)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{type(spec).__name__} spec key {name!r}: {exc}") from exc
        object.__setattr__(spec, name, value)


def _sq_dists(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    # coordinate-wise accumulation: deterministic regardless of BLAS threading;
    # each coordinate after the first is squared in scratch, else a temporary
    out = np.subtract(x[..., 0], y[..., 0], out=out)
    out *= out
    for j in range(1, x.shape[-1]):
        diff = np.subtract(x[..., j], y[..., j], out=scratch)
        diff *= diff
        out += diff
    return out


def _row_buffered(width: int, f, *args, **kwargs):
    """f(*args, **kwargs) under a numpy ufunc buffer of one row of `width`
    entries, rounded up to a multiple of 16 and at most numpy's default
    8192, which an `np.errstate` scope restores on exit, with the error
    settings, on whichever thread runs it.

    Both Gram loops evaluate through it: the split's blocks (`thinning._split`)
    and the kernel-sum strips (`discrepancy._kernel_sums`).  At the default
    size numpy buffers the broadcast coordinate subtractions of rows
    narrower than about 2.7k entries: a 64 x 1536 gauss block took 5.1 ns
    per entry that way and 3.2 ns with a buffer of one row, a 32 x 2048
    strip 4.9 and 3.05 ns (numpy 2.4, 2-vCPU Xeon).  The values do not change.
    """
    with np.errstate():
        np.setbufsize(min(-(-width // 16) * 16, 8192))
        return f(*args, **kwargs)


def _read_pair(k: KernelSpec, x, y=None) -> tuple[np.ndarray, np.ndarray]:
    """x and y read by `_as_points`, y defaulting to x, of one dimension that
    k takes (`k.validate_dim`): the check of `gram` and of a kernel sum."""
    x = _as_points(x)
    y = x if y is None else _as_points(y)
    if x.shape[1] != y.shape[1]:
        raise KernelError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    k.validate_dim(x.shape[1])
    return x, y


def gram(k: KernelSpec, x, y=None) -> np.ndarray:
    """The matrix k(x_i, y_j), a new array; y defaults to x."""
    return _gram(k, *_read_pair(k, x, y))


def _gram(k: KernelSpec, x, y, *, out=None, _scratch: tuple = ()) -> np.ndarray:
    """The matrix k(x_i, y_j) of points `_read_pair` has read, unchecked:
    every kernel value of `discrepancy`.  `out` and `_scratch` go to
    `evaluate`, so a kernel sum's strips go into their thread's buffers,
    bitwise the matrix allocated without them."""
    return evaluate(k, x[:, None, :], y[None, :, :], out=out, _scratch=_scratch)


def evaluate(k: KernelSpec, x: np.ndarray, y: np.ndarray,
             out: np.ndarray | None = None, *, _scratch: tuple = ()) -> np.ndarray:
    """k(x, y) elementwise over the broadcast of the leading axes of x and y.

    The last axis of both float arrays holds the d coordinates.  Nothing is
    validated here: callers check k against d with `k.validate_dim` once.
    Every entry is computed by the same arithmetic whatever the shapes, so
    `gram` and the split stage, which both evaluate through this function,
    agree bitwise on every pair.

    With `out`, a C-contiguous float array of the broadcast shape, the
    values are written into it and `out` is returned, bitwise equal to the
    array returned without it.  Dividing by a parameter goes through
    `_divide`.  `_scratch` is a tuple of C-contiguous arrays of the same
    shape and type as `out`.  The gauss, laplace, imq and
    Matern families compute in place, with the squared differences of the
    coordinates after the first, and the Matern's `kv` values or closed-form
    polynomial, in `_scratch[0]`.  A sum computes its first component into
    out and each later one into `_scratch[0]`, with the rest of the tuple as
    its scratch, then adds it.  Whatever the tuple lacks is allocated: with
    two arrays, a Bessel-order Matern alone or in a sum with the other
    in-place families allocates nothing of out's size.  Only sinc and
    bspline compute as without `out` and copy in.
    """
    fam = k.family
    scratch = _scratch[0] if _scratch else None
    if fam == "gauss":
        out = _sq_dists(x, y, out, scratch)
        _divide(out, -2.0 * k.sigma**2)
        np.exp(out, out=out)
    elif fam == "laplace":
        out = _sq_dists(x, y, out, scratch)
        np.sqrt(out, out=out)
        np.negative(out, out=out)
        _divide(out, k.sigma)
        np.exp(out, out=out)
    elif fam == "imq":
        out = _sq_dists(x, y, out, scratch)
        _divide(out, k.gamma**2)
        out += 1.0
        out **= -k.nu  # numpy's in-place ** takes the same scalar fast paths as **
    elif fam == "sum":
        out = evaluate(k.components[0], x, y, out=out, _scratch=_scratch)
        for c in k.components[1:]:
            out += evaluate(c, x, y, out=scratch, _scratch=_scratch[1:])
    elif fam == "matern":
        out = _matern_into(k.nu - x.shape[-1] / 2.0, k.gamma, x, y, out, scratch)
    else:  # sinc, bspline: a product over coordinates of an even profile
        if fam == "sinc":
            width, profile = k.theta, _sinc_univariate
        else:
            width, center = k.gamma, _bspline_center(k.beta)
            profile = lambda t: bspline_univariate(k.beta, t) / center
        # evaluate at |width z_j|: the profile is even, and this keeps Grams
        # exactly symmetric
        value = profile(np.abs(width * (x[..., 0] - y[..., 0])))
        for j in range(1, x.shape[-1]):
            value *= profile(np.abs(width * (x[..., j] - y[..., j])))
        out = _into(out, value)
    if k.scale != 1.0:
        out *= k.scale
    return out


def _divide(out: np.ndarray, c: float) -> None:
    """out /= c in place, bitwise whatever the entries (signed zeros,
    subnormals, infinities and NaN included).

    c = 1 is skipped.  When c is +-2^k and 1/c is a normal float, 1/c is
    exact, so out *= 1/c is the correctly rounded value of the same real
    number x / c as the division is, at about a quarter of its cost per
    entry (0.2 against 0.8 ns); any other c is divided by.
    """
    if c == 1.0:
        return
    mantissa, exponent = math.frexp(c)  # c = mantissa 2^exponent, 1/2 <= |mantissa| < 1
    if abs(mantissa) == 0.5 and -1022 <= exponent <= 1023:
        out *= 1.0 / c
    else:
        out /= c


def _scratch_count(k: KernelSpec) -> int:
    """How many `_scratch` arrays let `evaluate` compute k allocating nothing
    of out's size: one, and a sum's later components each take the first
    for their values and their own count after it."""
    if k.family != "sum":
        return 1
    return max([_scratch_count(k.components[0]),
                *(1 + _scratch_count(c) for c in k.components[1:])])


def _into(out: np.ndarray | None, value: np.ndarray) -> np.ndarray:
    """value, copied into out when out is given."""
    if out is None:
        return value
    out[...] = value
    return out


def kernel_eval(k: KernelSpec, x, y) -> float:
    """k(x, y) for two single points."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    y = np.asarray(y, dtype=float).reshape(1, -1)
    return float(gram(k, x, y)[0, 0])


def gram_rows(k: KernelSpec, points: np.ndarray, rows, cols) -> np.ndarray:
    """k(points[rows], points[cols]) without forming the full Gram matrix;
    rows and cols are integer indices into points, a scalar as one, read by
    `_as_indices`."""
    points = _as_points(points)
    rows, cols = (_as_indices(np.atleast_1d(v), len(points), name)
                  for v, name in ((rows, "rows"), (cols, "cols")))
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
    _check_alpha(alpha)
    if dim is not None:
        dim = _number_in(dim, int, lambda d: d >= 1, "power_kernel dim must be an integer >= 1")
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


def _check_alpha(alpha: float) -> None:
    """Raise KernelError unless alpha, a power kernel's exponent, is a number in [1/2, 1]."""
    _number_in(alpha, float, lambda a: 0.5 <= a <= 1.0, "alpha must lie in [1/2, 1]")


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
    exponent = _number_in(exponent, float, lambda t: t > 0, "exponent must be positive")
    scale = sigma ** ((exponent - 1.0) * dim) * exponent ** (-dim / 2.0)
    return gauss(sigma * math.sqrt(exponent), scale=scale)


# ---------------------------------------------------------------------------
# identity-perturbed kernel
# ---------------------------------------------------------------------------

class IdentityPerturbedKernel:
    """k(x_i, x_j) / sup|k| + weight * [i == j] on the indices of one input.

    A split kernel only: `kt_split` adds the identity term to each pair's
    squared kernel distance, where the split meets both indices.  Built from
    a KernelSpec base and a finite positive weight only, else a KernelError.
    """

    def __init__(self, base: KernelSpec, weight: float = 1.0):
        if not isinstance(base, KernelSpec):
            raise KernelError(f"an identity-perturbed kernel's base must be a KernelSpec, "
                              f"got {base!r}")
        self.base = base
        self.weight = _number_in(weight, float, lambda w: w > 0,
                                 "identity weight must be finite and positive")

    def sup_norm(self) -> float:
        """1 + weight, attained on the diagonal."""
        return 1.0 + self.weight
