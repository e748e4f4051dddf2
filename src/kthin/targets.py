"""Synthetic target samplers, external sample ingestion, and test functions.

Samplers are deterministic given their seed.  The mixture-of-Gaussians
target lives in the plane with unit-covariance components on a fixed grid
of means; the first mean is [3, 3] so that the four inner components sit at
the corners of a symmetric square (a published variant lists the first two
means identically, which the symmetric layout reads as a transcription
slip).

Test functions capture the integration benchmarks: a kernel section
k(X', .) with X' frozen at twice a draw from the target, first and second
coordinate moments, and the continuous-integrand-family benchmark
exp(-(1/d) sum_j |x_j - u_j|) with u frozen uniform in the unit cube.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from collections.abc import Callable
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import rng
from .kernels import KernelSpec, _as_points, _number_in, _read_fields, gram
from .thinning import anchored_stride

MOG_MEANS = np.array(
    [
        [3.0, 3.0],
        [-3.0, 3.0],
        [-3.0, -3.0],
        [3.0, -3.0],
        [0.0, 6.0],
        [-6.0, 0.0],
        [6.0, 0.0],
        [0.0, -6.0],
    ]
)

_BINARY_MAGIC = b"KTPS"


class IngestError(ValueError):
    """Malformed external sample file."""


@dataclass(frozen=True)
class GaussTarget:
    """Standard Gaussian on R^d."""

    d: int = 2

    def __post_init__(self):
        _read_fields(self)
        if self.d < 1:
            raise ValueError(f"gauss target dimension d must be an integer >= 1, got {self.d!r}")

    @property
    def dim(self) -> int:
        return self.d

    def sample(self, n: int, seed: int) -> np.ndarray:
        gen = rng.substream(seed, 101)
        return gen.standard_normal((n, self.d))


@dataclass(frozen=True)
class MogTarget:
    """Equal-weight mixture of M unit-covariance Gaussians in the plane."""

    components: Literal[4, 6, 8] = 8

    def __post_init__(self):
        _read_fields(self)

    @property
    def dim(self) -> int:
        return 2

    def sample(self, n: int, seed: int) -> np.ndarray:
        gen = rng.substream(seed, 102)
        labels = gen.integers(0, self.components, size=n)
        return MOG_MEANS[labels] + gen.standard_normal((n, 2))


@dataclass(frozen=True)
class ExternalTarget:
    """Points from a file, split into a thinnable part and a held-out part.

    The head (1 - holdout_fraction) of the post-burn-in rows is the pool for
    inputs; the tail is reserved for surrogate ground truth.  Both are
    standard-thinned (keeping the final point) to the requested size, which
    mirrors how long sampler outputs are usually consumed; the seed argument
    of sample() is accepted for interface parity but unused, since file rows
    are fixed.
    """

    path: str
    format: Literal["csv", "bin"] = "csv"
    burn_in: int = 0
    holdout_fraction: float = 0.5

    def __post_init__(self):
        _read_fields(self)
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}")

    @functools.cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(head, tail) of the file, read on first use and kept."""
        data = ingest(self.path, self.format, burn_in=self.burn_in)
        cut = int(round(len(data) * (1.0 - self.holdout_fraction)))
        return data[:cut], data[cut:]

    @property
    def dim(self) -> int:
        head, _ = self._rows
        return head.shape[1]

    def sample(self, n: int, seed: int) -> np.ndarray:
        head, _ = self._rows
        if n > len(head):
            raise IngestError(f"requested {n} points but file provides {len(head)}")
        return _thin_to(head, n)

    def holdout(self, n: int) -> np.ndarray:
        _, tail = self._rows
        if len(tail) == 0:
            raise IngestError("no held-out rows: holdout_fraction is 0")
        return _thin_to(tail, min(n, len(tail)))


TargetSpec = GaussTarget | MogTarget | ExternalTarget


def _thin_to(points: np.ndarray, size: int) -> np.ndarray:
    """Down-sample to `size` rows by an even stride anchored at the last row."""
    n = len(points)
    return points[anchored_stride(n, size, n // size)]


def fields_from_json(cls, obj, **parse):
    """An instance of the dataclass cls from a JSON object keyed by its fields.

    An absent key keeps its default, and `parse` maps a field name to the
    reader of its value (of each element, for an array); cls reads the
    result by its field annotations (`kernels._read_fields`).  A value that
    is not an object, an unknown or missing required key, or a value that
    does not convert raises ValueError naming the key.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} spec must be a JSON object, got {obj!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for f in fields.values():
        if f.name not in obj and f.default is f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{cls.__name__} spec lacks the required key {f.name!r}")
    kwargs = {}
    for key, value in obj.items():
        if key not in fields:
            raise ValueError(f"{cls.__name__} spec has unknown key {key!r}; "
                             f"its keys are {list(fields)}")
        read = parse.get(key, lambda v: v)
        try:
            kwargs[key] = list(map(read, value)) if isinstance(value, list) else read(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{cls.__name__} spec key {key!r}: {exc}") from exc
    return cls(**kwargs)


def fields_to_json(obj, **write) -> dict:
    """The JSON object `fields_from_json` reads back into the dataclass obj:
    each field that is not None, tuples as lists, and `write` mapping a field
    name to the writer of its value (of each element, for a tuple)."""
    out = {}
    for f in dataclasses.fields(obj):
        value, form = getattr(obj, f.name), write.get(f.name, lambda v: v)
        if value is not None:
            out[f.name] = [form(v) for v in value] if isinstance(value, tuple) else form(value)
    return out


TARGET_KINDS = {"gauss": GaussTarget, "mog": MogTarget, "external": ExternalTarget}


def target_from_json_dict(obj) -> TargetSpec:
    """Read {"kind": <a key of TARGET_KINDS>, <fields of that kind's class>}."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in TARGET_KINDS:
        raise ValueError(f"target spec must be a JSON object with 'kind' one of "
                         f"{list(TARGET_KINDS)}, got {obj!r}")
    return fields_from_json(TARGET_KINDS[kind], {k: v for k, v in obj.items() if k != "kind"})


def target_to_json_dict(target: TargetSpec) -> dict:
    kind = next(k for k, cls in TARGET_KINDS.items() if isinstance(target, cls))
    return {"kind": kind, **fields_to_json(target)}


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def ingest(path: str, format: str = "csv", burn_in: int = 0) -> np.ndarray:
    """Load an (n, d) point array from disk.

    Args:
      path: file to read.
      format: "csv" for headerless numeric rows, or "bin" for the flat
        binary layout (magic "KTPS", u32 n, u32 d, little-endian f64
        row-major payload).
      burn_in: rows to drop from the front before anything else (>= 0).

    Raises:
      IngestError: missing file, malformed rows, inconsistent width, a
        burn_in that is not an integer >= 0, no rows or columns left, or
        NaN cells (reported with their row and column after burn-in).
    """
    burn_in = _number_in(burn_in, int, lambda b: b >= 0, "burn_in must be >= 0 and an integer",
                         IngestError)
    if format == "csv":
        data = _read_csv(path)
    elif format == "bin":
        data = _read_binary(path)
    else:
        raise IngestError(f"unknown format {format!r}; expected 'csv' or 'bin'")
    if burn_in and burn_in >= len(data):
        raise IngestError(f"burn_in={burn_in} discards all {len(data)} rows")
    try:
        return _as_points(data[burn_in:])
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from None


def _read_csv(path: str) -> list[list[float]]:
    rows = []
    width = None
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}")
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise IngestError(
                    f"{path}:{lineno}: expected {width} columns, found {len(cells)}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise IngestError(f"{path}:{lineno}: non-numeric cell in {line!r}")
    if not rows:
        raise IngestError(f"{path}: no data rows")
    return rows


def _read_binary(path: str) -> np.ndarray:
    try:
        raw = open(path, "rb").read()
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}")
    if len(raw) < 12 or raw[:4] != _BINARY_MAGIC:
        raise IngestError(f"{path}: missing {_BINARY_MAGIC!r} header")
    n, d = struct.unpack("<II", raw[4:12])
    expected = 12 + 8 * n * d
    if len(raw) != expected:
        raise IngestError(f"{path}: expected {expected} bytes for {n}x{d}, found {len(raw)}")
    return np.frombuffer(raw[12:], dtype="<f8").reshape(n, d).astype(float)


def write_binary(path: str, points: np.ndarray) -> None:
    """Write the flat binary layout understood by `ingest(format='bin')`."""
    points = _as_points(points)
    with open(path, "wb") as handle:
        handle.write(_BINARY_MAGIC)
        handle.write(struct.pack("<II", *points.shape))
        handle.write(points.astype("<f8").tobytes())


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """A named integrand: one of rkhs_witness, moment1, moment2, cif.

    `integrand` maps an (n, d) array to its n values.  The frozen array holds
    X' for the witness and u for the continuous integrand family, and fixes
    d; it is drawn once and reused across sample sizes and replicates.
    """

    name: str
    integrand: Callable[[np.ndarray], np.ndarray]
    frozen: np.ndarray | None = None

    def __call__(self, x) -> np.ndarray:
        x = _as_points(x)
        if self.frozen is not None and x.shape[1] != len(self.frozen):
            raise ValueError(f"{self.name} takes {len(self.frozen)}-D points, got {x.shape}")
        return self.integrand(x)


def make_rkhs_witness(kernel: KernelSpec, target: TargetSpec, seed: int) -> TestFunction:
    """f = k(X', .) with X' = 2X for one frozen draw X from the target."""
    x_prime = 2.0 * target.sample(1, rng.derive_seed(seed, 201))[0]
    return TestFunction("rkhs_witness", lambda x: gram(kernel, x_prime[None, :], x)[0], x_prime)


def make_cif(dim: int, seed: int) -> TestFunction:
    """The continuous-integrand-family benchmark with u frozen uniform on [0,1]^d."""
    u = rng.substream(seed, 202).random(dim)
    return TestFunction("cif", lambda x: np.exp(-np.abs(x - u[None, :]).mean(axis=1)), u)


def moment1() -> TestFunction:
    return TestFunction("moment1", lambda x: x[:, 0])


def moment2() -> TestFunction:
    return TestFunction("moment2", lambda x: x[:, 0] ** 2)


# ---------------------------------------------------------------------------
# bandwidth rules
# ---------------------------------------------------------------------------

def median_heuristic_bandwidth(points) -> float:
    """Median pairwise Euclidean distance.

    Exact for n <= 4096; larger sets use 2^20 uniformly sampled pairs
    (seed 0, deterministic).  Input is read by `kernels._as_points`.
    """
    points = _as_points(points)
    n = len(points)
    if n < 2:
        raise ValueError(f"median heuristic needs at least 2 points, got {n}")
    if n <= 4096:
        from scipy.spatial.distance import pdist

        return float(np.median(pdist(points)))
    gen = rng.substream(0, 303)
    pairs = 2 ** 20
    i = gen.integers(0, n, size=pairs)
    j = gen.integers(0, n - 1, size=pairs)
    j = np.where(j >= i, j + 1, j)  # exclude self-pairs
    return float(np.median(np.linalg.norm(points[i] - points[j], axis=1)))


def sqrt2d_bandwidth(dim: int) -> float:
    """The sqrt(2 d) bandwidth rule."""
    return float(np.sqrt(2.0 * dim))
