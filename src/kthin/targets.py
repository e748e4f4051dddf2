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

import functools
import struct
from dataclasses import dataclass

import numpy as np

from . import rng
from .kernels import KernelSpec, gram

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

    @property
    def dim(self) -> int:
        return self.d

    def sample(self, n: int, seed: int) -> np.ndarray:
        gen = rng.substream(seed, 101)
        return gen.standard_normal((n, self.d))


@dataclass(frozen=True)
class MogTarget:
    """Equal-weight mixture of M unit-covariance Gaussians in the plane."""

    components: int = 8

    def __post_init__(self):
        if self.components not in (4, 6, 8):
            raise ValueError(f"mixture supports 4, 6, or 8 components, got {self.components}")

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
    format: str = "csv"
    burn_in: int = 0
    holdout_fraction: float = 0.5

    def __post_init__(self):
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
    step = n // size
    idx = np.array([n - 1 - step * (size - 1 - j) for j in range(size)])
    return points[idx]


def target_from_json_dict(obj: dict) -> TargetSpec:
    kind = obj.get("kind")
    if kind == "gauss":
        return GaussTarget(d=int(obj.get("d", 2)))
    if kind == "mog":
        return MogTarget(components=int(obj.get("components", 8)))
    if kind == "external":
        return ExternalTarget(
            path=obj["path"],
            format=obj.get("format", "csv"),
            burn_in=int(obj.get("burn_in", 0)),
            holdout_fraction=float(obj.get("holdout_fraction", 0.5)),
        )
    raise ValueError(f"unknown target kind {kind!r}")


def target_to_json_dict(target: TargetSpec) -> dict:
    if isinstance(target, GaussTarget):
        return {"kind": "gauss", "d": target.d}
    if isinstance(target, MogTarget):
        return {"kind": "mog", "components": target.components}
    return {
        "kind": "external",
        "path": target.path,
        "format": target.format,
        "burn_in": target.burn_in,
        "holdout_fraction": target.holdout_fraction,
    }


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def ingest(path: str, format: str = "csv", burn_in: int = 0, thin_to: int | None = None) -> np.ndarray:
    """Load an (n, d) point array from disk.

    Args:
      path: file to read.
      format: "csv" for headerless numeric rows, or "bin" for the flat
        binary layout (magic "KTPS", u32 n, u32 d, little-endian f64
        row-major payload).
      burn_in: rows to drop from the front before anything else.
      thin_to: optionally standard-thin the remainder down to this many rows
        (keeping the final row).

    Raises:
      IngestError: missing file, malformed rows, inconsistent width, or NaN
        cells (reported with their row and column).
    """
    if format == "csv":
        data = _read_csv(path)
    elif format == "bin":
        data = _read_binary(path)
    else:
        raise IngestError(f"unknown format {format!r}; expected 'csv' or 'bin'")
    if burn_in:
        if burn_in >= len(data):
            raise IngestError(f"burn_in={burn_in} discards all {len(data)} rows")
        data = data[burn_in:]
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        r, c = bad[0]
        raise IngestError(f"non-finite value at row {int(r)}, column {int(c)} of {path}")
    if thin_to is not None:
        if thin_to < 1 or thin_to > len(data):
            raise IngestError(f"cannot thin {len(data)} rows to {thin_to}")
        data = _thin_to(data, thin_to)
    return data


def _read_csv(path: str) -> np.ndarray:
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
    return np.asarray(rows, dtype=float)


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
    points = np.ascontiguousarray(points, dtype="<f8")
    n, d = points.shape
    with open(path, "wb") as handle:
        handle.write(_BINARY_MAGIC)
        handle.write(struct.pack("<II", n, d))
        handle.write(points.tobytes())


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """A named integrand: one of rkhs_witness, moment1, moment2, cif.

    The frozen array holds X' for the witness and u for the continuous
    integrand family; it is drawn once and reused across sample sizes and
    replicates.
    """

    name: str
    kernel: KernelSpec | None = None
    frozen: np.ndarray | None = None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if self.name == "moment1":
            return x[:, 0]
        if self.name == "moment2":
            return x[:, 0] ** 2
        if self.name == "rkhs_witness":
            return gram(self.kernel, self.frozen[None, :], x)[0]
        if self.name == "cif":
            return np.exp(-np.abs(x - self.frozen[None, :]).mean(axis=1))
        raise ValueError(f"unknown test function {self.name!r}")


def eval_test_function(f: TestFunction, x) -> float:
    """f at a single point."""
    return float(f(np.asarray(x, dtype=float)[None, :])[0])


def make_rkhs_witness(kernel: KernelSpec, target: TargetSpec, seed: int) -> TestFunction:
    """f = k(X', .) with X' = 2X for one frozen draw X from the target."""
    x = target.sample(1, rng.derive_seed(seed, 201))[0]
    return TestFunction("rkhs_witness", kernel=kernel, frozen=2.0 * x)


def make_cif(dim: int, seed: int) -> TestFunction:
    """The continuous-integrand-family benchmark with u frozen uniform on [0,1]^d."""
    u = rng.substream(seed, 202).random(dim)
    return TestFunction("cif", frozen=u)


def moment1() -> TestFunction:
    return TestFunction("moment1")


def moment2() -> TestFunction:
    return TestFunction("moment2")


# ---------------------------------------------------------------------------
# bandwidth rules
# ---------------------------------------------------------------------------

def median_heuristic_bandwidth(points, seed: int = 0) -> float:
    """Median pairwise Euclidean distance.

    Exact for n <= 4096; larger sets use 2^20 uniformly sampled pairs
    (seeded, deterministic).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = len(points)
    if n < 2:
        raise ValueError(f"median heuristic needs at least 2 points, got {n}")
    if n <= 4096:
        from scipy.spatial.distance import pdist

        return float(np.median(pdist(points)))
    gen = rng.substream(seed, 303)
    pairs = 2 ** 20
    i = gen.integers(0, n, size=pairs)
    j = gen.integers(0, n - 1, size=pairs)
    j = np.where(j >= i, j + 1, j)  # exclude self-pairs
    return float(np.median(np.linalg.norm(points[i] - points[j], axis=1)))


def sqrt2d_bandwidth(dim: int) -> float:
    """The sqrt(2 d) bandwidth rule."""
    return float(np.sqrt(2.0 * dim))
