"""Experiment runner: thinning-error decay curves and rate regression.

A plan names a target, a kernel (plus bandwidth rule), thinning variants,
input sizes, and a replicate count.  For each (size, replicate) cell the
runner draws one input sample shared by every variant, thins it, and
records MMD against the input, MMD against a fixed surrogate sample of the
target, and integration errors for the configured test functions.  Raw
values go to CSV; aggregated curves and log-log decay fits go to a JSON
report.

All per-cell seeds derive from the plan seed and the cell coordinates, so
cells can run in any order (or in parallel) with identical results, and a
rerun of the same plan is byte-identical.
"""

from __future__ import annotations

import functools
import io
import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .discrepancy import _clamped_sqrt, _quadratic_form
from .kernels import (
    KernelSpec,
    NoClosedFormPowerError,
    from_json_dict as kernel_from_json_dict,
    gram,
)
from .targets import (
    ExternalTarget,
    TargetSpec,
    fields_from_json,
    fields_to_json,
    make_cif,
    make_rkhs_witness,
    median_heuristic_bandwidth,
    moment1,
    moment2,
    sqrt2d_bandwidth,
    target_from_json_dict,
    target_to_json_dict,
)
from .thinning import (
    Coreset,
    DeltaSchedule,
    ThinningConfig,
    baseline_thin,
    kt_plus,
    power_kt,
    split_kernel_for,
    target_kt,
)

_VARIANT_IDS = {"standard": 0, "targetkt": 1, "powerkt": 2, "ktplus": 3, "rootkt": 4}
_INPUT_SALT = 9001
_SURROGATE_SALT = 9002
_BANDWIDTH_SALT = 9003
_WITNESS_SALT = 9004
_CIF_SALT = 9005


@dataclass(frozen=True)
class Variant:
    """A thinning method under comparison; powerkt and ktplus take an alpha,
    the others none."""

    name: str
    alpha: float | None = None

    def __post_init__(self):
        if self.name not in _VARIANT_IDS:
            raise ValueError(f"unknown variant {self.name!r}")
        if (self.alpha is None) == (self.name in ("powerkt", "ktplus")):
            raise ValueError(
                f"variant {self.name} with alpha {self.alpha}: powerkt and ktplus "
                "need an alpha, the other variants take none"
            )

    @property
    def tag(self) -> str:
        return self.name if self.alpha is None else f"{self.name}(a={self.alpha:g})"

    def _kt_variant(self) -> tuple[str, float | None]:
        """(thinning variant, alpha) this runs: rootkt is powerkt at alpha 1/2."""
        if self.name == "rootkt":
            return "powerkt", 0.5
        return self.name, self.alpha

    def _seed_parts(self) -> tuple[int, int]:
        alpha = self.alpha if self.alpha is not None else -1.0
        return _VARIANT_IDS[self.name], int(round(alpha * 1e6))


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce one decay-rate study."""

    target: TargetSpec
    kernel: KernelSpec
    variants: tuple[Variant, ...] = (Variant("standard"), Variant("targetkt"))
    sizes: tuple[int, ...] = (16, 64, 256, 1024, 4096)
    replicates: int = 10
    delta: float = 0.5  # delta_i = delta / n
    seed: int = 0
    bandwidth_rule: str = "fixed"  # fixed | sqrt2d | median
    aggregate: str = "mean"  # mean | median
    test_functions: tuple[str, ...] = ()
    metrics: tuple[str, ...] = ("mmd_input", "mmd_surrogate")
    surrogate_size: int = 2 ** 15

    def __post_init__(self):
        if not self.variants or not self.sizes:
            raise ValueError("a plan needs at least one variant and one size")
        for n in self.sizes:
            if not (isinstance(n, numbers.Integral) and n > 0 and 4 ** _depth_for(n) == n):
                raise ValueError(f"size {n!r} is not a power of 4; output size sqrt(n) undefined")
        if self.replicates < 1 or self.surrogate_size < 1:
            raise ValueError("replicates and surrogate_size must be >= 1")
        if self.bandwidth_rule not in ("fixed", "sqrt2d", "median"):
            raise ValueError(f"unknown bandwidth rule {self.bandwidth_rule!r}")
        if self.aggregate not in ("mean", "median"):
            raise ValueError(f"unknown aggregate {self.aggregate!r}")
        for name in self.test_functions:
            if name not in _TEST_FUNCTIONS:
                raise ValueError(f"unknown test function {name!r}")
        for name in self.metrics:
            if name not in ("mmd_input", "mmd_surrogate"):
                raise ValueError(f"unknown metric {name!r}")
        # _aggregate groups by (variant tag, metric, n): a repeat would pool copies
        for key, entries in (("sizes", self.sizes), ("variants", [v.tag for v in self.variants]),
                             ("metrics", self.metrics), ("test_functions", self.test_functions)):
            for i, entry in enumerate(entries):
                if entry in entries[:i]:
                    raise ValueError(f"key {key!r} repeats {entry!r}")

    def to_json_dict(self) -> dict:
        return fields_to_json(self, target=target_to_json_dict,
                              kernel=KernelSpec.to_json_dict, variants=fields_to_json)

    @staticmethod
    def from_json_dict(obj: dict) -> "ExperimentPlan":
        """Read the plan.json object; see `targets.fields_from_json` for the rules."""
        return fields_from_json(ExperimentPlan, obj, target=target_from_json_dict,
                                kernel=kernel_from_json_dict,
                                variants=functools.partial(fields_from_json, Variant))

    @staticmethod
    def from_json(text: str) -> "ExperimentPlan":
        return ExperimentPlan.from_json_dict(json.loads(text))


def _depth_for(n: int) -> int:
    """Thinning depth m = log2(n) / 2, so the output size is sqrt(n)."""
    return max(1, round(math.log2(n) / 2.0))


def resolve_bandwidth(plan: ExperimentPlan) -> KernelSpec:
    """Apply the plan's bandwidth rule to its kernel."""
    if plan.bandwidth_rule == "fixed":
        return plan.kernel
    if plan.bandwidth_rule == "sqrt2d":
        length = sqrt2d_bandwidth(plan.target.dim)
    else:
        pts = plan.target.sample(max(plan.sizes), rng.derive_seed(plan.seed, _BANDWIDTH_SALT))
        length = median_heuristic_bandwidth(pts)
    return plan.kernel.with_lengthscale(length)


# ---------------------------------------------------------------------------
# metric plumbing
# ---------------------------------------------------------------------------

class _ReferenceMMD:
    """MMD against one fixed reference sample, with its self-term cached."""

    def __init__(self, k: KernelSpec, ref: np.ndarray):
        self.kernel = k
        self.ref = ref
        w = np.full(len(ref), 1.0 / len(ref))
        self._w = w
        self.self_term = _quadratic_form(k, ref, w)

    def mmd_to(self, out: np.ndarray) -> float:
        s = len(out)
        out_self = float(gram(self.kernel, out, out).sum()) / (s * s)
        wv = np.full(s, 1.0 / s)
        cross = _quadratic_form(self.kernel, self.ref, self._w, out, wv)
        return _clamped_sqrt(self.self_term + out_self - 2.0 * cross)


# each test function's maker, from the plan and the resolved kernel; the makers
# are looked up at call time, where perfbench/spans.py wraps them
_TEST_FUNCTIONS = {
    "rkhs_witness": lambda plan, k: make_rkhs_witness(
        k, plan.target, rng.derive_seed(plan.seed, _WITNESS_SALT)),
    "moment1": lambda plan, k: moment1(),
    "moment2": lambda plan, k: moment2(),
    "cif": lambda plan, k: make_cif(plan.target.dim, rng.derive_seed(plan.seed, _CIF_SALT)),
}


def _thin(variant: Variant, k: KernelSpec, points: np.ndarray, cfg: ThinningConfig) -> Coreset:
    # front-ends are looked up at call time: perfbench/workloads.py rebinds
    # target_kt and power_kt here to capture the coresets
    if variant.name == "standard":
        return Coreset(baseline_thin(len(points), cfg.m), {"variant": "standard"})
    if variant.name == "targetkt":
        return target_kt(k, points, cfg)
    name, alpha = variant._kt_variant()
    out = (power_kt if name == "powerkt" else kt_plus)(k, points, cfg, alpha=alpha)
    out.provenance["variant"] = variant.name
    return out


# ---------------------------------------------------------------------------
# rate fitting and reports
# ---------------------------------------------------------------------------

def fit_loglog(x_values, y_values) -> dict:
    """Ordinary least squares of log(y) on log(x).

    Returns {"slope", "intercept", "residual_rms"}; requires positive data.
    """
    x = np.log(np.asarray(x_values, dtype=float))
    y = np.log(np.asarray(y_values, dtype=float))
    if len(x) < 2:
        raise ValueError("need at least two points to fit a rate")
    xc = x - x.mean()
    slope = float((xc @ (y - y.mean())) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    return {
        "slope": slope,
        "intercept": intercept,
        "residual_rms": float(np.sqrt(np.mean(resid ** 2))),
    }


@dataclass
class RateReport:
    """Aggregated error curves and their fitted decay rates.

    rows: per (variant, metric, n): aggregated error and standard error of
      the mean across replicates.
    fits: per (variant, metric): OLS of log error on log n_out, plus the
      same fit against log n (input size); on the default grid n_out =
      sqrt(n), so the input-size slope is exactly half the output-size one.
    """

    plan: ExperimentPlan
    rows: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)

    def fit_for(self, variant_tag: str, metric: str) -> dict:
        return self.fits[f"{variant_tag}|{metric}"]

    def curve(self, variant_tag: str, metric: str) -> list:
        return [
            r for r in self.rows if r["variant"] == variant_tag and r["metric"] == metric
        ]

    def to_json_dict(self) -> dict:
        return fields_to_json(self, plan=ExperimentPlan.to_json_dict)


def run_experiment(plan: ExperimentPlan, out_dir: str | None = None) -> RateReport:
    """Execute a plan; optionally write raw.csv and report.json to out_dir."""
    kernel = resolve_bandwidth(plan)
    dim = plan.target.dim

    runnable: list[Variant] = []
    skipped: list[dict] = []
    for variant in plan.variants:
        if variant.name != "standard":
            name, alpha = variant._kt_variant()
            try:
                split_kernel_for(name, kernel, dim, alpha)
            except NoClosedFormPowerError as exc:
                warnings.warn(f"skipping variant {variant.tag}: {exc}")
                skipped.append({"variant": variant.tag, "reason": str(exc)})
                continue
        runnable.append(variant)

    metrics = list(plan.metrics) + [f"ierr_{n}" for n in plan.test_functions]
    test_fns = {name: _TEST_FUNCTIONS[name](plan, kernel) for name in plan.test_functions}

    # metric name -> reference sample: the surrogate's for the run, the input's per cell
    refs: dict[str, _ReferenceMMD] = {}
    if "mmd_surrogate" in plan.metrics:
        if isinstance(plan.target, ExternalTarget):
            surr = plan.target.holdout(plan.surrogate_size)
        else:
            surr = plan.target.sample(
                plan.surrogate_size, rng.derive_seed(plan.seed, _SURROGATE_SALT)
            )
        refs["mmd_surrogate"] = _ReferenceMMD(kernel, surr)

    records: list[dict] = []
    for n in plan.sizes:
        m = _depth_for(n)
        for rep in range(plan.replicates):
            points = plan.target.sample(
                n, rng.derive_seed(plan.seed, n, rep, _INPUT_SALT)
            )
            if "mmd_input" in plan.metrics:
                refs["mmd_input"] = _ReferenceMMD(kernel, points)
            input_means = {
                name: float(np.mean(fn(points))) for name, fn in test_fns.items()
            }
            for variant in runnable:
                cfg = ThinningConfig(
                    m=m,
                    delta_schedule=DeltaSchedule("known_n", plan.delta),
                    seed=rng.derive_seed(plan.seed, n, rep, *variant._seed_parts()),
                )
                coreset = _thin(variant, kernel, points, cfg)
                out_points = points[coreset.indices]
                values = [refs[name].mmd_to(out_points) for name in plan.metrics] + [
                    abs(input_means[name] - float(np.mean(fn(out_points))))
                    for name, fn in test_fns.items()
                ]
                records += [{"variant": variant.tag, "n": n, "n_out": n // 2 ** m,
                             "replicate": rep, "metric": metric, "value": value}
                            for metric, value in zip(metrics, values)]

    report = RateReport(plan=plan, skipped=skipped)
    _aggregate(plan, runnable, metrics, records, report)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "raw.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write(records_to_csv(records))
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def _aggregate(plan, variants, metrics, records, report: RateReport) -> None:
    groups: dict[tuple, list] = {}
    for r in records:
        groups.setdefault((r["variant"], r["metric"], r["n"]), []).append(r["value"])
    n_outs = {n: n // 2 ** _depth_for(n) for n in plan.sizes}
    center = np.mean if plan.aggregate == "mean" else np.median
    for variant in variants:
        for metric in metrics:
            rows = []
            for n in plan.sizes:
                vals = np.array(groups[variant.tag, metric, n])
                stderr = (
                    float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
                    if len(vals) > 1
                    else 0.0
                )
                rows.append({"variant": variant.tag, "metric": metric, "n": n,
                             "n_out": n_outs[n], plan.aggregate: float(center(vals)),
                             "stderr": stderr})
            report.rows += rows
            means = [row[plan.aggregate] for row in rows]
            if len(means) >= 2 and all(v > 0 for v in means):
                fit_out = fit_loglog([row["n_out"] for row in rows], means)
                fit_in = fit_loglog(plan.sizes, means)
                report.fits[f"{variant.tag}|{metric}"] = {
                    **fit_out, "slope_vs_input_n": fit_in["slope"]
                }


def records_to_csv(records: list[dict]) -> str:
    """Render raw records as CSV; floats carry 17 significant digits."""
    buf = io.StringIO()
    buf.write("variant,n,n_out,replicate,metric,value\n")
    for r in records:
        buf.write(
            f"{r['variant']},{r['n']},{r['n_out']},{r['replicate']},"
            f"{r['metric']},{format(r['value'], '.17g')}\n"
        )
    return buf.getvalue()
