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
import os
import warnings
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import rng
from .discrepancy import Reference, _clamped_sqrt
from .kernels import (
    KernelSpec,
    NoClosedFormPowerError,
    _read_fields,
    from_json_dict as kernel_from_json_dict,
)
# gram and _quadratic_form are not called here; they stay module attributes
# because perfbench/spans.py traces the kernel and discrepancy layers by wrapping them
from .discrepancy import _quadratic_form  # noqa: F401
from .kernels import gram  # noqa: F401
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
from .thinning import Coreset, ThinningConfig, Variant, power_kt, target_kt, thin
# baseline_thin and kt_plus are not called here; like gram, they stay module
# attributes because perfbench/spans.py traces the harness's calls into
# thinning by wrapping them
from .thinning import baseline_thin, kt_plus  # noqa: F401

_INPUT_SALT = 9001
_SURROGATE_SALT = 9002
_BANDWIDTH_SALT = 9003
_WITNESS_SALT = 9004
_CIF_SALT = 9005


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
    bandwidth_rule: Literal["fixed", "sqrt2d", "median"] = "fixed"
    aggregate: Literal["mean", "median"] = "mean"
    test_functions: tuple[Literal[tuple(_TEST_FUNCTIONS)], ...] = ()
    metrics: tuple[Literal["mmd_input", "mmd_surrogate"], ...] = ("mmd_input", "mmd_surrogate")
    surrogate_size: int = 2 ** 15

    def __post_init__(self):
        _read_fields(self)
        if not self.variants or not self.sizes:
            raise ValueError("a plan needs at least one variant and one size")
        for n in self.sizes:
            if not (n > 0 and 4 ** _depth_for(n) == n):
                raise ValueError(f"size {n!r} is not a power of 4; output size sqrt(n) undefined")
        if self.replicates < 1 or self.surrogate_size < 1:
            raise ValueError("replicates and surrogate_size must be >= 1")
        ThinningConfig(delta=self.delta)  # its delta check, before any cell runs
        # report.json writes the plan back as plan.json, which has no identity perturbation
        for v in self.variants:
            if v.split_kernel is not None and not isinstance(v.split_kernel, KernelSpec):
                raise ValueError(f"variant {v.name}: a plan's split kernel must be a KernelSpec")
        # _aggregate groups by (variant tag, metric, n): a repeat would pool copies
        for key, entries in (("sizes", self.sizes), ("variants", [v.tag for v in self.variants]),
                             ("metrics", self.metrics), ("test_functions", self.test_functions)):
            for i, entry in enumerate(entries):
                if entry in entries[:i]:
                    raise ValueError(f"key {key!r} repeats {entry!r}")

    def to_json_dict(self) -> dict:
        return fields_to_json(self, target=target_to_json_dict, kernel=KernelSpec.to_json_dict,
                              variants=functools.partial(fields_to_json,
                                                         split_kernel=KernelSpec.to_json_dict))

    @staticmethod
    def from_json_dict(obj: dict) -> "ExperimentPlan":
        """Read the plan.json object; see `targets.fields_from_json` for the rules."""
        return fields_from_json(ExperimentPlan, obj, target=target_from_json_dict,
                                kernel=kernel_from_json_dict,
                                variants=functools.partial(fields_from_json, Variant,
                                                           split_kernel=kernel_from_json_dict))

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

# each test function's maker, from the plan and the resolved kernel; the makers
# are looked up at call time, where perfbench/spans.py wraps them
_TEST_FUNCTIONS = {
    "rkhs_witness": lambda plan, k: make_rkhs_witness(
        k, plan.target, rng.derive_seed(plan.seed, _WITNESS_SALT)),
    "moment1": lambda plan, k: moment1(),
    "moment2": lambda plan, k: moment2(),
    "cif": lambda plan, k: make_cif(plan.target.dim, rng.derive_seed(plan.seed, _CIF_SALT)),
}


def _thin(variant: Variant, k: KernelSpec, points: np.ndarray, cfg: ThinningConfig,
          inputs: Reference) -> Coreset:
    # perfbench/workloads.py counts coresets by rebinding target_kt and power_kt
    # here, so targetkt and rootkt (power KT at alpha 1/2) call them by module
    # name until the benchmark captures them elsewhere (ROADMAP item 6)
    if variant.name == "targetkt":
        return target_kt(k, points, cfg)
    if variant.name == "rootkt":
        return power_kt(k, points, cfg, alpha=0.5, reference=inputs)
    return thin(variant, k, points, cfg, inputs)


# ---------------------------------------------------------------------------
# rate fitting and reports
# ---------------------------------------------------------------------------

def fit_loglog(x_values, y_values) -> dict:
    """Ordinary least squares of log(y) on log(x).

    Returns {"slope", "intercept", "residual_rms"}.  Every value must be
    finite and positive and the x values not all equal, else a ValueError.
    """
    x, y = np.asarray(x_values, dtype=float), np.asarray(y_values, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points to fit a rate")
    for name, v in (("x_values", x), ("y_values", y)):
        if not (np.isfinite(v).all() and (v > 0).all()):
            raise ValueError(f"{name} must be finite and positive, got {v.tolist()}")
    if (x == x[0]).all():
        raise ValueError(f"x_values must not all be equal, got {x.tolist()}")
    x, y = np.log(x), np.log(y)
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
    """Execute a plan; optionally write raw.csv and report.json to out_dir,
    which is made first, so that an unusable one fails before any cell."""
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    kernel = resolve_bandwidth(plan)
    dim = plan.target.dim

    runnable: list[Variant] = []
    skipped: list[dict] = []
    for variant in plan.variants:
        try:
            variant.split_kernel_for(kernel, dim)
        except NoClosedFormPowerError as exc:
            warnings.warn(f"skipping variant {variant.tag}: {exc}")
            skipped.append({"variant": variant.tag, "reason": str(exc)})
            continue
        runnable.append(variant)

    metrics = list(plan.metrics) + [f"ierr_{n}" for n in plan.test_functions]
    test_fns = {name: _TEST_FUNCTIONS[name](plan, kernel) for name in plan.test_functions}

    if "mmd_surrogate" in plan.metrics:
        if isinstance(plan.target, ExternalTarget):
            surr = plan.target.holdout(plan.surrogate_size)
        else:
            surr = plan.target.sample(
                plan.surrogate_size, rng.derive_seed(plan.seed, _SURROGATE_SALT)
            )
        surrogate = Reference(kernel, surr)

    records: list[dict] = []
    for n in plan.sizes:
        m = _depth_for(n)
        for rep in range(plan.replicates):
            points = plan.target.sample(
                n, rng.derive_seed(plan.seed, n, rep, _INPUT_SALT)
            )
            # shared by mmd_input and every swap stage whose split forms no row means
            inputs = Reference(kernel, points)
            input_means = {
                name: float(np.mean(fn(points))) for name, fn in test_fns.items()
            }
            for variant in runnable:
                seed = rng.derive_seed(plan.seed, n, rep, *variant._seed_parts())
                cfg = ThinningConfig(m=m, seed=seed, delta=plan.delta)
                coreset = _thin(variant, kernel, points, cfg, inputs)
                out_points = points[coreset.indices]
                values = [_clamped_sqrt(inputs.mmd_sq(coreset.indices)) if name == "mmd_input"
                          else surrogate.mmd_to(out_points) for name in plan.metrics] + [
                    abs(input_means[name] - float(np.mean(fn(out_points))))
                    for name, fn in test_fns.items()
                ]
                records += [{"variant": variant.tag, "n": n, "n_out": n // 2 ** m,
                             "replicate": rep, "metric": metric, "value": value}
                            for metric, value in zip(metrics, values)]

    report = RateReport(plan=plan, skipped=skipped)
    _aggregate(plan, runnable, metrics, records, report)

    if out_dir is not None:
        # both texts before either file, so a failure leaves no partial output
        raw = records_to_csv(records)
        summary = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        with open(os.path.join(out_dir, "raw.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write(raw)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(summary)
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
