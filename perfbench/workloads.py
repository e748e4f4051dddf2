"""The benchmark's three workloads.

Each workload builds the inputs of operation i from the workload seed and i,
runs one user operation through a public kthin entry point, and checks the
outputs.  A workload exposes:

  setup()             kernel/plan construction, op-0 inputs, warm-up
  make_input(i)       inputs of operation i (not timed)
  op(inp)             the timed user operation; returns its raw output
  check(inp, raw)     an OpResult: digest, KT outputs, errors
  probe_case(inp0)    the inputs the per-layer probes call each layer with
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import checks
from kthin import ThinningConfig, gauss, ktplus_kernel, laplace, power_kernel, target_kt
from kthin.cli import main as cli_main
from kthin.harness import ExperimentPlan, Variant, run_experiment
import kthin.harness
from kthin.targets import GaussTarget, MogTarget


def derive(seed: int, *parts: int) -> int:
    """A 32-bit seed for one input of the workload, independent of kthin."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint32)[0])


@dataclass
class KtOutput:
    """One KT coreset of an operation, with its MMDs from checks.py."""

    mmd_kt: float
    mmd_std: float
    candidate: int  # 0 when the baseline won the selection
    accepted_swaps: int
    size: int


@dataclass
class OpResult:
    digest: dict
    kt: list = field(default_factory=list)
    errors: list = field(default_factory=list)


@dataclass
class ProbeCase:
    """What the per-layer probes call each layer with."""

    target: object
    points: np.ndarray
    k_split: object
    k_target: object
    m: int
    seed: int
    surrogate: np.ndarray


def _kt_output(k, points, coreset_indices, provenance, m, xx=None):
    errors, mmd_kt, mmd_std = checks.check_coreset(k, points, coreset_indices, m, xx)
    if mmd_kt is None:
        return errors, None
    return errors, KtOutput(mmd_kt, mmd_std, int(provenance["candidate"]),
                            int(provenance["accepted_swaps"]), len(coreset_indices))


class SplitMog:
    """target_kt(gauss(2), MogTarget(8).sample(4096), m=6) from the Python API.

    The split stage is about 85% of the operation and is bound by Python-level
    calls (36,801 gram_rows calls and 12,288 Philox builds per split), not
    by kernel arithmetic.
    """

    name = "split-mog-4096"
    top_layer = "thinning"
    n, m = 4096, 6
    # the mmd_ratio guard averages over the first min_ops operations; one
    # op's log-ratio has a standard deviation of about 0.23 across inputs
    min_ops = 8
    trace_min_ops = 2

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self):
        self.kernel = gauss(2.0)
        self.check_kernel = checks.gauss_kernel(2.0)
        self.target = MogTarget(8)
        warm = self.target.sample(256, derive(self.seed, 0, 99))
        target_kt(self.kernel, warm, ThinningConfig(m=4, seed=0))
        return self.make_input(0)

    def make_input(self, i: int) -> dict:
        return {
            "points": self.target.sample(self.n, derive(self.seed, i, 1)),
            "cfg": ThinningConfig(m=self.m, seed=derive(self.seed, i, 2)),
        }

    def op(self, inp):
        return target_kt(self.kernel, inp["points"], inp["cfg"])

    def check(self, inp, coreset) -> OpResult:
        pts = inp["points"]
        if "xx" not in inp:
            inp["xx"] = checks.self_mean(self.check_kernel, pts)
        errors, out = _kt_output(self.check_kernel, pts, coreset.indices,
                                 coreset.provenance, self.m, inp["xx"])
        return OpResult({"indices": checks.sha256_indices(coreset.indices)},
                        [out] if out else [], errors)

    def probe_case(self, inp) -> ProbeCase:
        return ProbeCase(self.target, inp["points"], self.kernel, self.kernel, self.m,
                         inp["cfg"].seed,
                         self.target.sample(self.n, derive(self.seed, 0, 3)))


class StudyMog:
    """run_experiment on the MoG(8) plan: standard, targetkt and rootkt at sizes
    {64, 256, 1024}, one replicate, mmd_input and mmd_surrogate, all four
    test functions, surrogate_size 16384.

    About 80% of the operation is the 16384^2 self-term of the surrogate: large
    Gram blocks (512 x 16384), which also set peak memory.  The split is a
    minor share.  The plan is the acceptance plan scaled down (the full
    surrogate_size 32768 with sizes up to 4096 takes 25 s per operation) so
    that a run holds several operations.
    """

    name = "study-mog"
    top_layer = "harness"
    sizes = (64, 256, 1024)
    surrogate_size = 16384
    min_ops = 3
    trace_min_ops = 2

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.captured: list = []

    def setup(self):
        self.kernel = gauss(2.0)
        self.check_kernel = checks.gauss_kernel(2.0)
        self.target = MogTarget(8)
        self._capture_kt_outputs()
        run_experiment(self.plan(0, sizes=(16,), surrogate_size=64),
                       out_dir=os.path.join(self.work_dir, "warmup"))
        self.captured.clear()
        return self.make_input(0)

    def _capture_kt_outputs(self):
        # record the coresets the harness computes so they can be checked;
        # a handful of calls per operation, so this costs nothing measurable
        for name in ("target_kt", "power_kt"):
            def capture(kernel, points, cfg, *args, _fn=getattr(kthin.harness, name), **kwargs):
                out = _fn(kernel, points, cfg, *args, **kwargs)
                self.captured.append((points, cfg.m, out))
                return out

            setattr(kthin.harness, name, capture)

    def plan(self, i: int, sizes=None, surrogate_size=None) -> ExperimentPlan:
        return ExperimentPlan(
            target=self.target,
            kernel=self.kernel,
            variants=(Variant("standard"), Variant("targetkt"), Variant("rootkt")),
            sizes=sizes or self.sizes,
            replicates=1,
            seed=derive(self.seed, i, 1),
            metrics=("mmd_input", "mmd_surrogate"),
            test_functions=("rkhs_witness", "moment1", "moment2", "cif"),
            surrogate_size=surrogate_size or self.surrogate_size,
        )

    def make_input(self, i: int) -> dict:
        return {"plan": self.plan(i), "out_dir": os.path.join(self.work_dir, "study")}

    def op(self, inp):
        self.captured.clear()
        run_experiment(inp["plan"], out_dir=inp["out_dir"])
        return list(self.captured)

    def check(self, inp, captured) -> OpResult:
        plan = inp["plan"]
        with open(os.path.join(inp["out_dir"], "raw.csv"), "rb") as fh:
            raw_csv = fh.read()
        with open(os.path.join(inp["out_dir"], "report.json"), "rb") as fh:
            report_json = fh.read()
        errors = []
        metrics = len(plan.metrics) + len(plan.test_functions)
        want_rows = 1 + len(plan.sizes) * len(plan.variants) * plan.replicates * metrics
        rows = raw_csv.decode().count("\n")
        if rows != want_rows:
            errors.append(f"raw.csv has {rows} lines, expected {want_rows}")
        report = json.loads(report_json)
        for key, fit in report["fits"].items():
            if not all(math.isfinite(v) for v in fit.values()):
                errors.append(f"report.json fit {key} is not finite: {fit}")
        kt_runs = len(plan.sizes) * (len(plan.variants) - 1) * plan.replicates
        if len(captured) != kt_runs:
            errors.append(f"{len(captured)} KT coresets, expected {kt_runs}")
        kt, index_digest = [], []
        for points, m, coreset in captured:
            errs, out = _kt_output(self.check_kernel, points, coreset.indices,
                                   coreset.provenance, m)
            errors += errs
            if out:
                kt.append(out)
            index_digest.append(checks.sha256_indices(coreset.indices))
        digest = {
            "indices": checks.sha256_bytes(",".join(index_digest).encode()),
            "raw_csv": checks.sha256_bytes(raw_csv),
            "report_json": checks.sha256_bytes(report_json),
        }
        return OpResult(digest, kt, errors)

    def probe_case(self, inp) -> ProbeCase:
        n = max(self.sizes)
        return ProbeCase(self.target, self.target.sample(n, derive(self.seed, 0, 4)),
                         self.kernel, self.kernel, round(math.log2(n) / 2),
                         derive(self.seed, 0, 5),
                         self.target.sample(self.surrogate_size, derive(self.seed, 0, 3)))


class CliKtplusLaplace:
    """kthin.cli.main(["thin", ...]) with --variant ktplus --alpha 0.75 and
    laplace(1), m=5, on a CSV chain of GaussTarget(2) with n=2048.

    The split kernel is laplace + Matern(1.125), whose Bessel path runs at a
    small fraction of the Gaussian's evaluation rate, so the split is bound
    by kernel arithmetic rather than by Python calls.  It also covers the sum
    kernel, CSV ingestion, the CLI and file writes.
    """

    name = "cli-ktplus-laplace"
    top_layer = "cli"
    n, m, alpha = 2048, 5, 0.75
    kernel_json = '{"family": "laplace", "params": {"sigma": 1.0}}'
    min_ops = 4
    trace_min_ops = 2

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self):
        self.kernel = laplace(1.0)
        self.check_kernel = checks.laplace_kernel(1.0)
        self.target = GaussTarget(2)
        warm = self.target.sample(64, derive(self.seed, 0, 99))
        path = os.path.join(self.work_dir, "warmup.csv")
        write_csv(path, warm)
        self._thin(path, 2, 0, os.path.join(self.work_dir, "warmup_out.csv"))
        return self.make_input(0)

    def make_input(self, i: int) -> dict:
        points = self.target.sample(self.n, derive(self.seed, i, 1))
        path = os.path.join(self.work_dir, f"chain_{i}.csv")
        write_csv(path, points)
        return {"points": points, "csv": path, "seed": derive(self.seed, i, 2),
                "out": os.path.join(self.work_dir, f"coreset_{i}.csv")}

    def _thin(self, csv_path: str, m: int, seed: int, out: str) -> int:
        argv = ["thin", "--input", csv_path, "--kernel", self.kernel_json,
                "--variant", "ktplus", "--alpha", str(self.alpha), "-m", str(m),
                "--seed", str(seed), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(argv)

    def op(self, inp):
        return self._thin(inp["csv"], self.m, inp["seed"], inp["out"])

    def check(self, inp, exit_code) -> OpResult:
        if exit_code != 0:
            return OpResult({}, [], [f"kthin thin exited with {exit_code}"])
        with open(inp["out"], "r", encoding="utf-8") as fh:
            lines = fh.read().split()
        if not lines or lines[0] != "index":
            return OpResult({}, [], [f"{inp['out']} lacks the 'index' header"])
        indices = np.array([int(v) for v in lines[1:]], dtype=np.int64)
        with open(os.path.splitext(inp["out"])[0] + ".json", "r", encoding="utf-8") as fh:
            side = json.load(fh)
        errors = []
        if side["indices"] != indices.tolist():
            errors.append("JSON sidecar indices differ from the CSV")
        pts = inp["points"]
        if "xx" not in inp:
            inp["xx"] = checks.self_mean(self.check_kernel, pts)
        errs, out = _kt_output(self.check_kernel, pts, indices, side["provenance"],
                               self.m, inp["xx"])
        return OpResult({"indices": checks.sha256_indices(indices)},
                        [out] if out else [], errors + errs)

    def probe_case(self, inp) -> ProbeCase:
        k_alpha = power_kernel(self.kernel, self.alpha, dim=2).power
        return ProbeCase(self.target, inp["points"], ktplus_kernel(self.kernel, k_alpha),
                         self.kernel, self.m, inp["seed"],
                         self.target.sample(self.n, derive(self.seed, 0, 3)))


def write_csv(path: str, points: np.ndarray) -> None:
    # %.17g round-trips every float64, so the CLI reads the exact input
    np.savetxt(path, points, delimiter=",", fmt="%.17g")


WORKLOADS = {w.name: w for w in (SplitMog, StudyMog, CliKtplusLaplace)}
