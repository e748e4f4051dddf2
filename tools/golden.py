"""The golden battery: outputs that a change to kthin must leave unchanged.

Usage, from the root of a kthin checkout:

    PYTHONPATH=src python3 tools/golden.py

rebuilds every entry and writes tests/golden/outputs.json, which
tests/test_golden.py rebuilds in memory and compares.  Run it only for a
change that is meant to move an output, and list in CHANGES.md the entries
that changed and why.

The battery holds three kinds of entry, each with the parameters it is
rebuilt from:

  runs   about 240 thinning runs through `target_kt`, `power_kt` and
         `kt_plus`, plus one identity-perturbed `generalized_kt`, at n <= 512
         over gauss, laplace, Matern(2.5), IMQ, B-spline(1) and sinc, d = 1..3,
         m = 1..6, both delta rules, with integer-grid inputs (many tied
         pairs) in a fifth of them, and six `target_kt` runs at the
         half-integer Matern orders 0.5 and 2.5.  Each keeps the sha256 of
         its indices and its `selection_mmds`, `sigma_m` and `p_sg`.
  plans  raw.csv and report.json of two small `run_experiment` plans.
  cli    the coreset CSV and the JSON sidecar of `kthin thin`, once per
         variant and once with `--delta-rule oblivious`.

Indices and CSV text compare exactly; floats compare to RTOL relative.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from kthin import kernels as kn
from kthin.cli import main as cli_main
from kthin.harness import ExperimentPlan, run_experiment
from kthin.thinning import ThinningConfig, generalized_kt, kt_plus, power_kt, target_kt

OUTPUTS = Path(__file__).resolve().parents[1] / "tests" / "golden" / "outputs.json"
RTOL = 1e-12

# the kernel of each family and the alphas with a closed-form power kernel in
# every dimension 1..3 (None: no closed form, so the power variants get an
# explicit split kernel)
FAMILIES = {
    "gauss": (kn.gauss(1.5), (0.5, 0.75, 1.0)),
    "laplace": (kn.laplace(1.0), (0.8, 1.0)),
    "matern": (kn.matern(2.5, 1.0), (0.75, 1.0)),
    "imq": (kn.imq(0.5, 1.0), None),
    "bspline": (kn.bspline(1, 0.7), (0.5, 1.0)),
    "sinc": (kn.sinc(1.2), (0.5, 0.9)),
}
FRONTS = {"target_kt": target_kt, "power_kt": power_kt, "kt_plus": kt_plus}
SIZES = (16, 33, 48, 64, 97, 128, 160, 255, 320, 512)


def sha256_indices(indices) -> str:
    return hashlib.sha256(np.asarray(indices, dtype="<i8").tobytes()).hexdigest()


def points_for(spec: dict) -> np.ndarray:
    gen = np.random.default_rng(spec["points_seed"])
    shape = (spec["n"], spec["d"])
    if spec["grid"]:
        # coordinates on {0, 1, 2}: many repeated points and tied pairs
        return gen.integers(0, 3, size=shape).astype(float)
    return gen.normal(size=shape)


def run_specs() -> list[dict]:
    specs = []
    families = list(FAMILIES)
    for i in range(240):
        family = families[i % len(families)]
        front = list(FRONTS)[(i // len(families)) % len(FRONTS)]
        # strides chosen so that every pair of settings meets several times
        d, m = 1 + (i // 18) % 3, 1 + (i // 2 + i // 54) % 6
        n = max(SIZES[(7 * i) % len(SIZES)], 2 ** m + i % 3)
        spec = {"front": front, "kernel": FAMILIES[family][0].to_json_dict(), "d": d, "n": n,
                "m": m, "seed": i, "points_seed": 1000 + i, "grid": (i // 3) % 5 == 0,
                "delta": (0.5, 0.1)[(i // 8) % 2],
                "delta_rule": ("known_n", "oblivious")[(i // 4) % 2]}
        if front != "target_kt":
            alphas = FAMILIES[family][1]
            if alphas is None:
                spec["split_kernel"] = kn.imq(0.8, 1.3).to_json_dict()
            else:
                spec["alpha"] = alphas[i % len(alphas)]
        specs.append(spec)
    specs.append({"front": "generalized_kt", "kernel": kn.gauss(1.0).to_json_dict(),
                  "identity_weight": 0.5, "d": 2, "n": 200, "m": 3, "seed": 7,
                  "points_seed": 2000, "grid": True, "delta": 0.5, "delta_rule": "known_n"})
    # target KT at the half-integer Matern orders a = nu - d/2 = 0.5 and 2.5,
    # which the family kernel above (a = 1.5 in d = 2) does not reach
    halves = ((kn.matern(1.0, 1.0), 1), (kn.matern(3.5, 1.0), 2), (kn.matern(3.0, 0.8), 1))
    for k, d in halves:
        for n, m, grid in ((97, 3, False), (128, 4, True)):
            specs.append({"front": "target_kt", "kernel": k.to_json_dict(), "d": d, "n": n,
                          "m": m, "seed": 300 + len(specs), "points_seed": 3000 + len(specs),
                          "grid": grid, "delta": 0.5, "delta_rule": "known_n"})
    return specs


def run_entry(spec: dict) -> dict:
    k = kn.from_json_dict(spec["kernel"])
    cfg = ThinningConfig(m=spec["m"], seed=spec["seed"], delta=spec["delta"],
                         delta_rule=spec["delta_rule"])
    points = points_for(spec)
    if spec["front"] == "generalized_kt":
        out = generalized_kt(kn.IdentityPerturbedKernel(k, spec["identity_weight"]), k,
                             points, cfg)
    elif spec["front"] == "target_kt":
        out = target_kt(k, points, cfg)
    else:
        split = spec.get("split_kernel")
        out = FRONTS[spec["front"]](k, points, cfg, alpha=spec.get("alpha"),
                                    split_kernel=split and kn.from_json_dict(split))
    return {"indices": sha256_indices(out.indices),
            **{key: out.provenance[key] for key in ("selection_mmds", "sigma_m", "p_sg")}}


def plan_specs() -> list[dict]:
    test_functions = ["rkhs_witness", "moment1", "moment2", "cif"]
    return [
        {"target": {"kind": "mog", "components": 4}, "kernel": kn.gauss(2.0).to_json_dict(),
         "variants": [{"name": "standard"}, {"name": "targetkt"}, {"name": "rootkt"},
                      {"name": "powerkt", "alpha": 0.75}, {"name": "ktplus", "alpha": 0.5}],
         "sizes": [16, 64, 256], "replicates": 2, "seed": 5, "test_functions": test_functions,
         "surrogate_size": 512},
        {"target": {"kind": "gauss", "d": 3}, "kernel": kn.laplace(1.0).to_json_dict(),
         "variants": [{"name": "standard"}, {"name": "targetkt"}, {"name": "ktplus", "alpha": 0.8}],
         "sizes": [16, 64, 256], "replicates": 2, "seed": 9, "bandwidth_rule": "median",
         "aggregate": "median", "test_functions": test_functions, "surrogate_size": 300},
    ]


def plan_entry(spec: dict, work: str) -> dict:
    out_dir = os.path.join(work, "plan")
    run_experiment(ExperimentPlan.from_json_dict(spec), out_dir=out_dir)
    files = {}
    for name in ("raw.csv", "report.json"):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    return files


CLI_KERNEL = '{"family": "gauss", "params": {"sigma": 1.5}}'


def cli_specs() -> list[list[str]]:
    laplace = '{"family": "laplace", "params": {"sigma": 1.0}}'
    return [
        ["--variant", "targetkt", "-m", "3", "--seed", "1"],
        ["--variant", "powerkt", "--alpha", "0.75", "-m", "3", "--seed", "2"],
        ["--variant", "ktplus", "-m", "4", "--seed", "3"],
        ["--variant", "generalized", "--split-kernel", laplace, "-m", "3", "--seed", "4"],
        ["--variant", "targetkt", "--delta-rule", "oblivious", "-m", "2", "--seed", "5"],
    ]


def cli_entry(flags: list[str], work: str) -> dict:
    src, out = os.path.join(work, "in.csv"), os.path.join(work, "coreset.csv")
    np.savetxt(src, np.random.default_rng(3).normal(size=(150, 2)), delimiter=",", fmt="%.17g")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["thin", "--input", src, "--kernel", CLI_KERNEL, "--out", out, *flags])
    if code != 0:
        return {"exit": code}
    with open(out, encoding="utf-8") as fh, open(os.path.splitext(out)[0] + ".json") as side:
        return {"csv": fh.read(), "sidecar": json.load(side)}


def build() -> dict:
    """Every entry of the battery, with its parameters and its outputs now."""
    with tempfile.TemporaryDirectory() as work:
        return {
            "runs": [{"spec": s, "out": run_entry(s)} for s in run_specs()],
            "plans": [{"spec": s, "out": plan_entry(s, work)} for s in plan_specs()],
            "cli": [{"spec": s, "out": cli_entry(s, work)} for s in cli_specs()],
        }


def differences(want, got, where: str = "") -> list[str]:
    """Where got differs from want: floats beyond RTOL, anything else at all.

    raw.csv's value column and the numbers in report.json compare as floats;
    every other string compares exactly.
    """
    if isinstance(want, float) and isinstance(got, float):
        if want == got or math.isclose(want, got, rel_tol=RTOL, abs_tol=0.0):
            return []
        return [f"{where}: {want!r} != {got!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [d for key in want for d in differences(want[key], got[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got)) for d in differences(a, b, f"{where}[{i}]")]
    if isinstance(want, str) and isinstance(got, str) and want != got:
        if where.endswith("raw.csv"):
            return _csv_differences(want, got, where)
        if where.endswith("report.json"):
            return differences(json.loads(want), json.loads(got), where)
    if type(want) is not type(got) or want != got:
        return [f"{where}: {want!r} != {got!r}"]
    return []


def _csv_differences(want: str, got: str, where: str) -> list[str]:
    sha = (f"{where}: sha256 {hashlib.sha256(want.encode()).hexdigest()} -> "
           f"{hashlib.sha256(got.encode()).hexdigest()}")
    rows = [[line.split(",") for line in text.splitlines()] for text in (want, got)]
    if len(rows[0]) != len(rows[1]):
        return [sha, f"{where}: {len(rows[0])} lines != {len(rows[1])}"]
    out = []
    for i, (a, b) in enumerate(zip(*rows)):
        if i and len(a) == len(b) == 6 and a[:5] == b[:5]:
            out += differences(float(a[5]), float(b[5]), f"{where} line {i + 1}")
        elif a != b:
            out.append(f"{where} line {i + 1}: {a} != {b}")
    return [sha] + out if out else []


def main() -> int:
    OUTPUTS.parent.mkdir(parents=True, exist_ok=True)
    battery = build()
    with open(OUTPUTS, "w", encoding="utf-8") as fh:
        json.dump(battery, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(battery['runs'])} runs, {len(battery['plans'])} plans and "
          f"{len(battery['cli'])} CLI runs to {OUTPUTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
