"""Command-line front end.

Subcommands:
  thin         thin a point file (or a sampled synthetic target) to a coreset
  mmd          exact MMD between two point files under a kernel
  experiment   run a plan.json decay-rate study
  powerkernel  resolve the closed-form power kernel of a kernel spec

Exit codes: 0 success, 2 usage error, 3 data error, 4 constraint error
(for example a power kernel with no closed form).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .discrepancy import DiscreteMeasure, mmd
from .harness import ExperimentPlan, run_experiment
from .kernels import from_json as kernel_from_json, power_kernel
from .targets import IngestError, ingest, target_from_json_dict
from .thinning import (DeltaSchedule, ThinningConfig, generalized_kt, kt_plus, power_kt,
                       split_kernel_for, target_kt)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONSTRAINT = 4


def _load_points(args, from_file: bool) -> np.ndarray:
    """Points from a file path, or sampled from a JSON target spec like
    {"kind": "mog", "components": 8} (requires --n)."""
    if from_file:
        return ingest(args.input, format=args.format or "csv", burn_in=args.burn_in or 0)
    try:
        obj = json.loads(args.input)
    except json.JSONDecodeError:
        raise IngestError(
            f"--input {args.input!r} is neither an existing file nor a JSON target spec"
        )
    target = target_from_json_dict(obj)
    if args.n is None:
        raise IngestError("sampling a synthetic target requires --n")
    return target.sample(args.n, args.seed)


# the thin flags each variant, an explicit split kernel and each kind of
# input would otherwise silently ignore
_UNUSED_FLAGS = {"--variant targetkt": ("alpha", "split_kernel"),
                 "--variant generalized": ("alpha",),
                 "--split-kernel": ("alpha",),
                 "an --input file": ("n",),
                 "an --input target spec": ("format", "burn_in")}


def _cmd_thin(args) -> int:
    from_file = os.path.exists(args.input)
    for user in (f"--variant {args.variant}",
                 "--split-kernel" if args.split_kernel is not None else None,
                 "an --input " + ("file" if from_file else "target spec")):
        unused = [name for name in _UNUSED_FLAGS.get(user, ()) if getattr(args, name) is not None]
        if unused:
            flags = " or ".join("--" + name.replace("_", "-") for name in unused)
            print(f"usage error: {user} does not use {flags}", file=sys.stderr)
            return EXIT_USAGE
    kernel = kernel_from_json(args.kernel)
    points = _load_points(args, from_file)
    cfg = ThinningConfig(
        m=args.m,
        delta_schedule=DeltaSchedule(args.delta_rule, args.delta),
        seed=args.seed,
    )
    split = kernel_from_json(args.split_kernel) if args.split_kernel else None
    if args.variant == "targetkt":
        coreset = target_kt(kernel, points, cfg)
    elif args.variant == "generalized":
        k_split = split_kernel_for("generalized", kernel, points.shape[1], split_kernel=split)
        coreset = generalized_kt(k_split, kernel, points, cfg)
        coreset.provenance["variant"] = "generalized"
    else:
        front = power_kt if args.variant == "powerkt" else kt_plus
        alpha = 0.5 if args.alpha is None else args.alpha
        coreset = front(kernel, points, cfg, alpha=alpha, split_kernel=split)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(coreset.to_csv())
    side = os.path.splitext(args.out)[0] + ".json"
    with open(side, "w", encoding="utf-8") as fh:
        fh.write(coreset.to_json() + "\n")
    print(f"wrote {len(coreset)} indices to {args.out} (provenance in {side})")
    return EXIT_OK


def _cmd_mmd(args) -> int:
    kernel = kernel_from_json(args.kernel)
    a = ingest(args.a, format=args.format)
    b = ingest(args.b, format=args.format)
    value = mmd(kernel, DiscreteMeasure(a), DiscreteMeasure(b))
    print(format(value, ".12g"))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = ExperimentPlan.from_json(fh.read())
    report = run_experiment(plan, out_dir=args.out_dir)
    for key, fit in sorted(report.fits.items()):
        print(f"{key}: slope {fit['slope']:+.4f} (vs input n: {fit['slope_vs_input_n']:+.4f})")
    for row in report.skipped:
        print(f"skipped {row['variant']}: {row['reason']}")
    print(f"wrote {os.path.join(args.out_dir, 'raw.csv')} and report.json")
    return EXIT_OK


def _cmd_powerkernel(args) -> int:
    kernel = kernel_from_json(args.kernel)
    pair = power_kernel(kernel, args.alpha, dim=args.dim)
    print(pair.power.to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kthin", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_thin = sub.add_parser("thin", help="thin points to a coreset")
    p_thin.add_argument("--input", required=True,
                        help="point file, or JSON target spec (with --n)")
    p_thin.add_argument("--kernel", required=True, help="kernel spec JSON")
    p_thin.add_argument("--variant", default="targetkt",
                        choices=["targetkt", "powerkt", "ktplus", "generalized"])
    p_thin.add_argument("--alpha", type=float, default=None,
                        help="power exponent for powerkt/ktplus without --split-kernel "
                             "(default 0.5)")
    p_thin.add_argument("--split-kernel", default=None,
                        help="explicit split kernel JSON (required for generalized; "
                             "overrides the closed form for powerkt/ktplus)")
    p_thin.add_argument("-m", type=int, required=True, help="halvings; output floor(n/2^m)")
    p_thin.add_argument("--seed", type=int, default=0)
    p_thin.add_argument("--n", type=int, default=None, help="sample size for a target spec")
    p_thin.add_argument("--format", choices=["csv", "bin"], help="point file format (csv)")
    p_thin.add_argument("--burn-in", type=int, help="point file rows to drop (0)")
    p_thin.add_argument("--delta", type=float, default=0.5)
    p_thin.add_argument("--delta-rule", default="known_n", choices=["known_n", "oblivious"])
    p_thin.add_argument("--out", required=True, help="output CSV of coreset indices")
    p_thin.set_defaults(func=_cmd_thin)

    p_mmd = sub.add_parser("mmd", help="MMD between two point files")
    p_mmd.add_argument("--kernel", required=True)
    p_mmd.add_argument("--a", required=True)
    p_mmd.add_argument("--b", required=True)
    p_mmd.add_argument("--format", default="csv", choices=["csv", "bin"])
    p_mmd.set_defaults(func=_cmd_mmd)

    p_exp = sub.add_parser("experiment", help="run a plan.json study")
    p_exp.add_argument("--plan", required=True)
    p_exp.add_argument("--out-dir", required=True)
    p_exp.set_defaults(func=_cmd_experiment)

    p_pow = sub.add_parser("powerkernel", help="resolve a closed-form power kernel")
    p_pow.add_argument("--kernel", required=True)
    p_pow.add_argument("--alpha", type=float, required=True)
    p_pow.add_argument("--dim", type=int, default=None,
                       help="point dimension (needed for matern/laplace validity)")
    p_pow.set_defaults(func=_cmd_powerkernel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IngestError, OSError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # KernelError and every spec value error
        print(f"constraint error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
