"""kthin benchmark: one workload, one run.

Usage, from the root of a kthin checkout:

    python3 perfbench/run.py --workload split-mog-4096 --seed 1 --seconds 10 --trace 0

Workloads: split-mog-4096, study-mog, cli-ktplus-laplace (see README.md).

--trace 0 times untraced operations for at least --seconds and prints the
end-to-end metrics.  --trace 1 runs each operation twice, untraced and then
traced, prints the per-layer metrics, and checks that both runs of an
operation give the same output digests.  Every operation's outputs are
checked; a failed check counts the operation as failed.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it is {"run": {...}}: versions, thread settings, seed,
operation count, output digests and, when tracing, exact counts.

The library is imported from src/ of the checkout; without it the script
exits with status 2 and prints no result.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

# numpy, scipy and kthin are imported inside functions, once main() has set
# the thread count they read at import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# one BLAS/OpenMP thread: kthin is single-process, and one thread keeps the
# timings steady on a shared 2-core machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"

SETUP_REPS = 5
FAMILY_BLOCK = (256, 2048)  # rows x cols of the kernel-family sweep block
FAMILY_REPS = 3

def parse_args(argv):
    p = argparse.ArgumentParser(description="kthin benchmark (one workload, one run)")
    p.add_argument("--workload", required=True,
                   choices=["split-mog-4096", "study-mog", "cli-ktplus-laplace"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: set up in a fresh process and print the time taken")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kthin" / "__init__.py").is_file():
        print(f"error: no kthin sources at {SRC}; run from the root of a kthin checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    work_dir = WORK_ROOT / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, str(work_dir))
        if args.setup_only:
            wl.setup()
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            return 0
        setup_s = None if args.trace else measure_setup(args)
        inp0 = wl.setup()
        if args.trace:
            metrics, correct, attempted, failed, run = traced_pass(wl, inp0, args.seconds)
        else:
            metrics, correct, attempted, failed, run = untraced_pass(wl, inp0, args.seconds)
            metrics["setup_s"] = setup_s
        # names and units come from the benchmark's declaration
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        run.update(run_metadata(args))
        print(json.dumps({"run": run}))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                        for m in declared},
        }))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def measure_setup(args) -> float:
    """Median wall time, over fresh processes, from the first line of this
    script to a set-up, warmed-up workload: imports, input generation (with
    the CSV write), kernel and plan construction, warm-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed with status {proc.returncode}:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def run_op(wl, inp, failures, label, tracer=None):
    """(seconds, OpResult, trace summary or None) for one operation, or None
    if it raised.  Check failures are appended to `failures`."""
    gc.collect()
    try:
        if tracer is None:
            t0 = time.perf_counter()
            raw = wl.op(inp)
            dt = time.perf_counter() - t0
            summary = None
        else:
            with tracer.installed():
                t0 = time.perf_counter()
                with tracer.span(wl.top_layer, wl.name):
                    raw = wl.op(inp)
                dt = time.perf_counter() - t0
            summary = tracer.take(dt)
        result = wl.check(inp, raw)
    except Exception:
        if tracer is not None:
            tracer.reset()
        note(failures, f"{label}: {traceback.format_exc()}")
        return None
    for err in result.errors:
        note(failures, f"{label}: {err}")
    return dt, result, summary


def note(failures, message):
    failures.append(message)
    print(message, file=sys.stderr)


def untraced_pass(wl, inp0, seconds):
    times, results, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i < wl.min_ops or time.perf_counter() - start < seconds:
        inp = inp0 if i == 0 else wl.make_input(i)
        attempted += 1
        done = run_op(wl, inp, failures, f"op {i}")
        if done is None or done[1].errors:
            failed += 1
        if done is not None:
            times.append(done[0])
            results.append(done[1])
        i += 1
    # the quality guard covers the same operations on every machine
    ratios = [k.mmd_kt / k.mmd_std for r in results[:wl.min_ops] for k in r.kt]
    metrics = {
        "op_s": statistics.median(times) if times else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mmd_ratio": math.exp(statistics.fmean(math.log(r) for r in ratios)) if ratios else None,
        "ok_rate": (attempted - failed) / attempted,
    }
    run = {"ops": attempted, "op_s_samples": times,
           "digests": [r.digest for r in results], "failures": failures,
           "error_rate": failed / attempted}
    return metrics, failed == 0, attempted, failed, run


def traced_pass(wl, inp0, seconds):
    from spans import Tracer

    tracer = Tracer()
    plain_s, traced_s, summaries, results, failures = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i < wl.trace_min_ops or time.perf_counter() - start < seconds:
        inp = inp0 if i == 0 else wl.make_input(i)
        # alternate which twin runs first, so neither gains from going second
        done = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            label = f"op {i} traced" if traced else f"op {i}"
            done[traced] = run_op(wl, inp, failures, label, tracer if traced else None)
        plain, traced = done[False], done[True]
        attempted += 2
        failed += sum(d is None or bool(d[1].errors) for d in (plain, traced))
        if plain is not None and traced is not None:
            if plain[1].digest != traced[1].digest:
                note(failures, f"op {i}: traced digest {traced[1].digest} "
                               f"!= untraced {plain[1].digest}")
                failed += not traced[1].errors
        if plain is not None:
            plain_s.append(plain[0])
        if traced is not None:
            traced_s.append(traced[0])
            results.append(traced[1])
            summaries.append(traced[2])
        i += 1

    metrics = layer_metrics(wl, summaries, results, plain_s, traced_s)
    metrics.update(probe_layers(wl, inp0))
    metrics.update(family_sweep(wl.seed))
    run = {"ops": attempted, "op_s_untraced": plain_s, "op_s_traced": traced_s,
           "digests": [r.digest for r in results], "failures": failures,
           "error_rate": failed / attempted,
           "counts": {k: metrics[k] for k in EXACT_COUNTS if k in metrics},
           "calls_op0": summaries[0]["calls"] if summaries else {},
           "family_block": list(FAMILY_BLOCK)}
    return metrics, failed == 0, attempted, failed, run


SPAN_COUNTS = ("kernels.calls", "kernels.split_calls", "kernels.evals", "rng.draws")
EXACT_COUNTS = SPAN_COUNTS + ("thinning.accepted_swaps",)


def layer_metrics(wl, summaries, results, plain_s, traced_s) -> dict:
    if not summaries:
        return {}
    med = statistics.median
    op0 = summaries[0]
    kt = [k for r in results[:wl.trace_min_ops] for k in r.kt]
    out = {name: op0[name] for name in SPAN_COUNTS}
    out["kernels.s"] = med(s["kernels.s"] for s in summaries)
    out["kernels.evals_per_s"] = med(s["kernels.evals"] / s["kernels.s"] for s in summaries)
    out["kernels.mean_block"] = op0["kernels.evals"] / op0["kernels.calls"]
    out["rng.s"] = med(s["rng.s"] for s in summaries)
    out["thinning.accepted_swaps"] = sum(k.accepted_swaps for k in results[0].kt)
    out["thinning.swap_accept_ratio"] = (
        sum(k.accepted_swaps for k in kt) / sum(k.size for k in kt) if kt else None)
    out["thinning.candidate_win_ratio"] = (
        sum(k.candidate != 0 for k in kt) / len(kt) if kt else None)
    from spans import LAYERS
    for layer in LAYERS:
        out[f"{layer}.self_share"] = med(s["self_s"][layer] / s["wall_s"] for s in summaries)
    out["unattributed_share"] = med(s["unattributed_s"] / s["wall_s"] for s in summaries)
    if plain_s:
        out["trace_overhead"] = med(traced_s) / med(plain_s) - 1.0
    return out


def timed(fn, reps):
    """(median seconds over reps calls, last result)."""
    times = []
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def probe_layers(wl, inp0) -> dict:
    """Untraced direct calls of each layer's entry point on the workload's data."""
    from kthin import ThinningConfig, ingest, kt_split, kt_swap, mmd_points
    from kthin.discrepancy import kernel_row_means
    from workloads import write_csv

    case = wl.probe_case(inp0)
    pts = case.points
    cfg = ThinningConfig(m=case.m, seed=case.seed)
    out = {}
    out["thinning.split_s"], candidates = timed(lambda: kt_split(case.k_split, pts, cfg), 1)
    out["thinning.swap_s"], coreset = timed(
        lambda: kt_swap(case.k_target, pts, candidates, cfg), 1)
    chosen = pts[coreset.indices]
    out["discrepancy.row_means_s"], _ = timed(lambda: kernel_row_means(case.k_target, pts), 3)
    out["discrepancy.mmd_input_s"], _ = timed(lambda: mmd_points(case.k_target, pts, chosen), 3)
    # one call for the 16384-point surrogate, whose self-term alone takes seconds
    out["discrepancy.mmd_surrogate_s"], _ = timed(
        lambda: mmd_points(case.k_target, case.surrogate, chosen),
        1 if len(case.surrogate) > 8192 else 3)
    out["targets.sample_s"], _ = timed(lambda: case.target.sample(len(pts), case.seed), 5)
    path = os.path.join(wl.work_dir, "probe.csv")
    write_csv(path, pts)
    out["targets.ingest_s"], _ = timed(lambda: ingest(path), 3)
    return out


def family_sweep(seed) -> dict:
    """Kernel evaluations per second of each family, by direct gram calls on
    one fixed d=2 block of FAMILY_BLOCK points."""
    from kthin import bspline, gauss, gram, imq, ktplus_kernel, laplace, matern, sinc
    import numpy as np
    from workloads import derive

    kernels = {
        "gauss": gauss(1.0),
        "laplace": laplace(1.0),
        "matern": matern(2.5, 1.0),          # order 1.5: exponential-polynomial form
        "matern_bessel": matern(1.125, 1.0),  # order 0.125: scipy Bessel path
        "imq": imq(0.5, 1.0),
        "sinc": sinc(1.0),
        "bspline": bspline(1, 1.0),
        "sum": ktplus_kernel(laplace(1.0), matern(1.125, 1.0)),
    }
    gen = np.random.default_rng(derive(seed, 0, 6))
    a = gen.standard_normal((FAMILY_BLOCK[0], 2))
    b = gen.standard_normal((FAMILY_BLOCK[1], 2))
    evals = FAMILY_BLOCK[0] * FAMILY_BLOCK[1]
    return {f"kernels.family_evals_per_s.{name}": evals / timed(lambda: gram(k, a, b), FAMILY_REPS)[0]
            for name, k in kernels.items()}


def run_metadata(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


if __name__ == "__main__":
    sys.exit(main())
