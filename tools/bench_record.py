"""Record one point of the BENCH trajectory: BENCH_<label>.json.

Usage, from the root of a kthin checkout:

    python3 tools/bench_record.py --label 1a2b3c4
    python3 tools/bench_record.py --label 0f9e8d7 --checkout ../parent --out .

Runs `python3 perfbench/run.py` in the measured checkout on every workload
that checkout's BENCHMARK.json lists, at the fixed seed SEED and the
benchmark's run length, once with `--trace 0` (end-to-end metrics) and once
with `--trace 1` (per-layer metrics and exact counts), then times the
tier-1 test suite there.  The run and result lines of every benchmark run
and the tier-1 wall time go to BENCH_<label>.json in --out (default: the
current directory).

Successive PRs that touch a hot path compare their BENCH file against the
previous one: the same seeds and run length on both sides, so counts must
agree exactly where the code path did not change and timings are
comparable on one machine.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

SEED = 1
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def bench_run(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    *_, run_line, result_line = proc.stdout.strip().splitlines()
    return {"run": json.loads(run_line)["run"], "result": json.loads(result_line)}


def tier1(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, capture_output=True,
                          text=True, env=env)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "returncode": proc.returncode,
            "summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="write BENCH_<label>.json for one checkout")
    p.add_argument("--label", required=True, help="usually the measured commit's short sha")
    p.add_argument("--checkout", type=Path, default=Path.cwd(),
                   help="root of the kthin checkout to measure (default: here)")
    p.add_argument("--out", type=Path, default=Path.cwd(), help="directory for the JSON file")
    args = p.parse_args(argv)

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "label": args.label,
        "seed": SEED,
        "seconds": seconds,
        "machine": {"python": platform.python_version(), "platform": platform.platform()},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        record["workloads"][workload] = {
            f"trace{trace}": bench_run(checkout, workload, seconds, trace) for trace in (0, 1)
        }
        print(f"{workload}: done", file=sys.stderr)
    record["tier1"] = tier1(checkout)
    out = args.out / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
