"""The benchmark's own test: exact counts repeat, traced and untraced runs of
an operation agree, and the script refuses to run without the library.

Run from the root of the checkout:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("split-mog-4096", "study-mog", "cli-ktplus-laplace")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    *_, run_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(run_line)["run"], json.loads(result_line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_digests_repeat(workload):
    first_run, first = parse(bench(workload, 7, trace=1))
    second_run, second = parse(bench(workload, 7, trace=1))
    for result in (first, second):
        # also covers "traced and untraced runs of each op have equal digests"
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert all(v["value"] is not None for v in result["metrics"].values())
    assert first_run["counts"] == second_run["counts"]
    assert first_run["calls_op0"] == second_run["calls_op0"]
    n = min(len(first_run["digests"]), len(second_run["digests"]))
    assert first_run["digests"][:n] == second_run["digests"][:n]
    if workload == "split-mog-4096":
        # one split of n = 4096 with m = 6: 3 calls per (round, level, slot)
        # visit, less one for each of the 63 slots' first visit
        assert first_run["counts"]["kernels.split_calls"] == 36801
        assert first_run["counts"]["rng.draws"] == 12288


def test_untraced_digests_match_traced():
    traced_run, _ = parse(bench("cli-ktplus-laplace", 3, trace=1))
    plain_run, plain = parse(bench("cli-ktplus-laplace", 3, trace=0))
    assert plain["correct"]
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    n = len(traced_run["digests"])
    assert plain_run["digests"][:n] == traced_run["digests"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("split-mog-4096", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
