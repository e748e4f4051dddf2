"""tools/bench_compare.py on two hand-made BENCH records."""

import copy
import json
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"


def _record(label, ops=3):
    def run(trace, n):
        run = {"digests": [{"indices": f"d{i}"} for i in range(n)]}
        if trace == 1:
            run["counts"] = {"kernels.calls": 235, "rng.draws": 0}
            run["calls_op0"] = {"kthin.discrepancy.gram": 170, "kthin.thinning.gram_rows": 65}
        return {"run": run, "result": {"metrics": {"op_s": {"unit": "s", "value": 0.5}}}}

    return {"label": label,
            "workloads": {"split": {"trace0": run(0, ops), "trace1": run(1, ops - 1)}}}


def _compare(tmp_path, old, new):
    paths = []
    for name, record in (("old", old), ("new", new)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(record))
        paths.append(str(path))
    return subprocess.run([sys.executable, str(TOOL), *paths], capture_output=True, text=True)


def test_equal_outputs_pass_and_report_shared_ops_and_metrics(tmp_path):
    new = _record("new", ops=5)  # a longer run shares only the old run's operations
    new["workloads"]["split"]["trace0"]["result"]["metrics"]["op_s"]["value"] = 0.25
    proc = _compare(tmp_path, _record("old"), new)
    assert proc.returncode == 0, proc.stdout
    assert "shared operations: trace0 0..2, trace1 0..1" in proc.stdout
    assert "digests: equal" in proc.stdout
    assert "trace-1 counts: equal" in proc.stdout
    assert "op_s: 0.5 -> 0.25 s" in proc.stdout


def test_a_differing_digest_or_count_fails(tmp_path):
    old = _record("old")
    digest = copy.deepcopy(old)
    digest["workloads"]["split"]["trace1"]["run"]["digests"][1]["indices"] = "other"
    proc = _compare(tmp_path, old, digest)
    assert proc.returncode == 1
    assert "DIFFER: trace1 op 1 indices" in proc.stdout

    count = copy.deepcopy(old)
    count["workloads"]["split"]["trace1"]["run"]["counts"]["kernels.calls"] = 236
    proc = _compare(tmp_path, old, count)
    assert proc.returncode == 1
    assert "DIFFER: kernels.calls 235 -> 236" in proc.stdout

    # the same totals with the work moved from one traced name to another
    moved = copy.deepcopy(old)
    calls = moved["workloads"]["split"]["trace1"]["run"]["calls_op0"]
    calls["kthin.discrepancy.gram"] = 235
    del calls["kthin.thinning.gram_rows"]
    proc = _compare(tmp_path, old, moved)
    assert proc.returncode == 1
    assert ("DIFFER: kthin.discrepancy.gram 170 -> 235; kthin.thinning.gram_rows 65 -> None"
            in proc.stdout)
