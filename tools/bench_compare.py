"""Compare two BENCH records written by tools/bench_record.py.

Usage, from the root of a kthin checkout:

    python3 tools/bench_compare.py BENCH_0f9e8d7.json BENCH_1a2b3c4.json

For each workload in both records it prints the operation indices the two
share (per trace run), whether every output digest of those operations is
equal in both trace runs, whether the exact counts of the trace-1 runs and
their per-name call counts of operation 0 are equal, and each end-to-end
metric of the trace-0 runs, old -> new.

Exits 1 when a shared digest, an exact count or a call count differs, 0
otherwise.
Timings are printed, never judged: they vary from run to run.
"""

import json
import sys


def _shared_ops(old: dict, new: dict) -> int:
    return min(len(old["run"]["digests"]), len(new["run"]["digests"]))


def _digest_diffs(old: dict, new: dict) -> list[str]:
    """'op i name' for every digest that both runs hold and that differs."""
    pairs = zip(old["run"]["digests"], new["run"]["digests"])
    return [f"op {i} {name}" for i, (a, b) in enumerate(pairs)
            for name in sorted(a.keys() & b.keys()) if a[name] != b[name]]


def _count_diffs(old: dict, new: dict) -> list[str]:
    """'key old -> new' for every exact count, and every per-name call count
    of operation 0, that differs: work that moves between traced names shows
    here even when the totals agree."""
    diffs = []
    for field in ("counts", "calls_op0"):
        a, b = old["run"][field], new["run"][field]
        diffs += [f"{key} {a.get(key)} -> {b.get(key)}"
                  for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
    return diffs


def compare_workload(old: dict, new: dict) -> tuple[list[str], bool]:
    """Report lines for one workload, and whether its outputs and counts agree."""
    lines = ["  shared operations: " + ", ".join(
        f"{trace} 0..{_shared_ops(old[trace], new[trace]) - 1}" for trace in ("trace0", "trace1"))]
    digests = [f"{trace} {diff}" for trace in ("trace0", "trace1")
               for diff in _digest_diffs(old[trace], new[trace])]
    lines.append("  digests: " + ("equal" if not digests else "DIFFER: " + "; ".join(digests)))
    counts = _count_diffs(old["trace1"], new["trace1"])
    lines.append("  trace-1 counts: " + ("equal" if not counts else "DIFFER: " + "; ".join(counts)))
    a, b = old["trace0"]["result"]["metrics"], new["trace0"]["result"]["metrics"]
    for name in sorted(a.keys() & b.keys()):
        lines.append(f"  {name}: {a[name]['value']:.6g} -> {b[name]['value']:.6g} {a[name]['unit']}")
    return lines, not digests and not counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: bench_compare.py OLD.json NEW.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        old = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        new = json.load(fh)
    print(f"{old['label']} -> {new['label']}")
    agree = True
    for workload in sorted(old["workloads"].keys() | new["workloads"].keys()):
        if workload not in old["workloads"] or workload not in new["workloads"]:
            print(f"{workload}: only in {old['label'] if workload in old['workloads'] else new['label']}")
            continue
        lines, same = compare_workload(old["workloads"][workload], new["workloads"][workload])
        print(workload)
        print("\n".join(lines))
        agree = agree and same
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
