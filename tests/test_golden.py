"""The golden battery: every entry of tests/golden/outputs.json, rebuilt from
its stored parameters, must give the stored outputs.

Indices and CSV text compare exactly and floats to 1e-12 relative (see
tools/golden.py, which also regenerates the file when a change is meant to
move an output).
"""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

with open(golden.OUTPUTS, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def _assert_same(kind, rebuild):
    diffs = []
    for i, entry in enumerate(GOLDEN[kind]):
        diffs += golden.differences(entry["out"], rebuild(entry["spec"]), f"{kind}[{i}]")
    assert not diffs, f"{len(diffs)} differences:\n" + "\n".join(diffs[:40])


def test_battery_size():
    runs = [entry["spec"] for entry in GOLDEN["runs"]]
    assert len(runs) >= 240 and max(s["n"] for s in runs) <= 512
    assert {s["m"] for s in runs} == set(range(1, 7)) and {s["d"] for s in runs} == {1, 2, 3}
    assert len(GOLDEN["plans"]) == 4 and len(GOLDEN["cli"]) == 5


def test_thinning_runs_unchanged():
    _assert_same("runs", golden.run_entry)


def test_plans_unchanged(tmp_path):
    _assert_same("plans", lambda spec: golden.plan_entry(spec, str(tmp_path)))


def test_cli_runs_unchanged(tmp_path):
    _assert_same("cli", lambda spec: golden.cli_entry(spec, str(tmp_path)))


@pytest.mark.parametrize("want, got, found", [
    (1.0, 1.0 + 1e-13, False),
    (1.0, 1.0 + 1e-11, True),
    ({"a": [1, 2]}, {"a": [1, 3]}, True),
    ("variant,n\nstandard,16\n", "variant,n\ntargetkt,16\n", True),
])
def test_differences_finds_what_moved(want, got, found):
    assert bool(golden.differences(want, got)) == found
