"""The examples in README.md, run or read through the library's strict readers.

The Python quickstart must run, and every JSON example the README shows --
the plan.json block, each object in the Kernel JSON block and each
single-quoted --kernel or --input argument of the command-line examples --
must parse, and every package constant the README quotes must be the
code's, so the documented API, formats and figures cannot drift from it.
"""

import json
import pathlib
import re

from kthin import kernels, thinning
from kthin.discrepancy import _COLS, _POOL_STRIPS, _ROWS
from kthin.harness import ExperimentPlan
from kthin.kernels import from_json as kernel_from_json
from kthin.targets import target_from_json_dict

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block_after(heading: str, language: str = "json") -> str:
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_python_quickstart_runs(capsys):
    exec(compile(_block_after("## Python quickstart", "python"), "README.md", "exec"), {})
    size, accepted = capsys.readouterr().out.splitlines()[0].split()
    assert size == "32" and int(accepted) >= 0


def test_plan_json_example_reads_as_a_plan():
    plan = ExperimentPlan.from_json(_block_after("## plan.json"))
    assert [v.tag for v in plan.variants] == [
        "standard", "targetkt", "rootkt", "powerkt(a=0.7)", "ktplus(a=0.5)"
    ]
    assert plan.test_functions == ("rkhs_witness", "moment1", "moment2", "cif")


def test_kernel_json_examples_read_as_kernels():
    block, decoder, families = _block_after("## Kernel JSON").strip(), json.JSONDecoder(), []
    while block:
        obj, end = decoder.raw_decode(block)
        families.append(kernel_from_json(json.dumps(obj)).family)
        block = block[end:].strip()
    assert families == ["gauss", "laplace", "matern", "imq", "sinc", "bspline", "sum"]


def test_command_line_json_arguments_read_strictly():
    args = re.findall(r"--(kernel|input) '([^']*)'", README)
    assert sorted(flag for flag, _ in args) == ["input"] + ["kernel"] * 4
    for flag, text in args:
        if flag == "kernel":
            kernel_from_json(text)
        else:
            target_from_json_dict(json.loads(text))


def _quoted(pattern: str) -> list:
    """The integers each match of pattern captures in README, read across
    line breaks; the pattern must match at least once."""
    found = re.findall(pattern, " ".join(README.split()))
    assert found, pattern
    return [tuple(map(int, m)) if isinstance(m, tuple) else int(m) for m in found]


def test_quoted_constants_are_the_code_constants():
    mb, strip = 2 ** 20, 8 * _ROWS * _COLS
    assert _quoted(r"(\d+) × (\d+) Gram strips") == [(_ROWS, _COLS)]
    # a strip buffer and one scratch array per thread, for a kernel that is not a sum
    assert [v * mb for v in _quoted(r"plus (\d+) MB per thread")] == [
        strip * (1 + kernels._scratch_count(kernels.gauss(1.0)))]
    assert [(a * mb, b * mb) for a, b in _quoted(
        r"holds a (\d+) MB strip buffer and a (\d+) MB scratch array")] == [(strip, strip)]
    assert _quoted(r"a kernel sum of at least (\d+) strips") == [_POOL_STRIPS]
    assert _quoted(r"the (\d+)-entry chunks") == [kernels._KV_CHUNK]
    assert [v * mb for v in _quoted(r"at most (\d+) MB in all")] == [thinning._PIPELINE_BYTES]
