"""The JSON examples in README.md, read through the library's strict readers.

Every example the README shows -- the plan.json block, each object in the
Kernel JSON block and each single-quoted --kernel or --input argument of the
command-line examples -- must parse, so the documented formats cannot drift
from what the readers accept.
"""

import json
import pathlib
import re

from kthin.harness import ExperimentPlan
from kthin.kernels import from_json as kernel_from_json
from kthin.targets import target_from_json_dict

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _json_block_after(heading: str) -> str:
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```json\n(.*?)```", section, re.S).group(1)


def test_plan_json_example_reads_as_a_plan():
    plan = ExperimentPlan.from_json(_json_block_after("## plan.json"))
    assert [v.tag for v in plan.variants] == [
        "standard", "targetkt", "rootkt", "powerkt(a=0.7)", "ktplus(a=0.5)"
    ]
    assert plan.test_functions == ("rkhs_witness", "moment1", "moment2", "cif")


def test_kernel_json_examples_read_as_kernels():
    block, decoder, families = _json_block_after("## Kernel JSON").strip(), json.JSONDecoder(), []
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
