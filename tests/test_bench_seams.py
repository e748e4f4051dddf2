"""The library names the benchmark in perfbench/ depends on.

perfbench/spans.py traces layers by rebinding module attributes, and the
study-mog workload counts KT coresets by rebinding `kthin.harness.target_kt`
and `kthin.harness.power_kt`.  A refactor that renames or stops calling one
of them, or moves a name the benchmark imports, breaks the benchmark
without failing any library test.
"""

import ast
import importlib
import pathlib

import kthin.harness
from kthin import discrepancy, thinning
from kthin import kernels as kn
from kthin.harness import ExperimentPlan, Variant, run_experiment
from kthin.targets import MogTarget
from kthin.thinning import ThinningConfig, target_kt

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_boundary_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for owner, attr, _ in spans.BOUNDARIES:
        assert callable(getattr(spans._resolve(owner), attr)), (owner, attr)


def test_harness_calls_front_ends_by_module_name(monkeypatch):
    calls = {"target_kt": 0, "power_kt": 0}
    for name in calls:
        def counting(*args, _fn=getattr(kthin.harness, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(kthin.harness, name, counting)
    plan = ExperimentPlan(
        target=MogTarget(4),
        kernel=kn.gauss(2.0),
        variants=(Variant("standard"), Variant("targetkt"), Variant("rootkt")),
        sizes=(16, 64),
        replicates=2,
        metrics=("mmd_input",),
    )
    run_experiment(plan)
    cells = len(plan.sizes) * plan.replicates
    assert calls == {"target_kt": cells, "power_kt": cells}


def test_split_mog_kernel_traffic_through_the_traced_names(monkeypatch):
    # split-mog-4096's operation, counted where perfbench/spans.py wraps the
    # swap stage's kernel calls (`kthin.discrepancy.gram`) and where the
    # split evaluates its blocks (`kthin.thinning.evaluate`): counts that do
    # not depend on the machine
    sizes = {"gram": [], "evaluate": []}
    for module, name in ((discrepancy, "gram"), (thinning, "evaluate")):
        def counting(*args, _fn=getattr(module, name), _sizes=sizes[name], **kwargs):
            out = _fn(*args, **kwargs)
            _sizes.append(out.size)
            return out

        monkeypatch.setattr(module, name, counting)
    n = 4096
    coreset = target_kt(kn.gauss(2.0), MogTarget(8).sample(n, 1), ThinningConfig(m=6, seed=1))
    accepted = coreset.provenance["accepted_swaps"]
    # the selection's 65 coreset self-terms (one 64 x 64 call each), the
    # cache's cross sums (two 32-point strips against the input), and one
    # input column per slot and per accepted swap
    assert len(sizes["gram"]) == 65 + 2 + 64 + accepted
    assert sum(sizes["gram"]) == (65 + 64 + 64 + accepted) * n
    assert (len(sizes["evaluate"]), sum(sizes["evaluate"])) == (64, 8_519_680)


def test_every_name_the_benchmark_imports_resolves():
    # perfbench/workloads.py imports from kthin at module level, and
    # perfbench/run.py inside probe_layers and family_sweep; a name that
    # moves breaks those only when the benchmark runs
    imported = []
    for script in ("workloads.py", "run.py"):
        tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kthin":
                imported += [(script, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(script, alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "kthin"]
    assert {script for script, _, _ in imported} == {"workloads.py", "run.py"}
    for script, module, name in imported:
        owner = importlib.import_module(module)
        assert name is None or hasattr(owner, name), (script, module, name)
