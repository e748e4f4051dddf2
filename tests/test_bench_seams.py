"""The library names the benchmark in perfbench/ depends on.

perfbench/spans.py traces layers by rebinding module attributes, and the
study-mog workload counts KT coresets by rebinding `kthin.harness.target_kt`
and `kthin.harness.power_kt`.  A refactor that renames or stops calling one
of them breaks the benchmark without failing any library test.
"""

import importlib
import pathlib

import kthin.harness
from kthin import kernels as kn
from kthin.harness import ExperimentPlan, Variant, run_experiment
from kthin.targets import MogTarget

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
