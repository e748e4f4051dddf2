"""Spec objects built in Python read their fields as plan.json does.

Every spec class calls `kernels._read_fields` when it is built, which reads
each field by its type annotation, so an instance holds plain Python
numbers, strings and tuples and reads back equal through its JSON form, and
a value plan.json would reject fails at construction with a ValueError
naming its key.
"""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kthin import kernels as kn
from kthin.harness import ExperimentPlan, run_experiment
from kthin.targets import (
    ExternalTarget,
    GaussTarget,
    MogTarget,
    fields_from_json,
    fields_to_json,
    target_from_json_dict,
    target_to_json_dict,
)
from kthin.thinning import ThinningConfig, Variant


def small_plan(**change):
    return ExperimentPlan(**{"target": MogTarget(4), "kernel": kn.gauss(2.0), "sizes": (16, 64),
                             "replicates": 2, "seed": 11, "metrics": ("mmd_input",), **change})


@pytest.mark.parametrize("change", [
    {"variants": [Variant("standard"), Variant("targetkt")]},  # once left report.json empty
    {"sizes": (np.int64(16), np.int64(64))},  # once failed writing report.json
], ids=["variants-list", "sizes-numpy"])
def test_python_built_plan_writes_the_report_it_reads_back(tmp_path, change):
    plan = small_plan(**change)
    report = run_experiment(plan, str(tmp_path))
    with open(tmp_path / "report.json") as fh:
        written = json.load(fh)
    assert written == json.loads(json.dumps(report.to_json_dict()))
    assert ExperimentPlan.from_json_dict(written["plan"]) == plan
    assert len(written["rows"]) == 2 * 2  # variants x sizes, one metric


@pytest.mark.parametrize("cls, kwargs", [
    (GaussTarget, {"d": True}),
    (ExternalTarget, {"path": "pts.csv", "burn_in": 1.5}),
    (ExperimentPlan, {"target": MogTarget(4), "kernel": kn.gauss(2.0), "replicates": True}),
], ids=["GaussTarget", "ExternalTarget", "ExperimentPlan"])
def test_spec_numbers_fail_naming_their_key_when_built(cls, kwargs):
    key = list(kwargs)[-1]
    with pytest.raises(ValueError, match=f"^{cls.__name__} spec key '{key}': expected an integer"):
        cls(**kwargs)


PLAN = {"target": MogTarget(4), "kernel": kn.gauss(2.0)}


@pytest.mark.parametrize("cls, kwargs, key", [
    (ExperimentPlan, {**PLAN, "variants": (1, 2)}, "variants"),  # once an AttributeError
    (ExperimentPlan, {**PLAN, "metrics": "mmd_input"}, "metrics"),  # once "unknown metric 'm'"
    (ExperimentPlan, {**PLAN, "target": "mog"}, "target"),  # these once failed only later
    (ExternalTarget, {"path": "x.csv", "format": "tsv"}, "format"),
    (ExperimentPlan, {**PLAN, "aggregate": 5}, "aggregate"),
    (ExperimentPlan, {**PLAN, "test_functions": "cif"}, "test_functions"),
    (ExternalTarget, {"path": 3}, "path"),
], ids=["variants-ints", "metrics-str", "target-str", "format-tsv", "aggregate-int",
        "test-functions-str", "path-int"])
def test_wrong_typed_values_fail_naming_their_key_when_built(cls, kwargs, key):
    with pytest.raises(ValueError, match=f"^{cls.__name__} spec key '{key}': expected"):
        cls(**kwargs)


# a value for each field that has no default
REQUIRED = {"target": MogTarget(4), "kernel": kn.gauss(2.0), "name": "powerkt", "path": "pts.csv"}


@pytest.mark.parametrize("cls", [ThinningConfig, Variant, ExperimentPlan, GaussTarget,
                                 MogTarget, ExternalTarget], ids=lambda cls: cls.__name__)
def test_every_field_annotation_reads_its_default_unchanged(cls):
    # an annotation the reader cannot read, such as dict[str, float], fails here
    hints = kn._type_hints(cls)
    for f in dataclasses.fields(cls):
        value = REQUIRED[f.name] if f.default is dataclasses.MISSING else f.default
        read = kn._read_as(value, hints[f.name])
        assert type(read) is type(value) and read == value, (f.name, hints[f.name])


# ---------------------------------------------------------------------------
# properties: draw values the way Python callers pass them
# ---------------------------------------------------------------------------

def numbers(ints=st.integers(-2, 70), floats=st.floats(-1.0, 2.0)):
    """Python and numpy numbers, whole-number floats, bools, strings, None."""
    return st.one_of(ints, ints.map(float), st.integers(-2, 70).map(np.int64), floats,
                     floats.map(np.float64), floats.map(np.float32), st.booleans(),
                     st.sampled_from(["2", None, float("nan"), float("inf")]))


def sequences(elements, max_size=3):
    """Lists and tuples of the elements."""
    drawn = st.lists(elements, max_size=max_size)
    return st.one_of(drawn, drawn.map(tuple))


VARIANTS = st.one_of(
    st.sampled_from([Variant("standard"), Variant("targetkt"), Variant("powerkt", 0.5)]),
    st.integers(0, 2))
SIZES = st.one_of(sequences(numbers(st.sampled_from([4, 16, 32]))),
                  st.lists(st.sampled_from([4, 16, 64]), max_size=3).map(np.array), st.just("16"))
# each class; the strategies of the keys always drawn, then of those drawn or left out
SPECS = [
    (ThinningConfig, {}, {"m": numbers(), "seed": numbers(st.integers(-2 ** 70, 2 ** 70)),
                          "delta": numbers(),
                          "delta_rule": st.sampled_from(["known_n", "oblivious", "weekly"])}),
    (Variant, {"name": st.just("powerkt"), "alpha": numbers(floats=st.floats(0.4, 1.1))},
     {"split_kernel": st.sampled_from([None, kn.gauss(1.0)])}),
    (ExperimentPlan, {"target": st.sampled_from([MogTarget(4), "mog"]),
                      "kernel": st.just(kn.gauss(2.0))},
     {"variants": st.one_of(sequences(VARIANTS), st.just("standard")), "sizes": SIZES,
      "replicates": numbers(), "delta": numbers(), "seed": numbers(), "surrogate_size": numbers(),
      "metrics": st.one_of(sequences(st.sampled_from(["mmd_input", "mmd_surrogate", "mmd_other"]),
                                     2), st.just("mmd_input")),
      "test_functions": st.one_of(sequences(st.sampled_from(["moment1", "cif", "moment3"]), 2),
                                  st.just("cif"))}),
    (GaussTarget, {}, {"d": numbers()}),
    (MogTarget, {}, {"components": numbers(st.sampled_from([3, 4, 6, 8]))}),
    (ExternalTarget, {"path": st.just("pts.csv")},
     {"format": st.sampled_from(["csv", "bin", "tsv"]), "burn_in": numbers(),
      "holdout_fraction": numbers()}),
]
JSON_FORMS = {
    ThinningConfig: (fields_to_json, lambda obj: fields_from_json(ThinningConfig, obj)),
    Variant: (lambda v: fields_to_json(v, split_kernel=kn.KernelSpec.to_json_dict),
              lambda obj: fields_from_json(Variant, obj, split_kernel=kn.from_json_dict)),
    ExperimentPlan: (ExperimentPlan.to_json_dict, ExperimentPlan.from_json_dict),
    GaussTarget: (target_to_json_dict, target_from_json_dict),
    MogTarget: (target_to_json_dict, target_from_json_dict),
    ExternalTarget: (target_to_json_dict, target_from_json_dict),
}


def plain(value) -> bool:
    """Whether value is what JSON reads: a Python int, float or string (or
    None, or a spec), and a tuple of such values for an array."""
    if isinstance(value, tuple):
        return all(plain(v) for v in value)
    return type(value) in (int, float, str, type(None)) or dataclasses.is_dataclass(value)


def names_a_key(message: str, keys) -> bool:
    """Whether the message names a key, in the singular or with spaces."""
    return any(re.search(r"\b" + key.removesuffix("s").replace("_", "[_ ]") + r"s?\b", message)
               for key in keys)


@pytest.mark.parametrize("cls, always, maybe", SPECS, ids=[s[0].__name__ for s in SPECS])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_python_built_spec_reads_back_through_json_or_names_its_key(cls, always, maybe, data):
    values = data.draw(st.fixed_dictionaries(always, optional=maybe))
    try:
        spec = cls(**values)
    except ValueError as exc:
        assert names_a_key(str(exc), values), f"{exc} names none of {list(values)}"
        return
    assert all(plain(getattr(spec, f.name)) for f in dataclasses.fields(spec)), spec
    write, read = JSON_FORMS[cls]
    assert read(json.loads(json.dumps(write(spec)))) == spec
