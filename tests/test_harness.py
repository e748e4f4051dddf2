"""Experiment plans, rate fitting, CSV/JSON emission, determinism."""

import csv
import json
import math
import os

import numpy as np
import pytest

from kthin import harness
from kthin import kernels as kn
from kthin.discrepancy import mmd_points
from kthin.harness import (
    ExperimentPlan,
    RateReport,
    Variant,
    fit_loglog,
    records_to_csv,
    resolve_bandwidth,
    run_experiment,
)
from kthin.targets import MogTarget


def small_plan(**overrides):
    base = dict(
        target=MogTarget(4),
        kernel=kn.gauss(2.0),
        variants=(Variant("standard"), Variant("targetkt")),
        sizes=(16, 64, 256),
        replicates=2,
        seed=11,
        metrics=("mmd_input",),
    )
    base.update(overrides)
    return ExperimentPlan(**base)


# ---------------------------------------------------------------------------
# plan validation and serialization
# ---------------------------------------------------------------------------

def test_plan_rejects_non_power_of_four_sizes():
    with pytest.raises(ValueError, match="power of 4"):
        small_plan(sizes=(16, 32))
    for sizes in ((0,), (-16,)):
        with pytest.raises(ValueError, match="power of 4"):
            small_plan(sizes=sizes)
    # a whole-number float reads as its integer, as it does in plan.json
    assert small_plan(sizes=(16.0,)).sizes == (16,)
    assert type(small_plan(sizes=(16.0,)).sizes[0]) is int


def test_plan_json_round_trip():
    plan = small_plan(
        variants=(Variant("standard"), Variant("powerkt", 0.5), Variant("ktplus", 0.7)),
        test_functions=("moment1", "cif"),
        aggregate="median",
        surrogate_size=1024,
    )
    again = ExperimentPlan.from_json(json.dumps(plan.to_json_dict()))
    assert again == plan


def test_plan_json_defaults_and_exact_form():
    # absent keys keep the dataclass defaults, and every field is written
    plan = ExperimentPlan.from_json(
        '{"target": {"kind": "mog"}, "kernel": {"family": "gauss", "params": {"sigma": 2}}}'
    )
    assert plan == ExperimentPlan(target=MogTarget(), kernel=kn.gauss(2.0))
    assert json.dumps(plan.to_json_dict()) == (
        '{"target": {"kind": "mog", "components": 8}, "kernel": {"family": "gauss", '
        '"params": {"sigma": 2.0}, "scale": 1.0}, "variants": [{"name": "standard"}, '
        '{"name": "targetkt"}], "sizes": [16, 64, 256, 1024, 4096], "replicates": 10, '
        '"delta": 0.5, "seed": 0, "bandwidth_rule": "fixed", "aggregate": "mean", '
        '"test_functions": [], "metrics": ["mmd_input", "mmd_surrogate"], '
        '"surrogate_size": 32768}'
    )
    # int and float fields are converted: an integral alpha is written as a
    # float (delta, the plan's own float, lies in (0, 1), so no integer is one)
    again = ExperimentPlan.from_json_dict({**plan.to_json_dict(), "replicates": 2.0,
                                           "variants": [{"name": "powerkt", "alpha": 1}]})
    assert json.dumps(again.to_json_dict()["variants"]) == '[{"name": "powerkt", "alpha": 1.0}]'
    assert again.replicates == 2


@pytest.mark.parametrize("change, named", [
    ({"replicate": 3}, "unknown key 'replicate'"),
    ({"size": [16]}, "unknown key 'size'"),
    ({"kernel": None}, "'family' key"),
    ({"kernel": {"family": "gauss", "params": {"sigma": 1.0}, "scael": 2}}, "unknown key 'scael'"),
    ({"target": {"kind": "mog", "component": 4}}, "unknown key 'component'"),
    ({"target": {"kind": "external"}}, "required key 'path'"),
    ({"variants": [{"alpha": 0.5}]}, "required key 'name'"),
    ({"variants": [{"name": "powerkt", "alhpa": 0.5}]}, "unknown key 'alhpa'"),
    ({"variants": [{"name": ["rootkt"]}]}, "key 'variants'"),
    ({"variants": "standard"}, "key 'variants'"),
    ({"sizes": 16}, "key 'sizes'"),
    ({"sizes": ["16"]}, "key 'sizes'"),
    ({"replicates": None}, "key 'replicates'"),
    ({"seed": [1]}, "key 'seed'"),
    ({"surrogate_size": 0}, "surrogate_size must be >= 1"),
    ({"metrics": ["mmd_inptu"]}, "key 'metrics'.*got 'mmd_inptu'"),
    ({"variants": []}, "at least one variant"),
    ({"sizes": []}, "at least one variant and one size"),
    # a repeated entry would pool its copies into one aggregated row
    ({"sizes": [16, 16, 64]}, "key 'sizes' repeats 16"),
    ({"variants": [{"name": "standard"}, {"name": "standard"}]}, "key 'variants' repeats 'standard'"),
    ({"variants": [{"name": "powerkt", "alpha": 0.5}, {"name": "powerkt", "alpha": 0.5}]},
     "key 'variants' repeats 'powerkt"),
    ({"metrics": ["mmd_input", "mmd_input"]}, "key 'metrics' repeats 'mmd_input'"),
    ({"test_functions": ["moment1", "moment1"]}, "key 'test_functions' repeats 'moment1'"),
])
def test_plan_json_rejects_malformed_specs(change, named):
    obj = {**small_plan().to_json_dict(), **change}
    with pytest.raises(ValueError, match=named):
        ExperimentPlan.from_json_dict(obj)


def test_plan_checks_its_numbers_when_built():
    # delta 1.5 once failed only after the surrogate self-term, replicates
    # 2.5 only in range(), and seed 1.5 and replicates True ran
    for change, named in (({"delta": 1.5}, "delta must lie in"), ({"delta": 0}, "delta must"),
                          ({"seed": 1.5}, "key 'seed': expected an integer, got 1.5"),
                          ({"replicates": 2.5}, "expected an integer, got 2.5"),
                          ({"replicates": True}, "expected an integer, got True"),
                          ({"surrogate_size": False}, "expected an integer, got False")):
        with pytest.raises(ValueError, match=named):
            small_plan(**change)
    assert type(small_plan(replicates=2.0).replicates) is int


def test_plan_json_must_be_an_object_with_target_and_kernel():
    for obj in ([], "plan", None):
        with pytest.raises(ValueError, match="must be a JSON object"):
            ExperimentPlan.from_json_dict(obj)
    full = small_plan().to_json_dict()
    for key in ("target", "kernel"):
        with pytest.raises(ValueError, match=f"required key '{key}'"):
            ExperimentPlan.from_json_dict({k: v for k, v in full.items() if k != key})


def test_variant_validation_and_tags():
    with pytest.raises(ValueError):
        Variant("powerkt")  # alpha required
    with pytest.raises(ValueError):
        Variant("mystery")
    # only the power variants take an alpha: the others would ignore it
    for name in ("standard", "targetkt", "rootkt", "generalized"):
        with pytest.raises(ValueError, match="take none"):
            Variant(name, 0.7)
    # alpha is read as plan.json reads it and checked when the variant is built
    with pytest.raises(ValueError, match="got True"):
        Variant("powerkt", True)
    with pytest.raises(kn.KernelError, match=r"alpha must lie in \[1/2, 1\], got 0.3"):
        Variant("powerkt", 0.3)
    assert Variant("ktplus", 1).alpha == 1.0 and isinstance(Variant("ktplus", 1).alpha, float)
    with pytest.raises(ValueError, match="take none"):
        ExperimentPlan.from_json(json.dumps(
            {**small_plan().to_json_dict(), "variants": [{"name": "rootkt", "alpha": 0.7}]}
        ))
    assert Variant("powerkt", 0.5).tag == "powerkt(a=0.5)"
    assert Variant("rootkt").tag == "rootkt"


def test_bandwidth_rules():
    plan = small_plan(bandwidth_rule="sqrt2d")
    assert resolve_bandwidth(plan).sigma == 2.0  # sqrt(2 * 2) for d = 2
    plan = small_plan(kernel=kn.imq(0.5, 1.0), bandwidth_rule="sqrt2d")
    assert resolve_bandwidth(plan).gamma == pytest.approx(0.5)
    plan = small_plan(bandwidth_rule="median", sizes=(16, 64))
    sigma = resolve_bandwidth(plan).sigma
    assert 1.0 < sigma < 20.0  # plausible pairwise-median for this mixture
    plan2 = small_plan(bandwidth_rule="median", sizes=(16, 64))
    assert resolve_bandwidth(plan2).sigma == sigma  # deterministic
    # every family, scale and shape parameters kept; a sum rescales each part
    for kernel, want in [
        (kn.gauss(1.0, scale=3.0), kn.gauss(2.0, scale=3.0)),
        (kn.laplace(1.0), kn.laplace(2.0)),
        (kn.matern(2.5, 1.0), kn.matern(2.5, 0.5)),
        (kn.imq(0.5, 1.0), kn.imq(0.5, 0.5)),
        (kn.sinc(1.0), kn.sinc(0.5)),
        (kn.bspline(1, 1.0), kn.bspline(1, 0.5)),
        (kn.ktplus_kernel(kn.gauss(1.0), kn.gauss(0.5)),
         kn.kernel_sum(kn.gauss(2.0), kn.gauss(2.0))),
    ]:
        plan = small_plan(kernel=kernel, bandwidth_rule="sqrt2d")
        assert resolve_bandwidth(plan) == want


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_loglog_recovers_exact_line():
    n_out = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    errors = np.exp(1.3) * n_out ** -0.5
    fit = fit_loglog(n_out, errors)
    assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
    assert fit["intercept"] == pytest.approx(1.3, abs=1e-12)
    assert fit["residual_rms"] < 1e-12


def test_injected_exact_line_through_full_pipeline():
    # synthetic records through aggregation and fitting: every cell lies on
    # log err = -0.5 log n_out + c
    plan = small_plan(sizes=(16, 64, 256, 1024), replicates=3)
    records = [
        {
            "variant": variant.tag,
            "n": n,
            "n_out": math.isqrt(n),
            "replicate": rep,
            "metric": "mmd_input",
            "value": 2.0 * math.isqrt(n) ** -0.5,
        }
        for n in plan.sizes
        for rep in range(plan.replicates)
        for variant in plan.variants
    ]
    report = RateReport(plan=plan)
    harness._aggregate(plan, plan.variants, ["mmd_input"], records, report)
    for variant in ("standard", "targetkt"):
        fit = report.fit_for(variant, "mmd_input")
        assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert fit["slope_vs_input_n"] == pytest.approx(-0.25, abs=1e-12)
        assert fit["residual_rms"] < 1e-12


# ---------------------------------------------------------------------------
# real runs
# ---------------------------------------------------------------------------

def test_run_writes_csv_and_report(tmp_path):
    out = str(tmp_path / "exp")
    report = run_experiment(small_plan(), out_dir=out)
    raw = open(os.path.join(out, "raw.csv")).read()
    lines = raw.strip().splitlines()
    assert lines[0] == "variant,n,n_out,replicate,metric,value"
    # 2 variants x 3 sizes x 2 replicates x 1 metric
    assert len(lines) == 1 + 2 * 3 * 2
    blob = json.loads(open(os.path.join(out, "report.json")).read())
    assert set(blob) == {"plan", "rows", "fits", "skipped"}
    assert report.fits  # non-empty


def test_a_report_that_fails_to_serialise_leaves_no_report_file(tmp_path, monkeypatch):
    # report.json was opened before the report was serialised, so this left it empty
    def failing(self):
        raise RuntimeError("serialising failed")

    monkeypatch.setattr(RateReport, "to_json_dict", failing)
    out = tmp_path / "exp"
    with pytest.raises(RuntimeError, match="serialising failed"):
        run_experiment(small_plan(sizes=(16,)), out_dir=str(out))
    assert not (out / "report.json").exists()
    assert not (out / "raw.csv").exists()


def test_an_out_dir_that_is_a_file_fails_before_any_cell(tmp_path, monkeypatch):
    def thinning_fails(*args, **kwargs):
        raise AssertionError("out_dir is made before the first cell")

    monkeypatch.setattr(harness, "target_kt", thinning_fails)
    out = tmp_path / "exp"
    out.write_text("a file")
    with pytest.raises(FileExistsError):
        run_experiment(small_plan(variants=(Variant("targetkt"),)), out_dir=str(out))
    assert out.read_text() == "a file"


def test_raw_rows_and_report_rows_and_fits_keep_their_order(tmp_path):
    # raw.csv: size, replicate, variant, then the plan's metrics in plan order
    # and ierr_* in test-function order; report rows: variant, metric, size
    plan = small_plan(metrics=("mmd_surrogate", "mmd_input"), surrogate_size=256,
                      test_functions=("moment2", "cif"), sizes=(16, 64))
    out = str(tmp_path / "exp")
    report = run_experiment(plan, out_dir=out)
    metrics = ["mmd_surrogate", "mmd_input", "ierr_moment2", "ierr_cif"]
    with open(os.path.join(out, "raw.csv")) as fh:
        raw = [(int(r["n"]), int(r["replicate"]), r["variant"], r["metric"])
               for r in csv.DictReader(fh)]
    assert raw == [(n, rep, v.tag, metric) for n in plan.sizes for rep in range(plan.replicates)
                   for v in plan.variants for metric in metrics]
    with open(os.path.join(out, "report.json")) as fh:
        rows = json.load(fh)["rows"]
    assert [(r["variant"], r["metric"], r["n"], r["n_out"]) for r in rows] == [
        (v.tag, metric, n, math.isqrt(n)) for v in plan.variants for metric in metrics
        for n in plan.sizes]
    assert list(report.fits) == [f"{v.tag}|{metric}" for v in plan.variants for metric in metrics]


def test_replicate_determinism_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(small_plan(), out_dir=a)
    run_experiment(small_plan(), out_dir=b)
    assert open(os.path.join(a, "raw.csv"), "rb").read() == open(
        os.path.join(b, "raw.csv"), "rb"
    ).read()
    assert open(os.path.join(a, "report.json"), "rb").read() == open(
        os.path.join(b, "report.json"), "rb"
    ).read()


def test_report_slopes_match_ols_recomputed_from_csv(tmp_path):
    out = str(tmp_path / "exp")
    report = run_experiment(small_plan(), out_dir=out)
    by_key = {}
    with open(os.path.join(out, "raw.csv")) as fh:
        for row in csv.DictReader(fh):
            key = (row["variant"], row["metric"], int(row["n_out"]))
            by_key.setdefault(key, []).append(float(row["value"]))
    for variant in ("standard", "targetkt"):
        outs = sorted({k[2] for k in by_key if k[0] == variant})
        means = [np.mean(by_key[(variant, "mmd_input", s)]) for s in outs]
        fit = fit_loglog(outs, means)
        assert report.fit_for(variant, "mmd_input")["slope"] == pytest.approx(
            fit["slope"], abs=1e-10
        )


def test_shared_input_across_variants():
    # paired design: both variants see the same sample, so the standard
    # variant's coreset is a deterministic function of (n, rep) alone
    plan_a = small_plan(variants=(Variant("standard"),))
    plan_b = small_plan(variants=(Variant("standard"), Variant("targetkt")))
    rep_a = run_experiment(plan_a)
    rep_b = run_experiment(plan_b)
    assert rep_a.curve("standard", "mmd_input") == rep_b.curve("standard", "mmd_input")


def test_surrogate_metric_and_determinism():
    plan = small_plan(metrics=("mmd_surrogate",), surrogate_size=512, sizes=(16, 64))
    a = run_experiment(plan)
    b = run_experiment(plan)
    assert a.curve("targetkt", "mmd_surrogate") == b.curve("targetkt", "mmd_surrogate")
    assert all(r["mean"] > 0 for r in a.curve("standard", "mmd_surrogate"))


def test_mmd_input_records_match_mmd_points(monkeypatch, tmp_path):
    # mmd_input's cross term is a lookup in the input's row means: each
    # record against the uncached MMD of the coreset it measured
    want = []

    def thin(variant, k, points, cfg, inputs, _inner=harness._thin):
        coreset = _inner(variant, k, points, cfg, inputs)
        want.append(mmd_points(k, points, points[coreset.indices]))
        return coreset

    monkeypatch.setattr(harness, "_thin", thin)
    plan = small_plan(variants=(Variant("standard"), Variant("targetkt"), Variant("rootkt")))
    run_experiment(plan, out_dir=str(tmp_path))
    with open(tmp_path / "raw.csv") as fh:
        got = [float(row["value"]) for row in csv.DictReader(fh)]
    assert len(got) == len(want) == 18
    assert got == pytest.approx(want, rel=1e-12)


def test_integration_error_metrics():
    plan = small_plan(
        metrics=(), test_functions=("moment1", "rkhs_witness", "cif", "moment2")
    )
    report = run_experiment(plan)
    for name in ("moment1", "rkhs_witness", "cif", "moment2"):
        assert report.curve("targetkt", f"ierr_{name}")


def test_unresolvable_variant_skipped_with_warning():
    plan = small_plan(
        kernel=kn.imq(0.5, 2.0),
        variants=(Variant("standard"), Variant("rootkt")),
        sizes=(16, 64),
    )
    with pytest.warns(UserWarning, match="skipping variant rootkt"):
        report = run_experiment(plan)
    assert report.skipped and report.skipped[0]["variant"] == "rootkt"
    assert report.curve("standard", "mmd_input")  # the rest still ran


def test_median_aggregate():
    plan = small_plan(aggregate="median", replicates=3)
    report = run_experiment(plan)
    assert all("median" in r for r in report.rows)


def test_csv_float_formatting():
    text = records_to_csv(
        [{"variant": "v", "n": 16, "n_out": 4, "replicate": 0,
          "metric": "m", "value": 1.0 / 3.0}]
    )
    assert "0.33333333333333331" in text  # 17 significant digits
