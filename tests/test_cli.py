"""Command-line interface: subcommands, output files, exit codes."""

import json
import math
import struct
import subprocess
import sys

import numpy as np
import pytest

from kthin.cli import EXIT_CONSTRAINT, EXIT_DATA, EXIT_OK, EXIT_USAGE, main

GAUSS = '{"family": "gauss", "params": {"sigma": 1.0}, "scale": 1.0}'


def write_points(path, points):
    with open(path, "w") as fh:
        for row in np.atleast_2d(points):
            fh.write(",".join(str(v) for v in row) + "\n")


def test_thin_from_file(tmp_path, capsys):
    src = str(tmp_path / "in.csv")
    out = str(tmp_path / "coreset.csv")
    write_points(src, np.random.default_rng(0).normal(size=(32, 2)))
    code = main(["thin", "--input", src, "--kernel", GAUSS,
                 "--variant", "targetkt", "-m", "2", "--seed", "7", "--out", out])
    assert code == EXIT_OK
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "index" and len(lines) == 9
    side = json.loads(open(str(tmp_path / "coreset.json")).read())
    assert side["provenance"]["variant"] == "targetkt"


def test_thin_from_synthetic_target(tmp_path):
    out = str(tmp_path / "c.csv")
    code = main(["thin", "--input", '{"kind": "mog", "components": 8}',
                 "--kernel", GAUSS, "--variant", "ktplus", "--alpha", "0.5",
                 "-m", "2", "--n", "64", "--seed", "3", "--out", out])
    assert code == EXIT_OK
    assert len(open(out).read().strip().splitlines()) == 17


def test_thin_synthetic_requires_n(tmp_path):
    code = main(["thin", "--input", '{"kind": "gauss", "d": 2}',
                 "--kernel", GAUSS, "-m", "1", "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_DATA


def test_thin_generalized_requires_split_kernel(tmp_path):
    src = str(tmp_path / "in.csv")
    write_points(src, np.zeros((8, 1)))
    code = main(["thin", "--input", src, "--kernel", GAUSS,
                 "--variant", "generalized", "-m", "1", "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_CONSTRAINT


@pytest.mark.parametrize("variant, flags", [
    ("targetkt", []),
    ("powerkt", ["--alpha", "0.5"]),
    ("ktplus", ["--alpha", "0.5"]),
    ("generalized", ["--split-kernel", '{"family": "laplace", "params": {"sigma": 1.0}}']),
])
def test_thin_sidecar_names_its_variant(tmp_path, variant, flags):
    src = str(tmp_path / "in.csv")
    write_points(src, np.random.default_rng(2).normal(size=(32, 2)))
    out = str(tmp_path / "c.csv")
    assert main(["thin", "--input", src, "--kernel", GAUSS, "--variant", variant,
                 "-m", "2", "--seed", "5", "--out", out, *flags]) == EXIT_OK
    side = json.loads(open(str(tmp_path / "c.json")).read())
    assert side["provenance"]["variant"] == variant


@pytest.mark.parametrize("variant, flags, named", [
    ("targetkt", ["--alpha", "0.7"], "--alpha"),
    ("targetkt", ["--split-kernel", GAUSS], "--split-kernel"),
    ("targetkt", ["--alpha", "0.5", "--split-kernel", GAUSS], "--alpha or --split-kernel"),
    ("generalized", ["--alpha", "0.5", "--split-kernel", GAUSS], "--alpha"),
])
def test_thin_rejects_flags_the_variant_ignores(tmp_path, capsys, variant, flags, named):
    src = str(tmp_path / "in.csv")
    out = str(tmp_path / "c.csv")
    write_points(src, np.random.default_rng(0).normal(size=(16, 2)))
    code = main(["thin", "--input", src, "--kernel", GAUSS, "--variant", variant,
                 "-m", "1", "--out", out, *flags])
    assert code == EXIT_USAGE
    assert f"--variant {variant} does not use {named}" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("variant, alpha", [("powerkt", "7"), ("ktplus", "0.1")])
def test_thin_rejects_alpha_with_a_split_kernel(tmp_path, capsys, variant, alpha):
    # an explicit split kernel replaces the alpha-power kernel, so alpha is unused
    src = str(tmp_path / "in.csv")
    write_points(src, np.random.default_rng(0).normal(size=(16, 2)))
    code = main(["thin", "--input", src, "--kernel", GAUSS, "--variant", variant, "--alpha", alpha,
                 "--split-kernel", GAUSS, "-m", "1", "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_USAGE
    assert "--split-kernel does not use --alpha" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_powerkernel_dimension_below_one_is_constraint_error(capsys):
    code = main(["powerkernel", "--kernel", '{"family": "laplace", "params": {"sigma": 1.0}}',
                 "--alpha", "0.75", "--dim", "0"])
    assert code == EXIT_CONSTRAINT
    assert "power_kernel dim must be an integer >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("from_file, flags, named", [
    (True, ["--n", "64"], "an --input file does not use --n"),
    (False, ["--n", "64", "--burn-in", "3"], "an --input target spec does not use --burn-in"),
    (False, ["--n", "64", "--format", "csv"], "an --input target spec does not use --format"),
    (False, ["--n", "64", "--format", "bin", "--burn-in", "0"],
     "does not use --format or --burn-in"),
])
def test_thin_rejects_flags_the_input_ignores(tmp_path, capsys, from_file, flags, named):
    src = str(tmp_path / "in.csv")
    write_points(src, np.random.default_rng(0).normal(size=(16, 2)))
    spec = src if from_file else '{"kind": "gauss", "d": 2}'
    code = main(["thin", "--input", spec, "--kernel", GAUSS, "-m", "1",
                 "--out", str(tmp_path / "c.csv"), *flags])
    assert code == EXIT_USAGE
    assert named in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("spec, named", [
    ("5", "'kind' one of"),
    ('["mog"]', "'kind' one of"),
    ('{"kind": "mog", "component": 4}', "unknown key 'component'"),
    ('{"kind": "gauss", "d": null}', "key 'd'"),
])
def test_thin_malformed_target_spec_is_constraint_error(tmp_path, capsys, spec, named):
    code = main(["thin", "--input", spec, "--n", "64", "--kernel", GAUSS, "-m", "1",
                 "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_CONSTRAINT
    assert named in capsys.readouterr().err


def test_thin_zero_dimensional_gauss_target_is_constraint_error(tmp_path, capsys):
    code = main(["thin", "--input", '{"kind": "gauss", "d": 0}', "--n", "8", "--kernel", GAUSS,
                 "-m", "1", "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_CONSTRAINT
    assert "dimension d must be an integer >= 1" in capsys.readouterr().err


def test_thin_negative_kernel_scale_is_constraint_error(tmp_path, capsys):
    kernel = '{"family": "gauss", "params": {"sigma": 1.0}, "scale": -1}'
    code = main(["thin", "--input", '{"kind": "gauss", "d": 2}', "--n", "16", "--kernel", kernel,
                 "-m", "1", "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_CONSTRAINT
    assert "gauss kernel scale must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("kernel, named", [
    ({"family": "gauss", "params": {"sigma": 1.0}, "scale": "2"}, "gauss kernel scale"),
    ({"family": "gauss", "params": {"sigma": 1.0}, "scale": True}, "gauss kernel scale"),
    ({"family": "gauss", "params": {"sigma": True}}, "gauss kernel sigma"),
    ({"family": "bspline", "params": {"beta": True, "gamma": 1.0}}, "bspline kernel beta"),
    ({"family": "bspline", "params": {"beta": 10 ** 400, "gamma": 1.0}}, "bspline kernel beta"),
    ({"family": "sum", "components": [json.loads(GAUSS)], "scale": "3"}, "sum kernel scale"),
    ({"family": "bspline", "params": {"beta": 85, "gamma": 1.0}}, "bspline kernel beta"),
])
def test_thin_non_numeric_kernel_value_is_constraint_error(tmp_path, capsys, kernel, named):
    code = main(["thin", "--input", '{"kind": "gauss", "d": 2}', "--n", "16",
                 "--kernel", json.dumps(kernel), "-m", "1", "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_CONSTRAINT
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("n, d", [(5, 0), (0, 3)])
def test_thin_empty_binary_file_is_data_error(tmp_path, capsys, n, d):
    src = tmp_path / "in.bin"
    src.write_bytes(b"KTPS" + struct.pack("<II", n, d))
    code = main(["thin", "--input", str(src), "--format", "bin", "--kernel", GAUSS,
                 "-m", "1", "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_DATA
    assert f"got shape ({n}, {d})" in capsys.readouterr().err


def test_thin_negative_burn_in_is_data_error(tmp_path, capsys):
    src = str(tmp_path / "in.csv")
    write_points(src, np.arange(8.0).reshape(4, 2))
    code = main(["thin", "--input", src, "--burn-in", "-1", "--kernel", GAUSS,
                 "-m", "1", "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_DATA
    assert "burn_in must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["powerkt", "ktplus"])
def test_thin_power_variants_default_alpha_is_one_half(tmp_path, variant):
    src = str(tmp_path / "in.csv")
    write_points(src, np.random.default_rng(1).normal(size=(32, 2)))
    outputs = []
    for name, flags in (("default", []), ("explicit", ["--alpha", "0.5"])):
        out = str(tmp_path / f"{name}.csv")
        assert main(["thin", "--input", src, "--kernel", GAUSS, "--variant", variant,
                     "-m", "2", "--seed", "4", "--out", out, *flags]) == EXIT_OK
        outputs.append((open(out).read(), open(str(tmp_path / f"{name}.json")).read()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["provenance"]["alpha"] == 0.5


@pytest.mark.parametrize("variant", ["powerkt", "ktplus"])
def test_thin_sidecar_has_no_alpha_beside_a_split_kernel(tmp_path, variant):
    # the explicit split kernel replaces the alpha-power kernel, so the run used no alpha
    src = str(tmp_path / "in.csv")
    write_points(src, np.random.default_rng(3).normal(size=(32, 2)))
    assert main(["thin", "--input", src, "--kernel", GAUSS, "--variant", variant,
                 "--split-kernel", '{"family": "laplace", "params": {"sigma": 1.0}}',
                 "-m", "2", "--out", str(tmp_path / "c.csv")]) == EXIT_OK
    provenance = json.loads(open(str(tmp_path / "c.json")).read())["provenance"]
    assert provenance["variant"] == variant
    assert "alpha" not in provenance


def test_mmd_twelve_digits(tmp_path, capsys):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_points(a, np.array([[0.0]]))
    write_points(b, np.array([[math.sqrt(2.0)]]))
    assert main(["mmd", "--kernel", GAUSS, "--a", a, "--b", b]) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed == "1.12438477296"  # 12 significant digits
    assert float(printed) == pytest.approx(math.sqrt(2 - 2 * math.exp(-1)), abs=1e-11)


def test_mmd_missing_file_is_data_error(tmp_path):
    a = str(tmp_path / "a.csv")
    write_points(a, np.array([[0.0]]))
    assert main(["mmd", "--kernel", GAUSS, "--a", a, "--b", "/no/such.csv"]) == EXIT_DATA


def test_mmd_bad_kernel_is_constraint_error(tmp_path):
    a = str(tmp_path / "a.csv")
    write_points(a, np.array([[0.0]]))
    bad = '{"family": "gauss", "params": {"sigma": -1.0}}'
    assert main(["mmd", "--kernel", bad, "--a", a, "--b", a]) == EXIT_CONSTRAINT


def test_powerkernel_success(capsys):
    code = main(["powerkernel", "--kernel",
                 '{"family": "matern", "params": {"nu": 3.0, "gamma": 1.0}}',
                 "--alpha", "0.5", "--dim", "2"])
    assert code == EXIT_OK
    blob = json.loads(capsys.readouterr().out)
    assert blob["family"] == "matern"
    assert blob["params"]["nu"] == 1.5


def test_powerkernel_constraint_failure(capsys):
    code = main(["powerkernel", "--kernel",
                 '{"family": "laplace", "params": {"sigma": 1.0}}',
                 "--alpha", "0.7", "--dim", "4"])
    assert code == EXIT_CONSTRAINT
    assert "alpha*nu > d/2" in capsys.readouterr().err


def test_experiment_subcommand(tmp_path, capsys):
    plan = {
        "target": {"kind": "mog", "components": 4},
        "kernel": {"family": "gauss", "params": {"sigma": 2.0}},
        "variants": [{"name": "standard"}, {"name": "targetkt"}],
        "sizes": [16, 64],
        "replicates": 2,
        "seed": 5,
        "metrics": ["mmd_input"],
    }
    plan_path = str(tmp_path / "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    out_dir = str(tmp_path / "results")
    assert main(["experiment", "--plan", plan_path, "--out-dir", out_dir]) == EXIT_OK
    assert "slope" in capsys.readouterr().out
    assert json.loads(open(f"{out_dir}/report.json").read())["fits"]


def test_experiment_prints_each_skipped_variant(tmp_path, capsys):
    # imq has no closed-form power kernel, so powerkt is skipped and standard runs
    plan = {
        "target": {"kind": "mog", "components": 4},
        "kernel": {"family": "imq", "params": {"nu": 0.5, "gamma": 2.0}},
        "variants": [{"name": "standard"}, {"name": "powerkt", "alpha": 0.5}],
        "sizes": [16, 64],
        "replicates": 1,
        "metrics": ["mmd_input"],
    }
    plan_path = str(tmp_path / "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    out_dir = str(tmp_path / "results")
    with pytest.warns(UserWarning, match="skipping variant powerkt"):
        assert main(["experiment", "--plan", plan_path, "--out-dir", out_dir]) == EXIT_OK
    skipped = json.loads(open(f"{out_dir}/report.json").read())["skipped"]
    assert [row["variant"] for row in skipped] == ["powerkt(a=0.5)"]
    lines = capsys.readouterr().out.splitlines()
    assert f"skipped powerkt(a=0.5): {skipped[0]['reason']}" in lines
    assert any(line.startswith("standard|mmd_input: slope") for line in lines)


@pytest.mark.parametrize("change, named", [
    ({"kernel": None}, "required key 'kernel'"),
    ({"replicate": 3}, "unknown key 'replicate'"),
    ({"variants": [{"alpha": 0.5}]}, "required key 'name'"),
    ({"target": {"kind": "external"}}, "required key 'path'"),
    ({"kernel": {"family": "gauss", "params": {"sigma": 1.0}, "scael": 2.0}}, "unknown key 'scael'"),
    # numbers are JSON numbers, and an int field takes only whole ones
    ({"target": {"kind": "gauss", "d": 2.5}}, "key 'd': expected an integer, got 2.5"),
    ({"target": {"kind": "gauss", "d": "2"}}, "key 'd': expected an integer, got '2'"),
    ({"target": {"kind": "mog", "components": "8"}}, "key 'components': expected an integer"),
    ({"replicates": 2.9}, "key 'replicates': expected an integer, got 2.9"),
    ({"seed": True}, "key 'seed': expected an integer, got True"),
    ({"delta": "0.5"}, "key 'delta': expected a finite number, got '0.5'"),
    ({"delta": 10 ** 400}, "key 'delta': expected a finite number"),
    ({"variants": [{"name": "powerkt", "alpha": "0.5"}]}, "key 'alpha': expected a finite number"),
    ({"variants": [{"name": "powerkt", "alpha": True}]}, "key 'alpha': expected a finite number"),
    ({"metrics": ["mmd_input", "mmd_input"]}, "key 'metrics' repeats 'mmd_input'"),
    # checked when the plan is read, not after the surrogate self-term
    ({"delta": 1.5}, "delta must lie in"),
    # not at the first cell's ingest, with the data error exit code
    ({"target": {"kind": "external", "path": "pts.csv", "format": "tsv"}},
     "key 'format': expected one of ['csv', 'bin'], got 'tsv'"),
])
def test_experiment_malformed_plan_is_constraint_error(tmp_path, capsys, change, named):
    plan = {
        "target": {"kind": "mog", "components": 4},
        "kernel": {"family": "gauss", "params": {"sigma": 2.0}},
        "sizes": [16],
        "replicates": 1,
        **change,
    }
    plan = {k: v for k, v in plan.items() if v is not None}
    plan_path = str(tmp_path / "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    out_dir = str(tmp_path / "results")
    assert main(["experiment", "--plan", plan_path, "--out-dir", out_dir]) == EXIT_CONSTRAINT
    assert named in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_experiment_negative_burn_in_is_constraint_error(tmp_path, capsys):
    src = str(tmp_path / "chain.csv")
    write_points(src, np.arange(64.0).reshape(32, 2))
    plan = {"target": {"kind": "external", "path": src, "burn_in": -1},
            "kernel": {"family": "gauss", "params": {"sigma": 2.0}}, "sizes": [4]}
    plan_path = str(tmp_path / "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    code = main(["experiment", "--plan", plan_path, "--out-dir", str(tmp_path / "results")])
    assert code == EXIT_CONSTRAINT
    assert "burn_in must be >= 0" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["thin"])  # missing required flags
    assert exc.value.code == 2


def test_console_entry_point(tmp_path):
    # the installed script path end to end
    a = str(tmp_path / "a.csv")
    write_points(a, np.array([[0.0], [1.0]]))
    proc = subprocess.run(
        [sys.executable, "-m", "kthin.cli", "mmd", "--kernel", GAUSS, "--a", a, "--b", a],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"
