"""One path behind every front door: each name of the variant table thins the
same way through `thin`, its Python front-end, `run_experiment` and
`kthin thin`."""

import contextlib
import io
import json

import numpy as np
import pytest

from kthin import harness
from kthin import kernels as kn
from kthin.cli import EXIT_OK, main
from kthin.harness import ExperimentPlan, run_experiment
from kthin.targets import MogTarget
from kthin.thinning import (VARIANTS, ThinningConfig, Variant, baseline_thin, generalized_kt,
                            kt_plus, power_kt, target_kt, thin)

K = kn.gauss(2.0)
SPLIT = kn.laplace(1.0)
LAPLACE_JSON = '{"family": "laplace", "params": {"sigma": 1.0}}'
GAUSS_JSON = '{"family": "gauss", "params": {"sigma": 2.0}}'

# each table name with the settings it runs at, and its Python front-end
CASES = {
    "standard": (Variant("standard"), lambda x, cfg: baseline_thin(len(x), cfg.m)),
    "targetkt": (Variant("targetkt"), lambda x, cfg: target_kt(K, x, cfg).indices),
    "powerkt": (Variant("powerkt", 0.75), lambda x, cfg: power_kt(K, x, cfg, 0.75).indices),
    "ktplus": (Variant("ktplus", 0.5), lambda x, cfg: kt_plus(K, x, cfg, 0.5).indices),
    "rootkt": (Variant("rootkt"), lambda x, cfg: power_kt(K, x, cfg, 0.5).indices),
    "generalized": (Variant("generalized", split_kernel=SPLIT),
                    lambda x, cfg: generalized_kt(SPLIT, K, x, cfg).indices),
}
CLI_FLAGS = {"powerkt": ["--alpha", "0.75"], "ktplus": ["--alpha", "0.5"],
             "generalized": ["--split-kernel", LAPLACE_JSON]}


def test_every_table_name_has_a_case():
    assert sorted(CASES) == sorted(VARIANTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_thin_matches_the_front_end(name):
    variant, front = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name))
    for n, m in ((64, 2), (97, 3), (128, 1)):
        x = rng.normal(size=(n, 2))
        cfg = ThinningConfig(m=m, seed=int(rng.integers(0, 2 ** 32)))
        out = thin(variant, K, x, cfg)
        assert np.array_equal(out.indices, front(x, cfg)), (name, n, m)
        assert out.provenance["variant"] == name


@pytest.mark.parametrize("k", [kn.IdentityPerturbedKernel(K), "gauss"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_a_target_kernel_that_is_not_a_kernelspec_is_rejected(name, k):
    # checked before the variant runs: standard thinning once returned a
    # coreset, and target KT blamed its split kernel
    with pytest.raises(kn.KernelError, match=f"target kernel must be a KernelSpec, got "
                                             f"{type(k).__name__}$"):
        thin(CASES[name][0], k, np.zeros((16, 2)), ThinningConfig(m=2))


def _cli_indices(tmp_path, name, points, cfg, delta):
    src, out = str(tmp_path / "in.csv"), str(tmp_path / "out.csv")
    np.savetxt(src, points, delimiter=",", fmt="%.17g")
    argv = ["thin", "--input", src, "--kernel", GAUSS_JSON, "--variant", name,
            "-m", str(cfg.m), "--seed", str(cfg.seed), "--delta", repr(delta),
            "--out", out, *CLI_FLAGS.get(name, [])]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    with open(str(tmp_path / "out.json"), encoding="utf-8") as fh:
        side = json.load(fh)
    assert side["provenance"]["variant"] == name
    return np.array(side["indices"])


def test_a_study_cell_thins_alike_in_the_harness_and_the_cli(tmp_path, monkeypatch):
    cells = []
    inner = harness._thin

    def recording(variant, k, points, cfg, inputs):
        out = inner(variant, k, points, cfg, inputs)
        cells.append((variant, points, cfg, out.indices))
        return out

    monkeypatch.setattr(harness, "_thin", recording)
    plan = ExperimentPlan(target=MogTarget(4), kernel=K,
                          variants=tuple(variant for variant, _ in CASES.values()),
                          sizes=(16, 64), replicates=1, seed=3, metrics=("mmd_input",))
    report = run_experiment(plan)
    assert not report.skipped and len(cells) == len(CASES) * len(plan.sizes)
    for variant, points, cfg, indices in cells:
        assert np.array_equal(indices, thin(variant, K, points, cfg).indices)
        assert np.array_equal(indices, _cli_indices(tmp_path, variant.name, points, cfg,
                                                    plan.delta)), (variant.tag, len(points))


def test_plan_json_runs_generalized_with_a_split_kernel():
    obj = {"target": {"kind": "mog", "components": 4}, "kernel": json.loads(GAUSS_JSON),
           "variants": [{"name": "generalized", "split_kernel": json.loads(LAPLACE_JSON)}],
           "sizes": [16, 64], "replicates": 1, "metrics": ["mmd_input"]}
    plan = ExperimentPlan.from_json_dict(obj)
    assert plan.variants == (Variant("generalized", split_kernel=SPLIT),)
    assert ExperimentPlan.from_json(json.dumps(plan.to_json_dict())) == plan
    assert [row["variant"] for row in run_experiment(plan).rows] == ["generalized[k=2ca7a45b]"] * 2
    for spec, named in ((dict(obj["variants"][0], split_kernel={"family": "gaus"}), "split_kernel"),
                        ({"name": "generalized"}, "requires an explicit split kernel"),
                        ({"name": "targetkt", "split_kernel": obj["kernel"]}, "takes no split")):
        with pytest.raises(ValueError, match=named):
            ExperimentPlan.from_json_dict({**obj, "variants": [spec]})


def test_a_plan_rejects_a_split_kernel_plan_json_cannot_hold():
    # report.json writes the plan back out, and plan.json has no identity perturbation
    with pytest.raises(ValueError, match="split kernel must be a KernelSpec"):
        ExperimentPlan(target=MogTarget(4), kernel=K, sizes=(16,), variants=(
            Variant("generalized", split_kernel=kn.IdentityPerturbedKernel(K)),))


def test_variants_that_differ_only_in_the_split_kernel_share_a_plan(monkeypatch):
    pairs = [Variant("generalized", split_kernel=kn.laplace(1.0)),
             Variant("generalized", split_kernel=kn.gauss(1.0)),
             Variant("powerkt", split_kernel=kn.imq(0.25, 1.0)),
             Variant("powerkt", split_kernel=kn.imq(0.35, 1.0))]
    seeds = {}
    inner = harness._thin

    def recording(variant, k, points, cfg, inputs):
        seeds[variant.tag, len(points)] = cfg.seed
        return inner(variant, k, points, cfg, inputs)

    monkeypatch.setattr(harness, "_thin", recording)
    plan = ExperimentPlan(target=MogTarget(4), kernel=K, variants=tuple(pairs), sizes=(16, 64),
                          replicates=1, metrics=("mmd_input",))
    rows = run_experiment(plan).rows
    tags = [v.tag for v in pairs]
    assert [row["variant"] for row in rows] == [t for t in tags for _ in plan.sizes]
    assert len(set(tags)) == 4 and len(set(seeds.values())) == 8
    assert not any(c in t for t in tags for c in ",|\n")
    # without an explicit split kernel the tag and seed parts are as before
    assert (Variant("powerkt", 0.75).tag, Variant("powerkt", 0.75)._seed_parts()) == (
        "powerkt(a=0.75)", (2, 750000))
    assert Variant("generalized", split_kernel=kn.IdentityPerturbedKernel(K)).tag.startswith(
        "generalized[k=")
