"""Samplers, ingestion, test functions, and bandwidth rules."""

import math
import os
import struct

import numpy as np
import pytest

from kthin import kernels as kn
from kthin.targets import (
    ExternalTarget,
    GaussTarget,
    IngestError,
    MOG_MEANS,
    MogTarget,
    ingest,
    make_cif,
    make_rkhs_witness,
    median_heuristic_bandwidth,
    moment1,
    moment2,
    sqrt2d_bandwidth,
    target_from_json_dict,
    target_to_json_dict,
    write_binary,
)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_gauss_sampler_moments():
    # CLT bounds at n = 1e5: means within 0.02, variances within 0.02 of 1
    x = GaussTarget(2).sample(100_000, seed=0)
    assert x.shape == (100_000, 2)
    assert np.all(np.abs(x.mean(axis=0)) < 0.02)
    assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.02)


def test_mog_component_proportions():
    # nearest-mean assignment recovers the component at these separations
    x = MogTarget(8).sample(100_000, seed=1)
    d2 = ((x[:, None, :] - MOG_MEANS[None, :, :]) ** 2).sum(axis=2)
    counts = np.bincount(d2.argmin(axis=1), minlength=8)
    props = counts / len(x)
    assert np.all(np.abs(props - 1.0 / 8.0) < 0.01)


def test_mog_component_counts_validated():
    with pytest.raises(ValueError):
        MogTarget(5)
    for m in (4, 6, 8):
        assert MogTarget(m).sample(10, seed=0).shape == (10, 2)


def test_mog_mean_table():
    assert MOG_MEANS[0].tolist() == [3.0, 3.0]
    assert MOG_MEANS[1].tolist() == [-3.0, 3.0]
    assert MOG_MEANS[7].tolist() == [0.0, -6.0]


def test_sampler_determinism():
    a = MogTarget(4).sample(500, seed=42)
    b = MogTarget(4).sample(500, seed=42)
    assert np.array_equal(a, b)
    c = MogTarget(4).sample(500, seed=43)
    assert not np.array_equal(a, c)
    # a seed that is not an integer is rejected, not truncated
    for target in (MogTarget(4), GaussTarget(2)):
        for seed in (42.7, True, "42"):
            with pytest.raises(ValueError, match="must be integers"):
                target.sample(5, seed=seed)


def test_target_json_round_trip():
    for t in (GaussTarget(3), MogTarget(6), ExternalTarget("/tmp/x.csv", burn_in=5)):
        assert target_from_json_dict(target_to_json_dict(t)) == t
    # absent keys keep the dataclass defaults; int and float fields convert
    assert target_from_json_dict({"kind": "mog"}) == MogTarget()
    ext = target_from_json_dict({"kind": "external", "path": "p.csv", "holdout_fraction": 0})
    assert ext == ExternalTarget("p.csv", holdout_fraction=0.0)
    assert isinstance(ext.holdout_fraction, float)
    assert target_to_json_dict(ext) == {"kind": "external", "path": "p.csv", "format": "csv",
                                        "burn_in": 0, "holdout_fraction": 0.0}


@pytest.mark.parametrize("spec, named", [
    ({"kind": "mog", "component": 4}, "unknown key 'component'"),
    ({"kind": "gauss", "d": 2, "dim": 3}, "unknown key 'dim'"),
    ({"kind": "external"}, "required key 'path'"),
    ({"kind": "gauss", "d": "two"}, "key 'd'"),
    ({"kind": "gauss", "d": [2]}, "key 'd'"),
    ({"kind": "cauchy"}, "'kind' one of"),
    ({"d": 2}, "'kind' one of"),
    (5, "'kind' one of"),
    ([{"kind": "gauss"}], "'kind' one of"),
])
def test_target_json_rejects_malformed_specs(spec, named):
    with pytest.raises(ValueError, match=named):
        target_from_json_dict(spec)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_csv_ingest(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,1\n2,3\n4,5\n")
    data = ingest(str(path))
    assert data.shape == (3, 2)
    assert data[0].tolist() == [0.0, 1.0]


def test_csv_burn_in(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,1\n2,3\n4,5\n")
    data = ingest(str(path), burn_in=1)
    assert data.shape == (2, 2)
    assert data[0].tolist() == [2.0, 3.0]


def test_negative_burn_in_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,1\n2,3\n4,5\n")
    with pytest.raises(IngestError, match="burn_in must be >= 0"):
        ingest(str(path), burn_in=-1)
    with pytest.raises(ValueError, match="burn_in must be >= 0"):
        ExternalTarget(str(path), burn_in=-1)


@pytest.mark.parametrize("d", [0, -1, 2.5, "2"])
def test_gauss_target_dimension_must_be_a_positive_integer(d):
    with pytest.raises(ValueError, match="dimension d must be an integer >= 1"):
        GaussTarget(d)


def test_csv_nan_rejected_with_location(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,1\n2,nan\n4,5\n")
    with pytest.raises(IngestError, match="row 1, column 1"):
        ingest(str(path))


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,1\n2\n")
    with pytest.raises(IngestError, match="expected 2 columns"):
        ingest(str(path))


def test_csv_non_numeric_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,1\nfoo,3\n")
    with pytest.raises(IngestError, match="non-numeric"):
        ingest(str(path))


def test_missing_file_rejected():
    with pytest.raises(IngestError, match="cannot open"):
        ingest("/nonexistent/file.csv")


def test_binary_round_trip(tmp_path):
    path = str(tmp_path / "pts.bin")
    pts = np.random.default_rng(0).normal(size=(37, 4))
    write_binary(path, pts)
    back = ingest(path, format="bin")
    assert np.array_equal(back, pts)


@pytest.mark.parametrize("n, d", [(0, 2), (3, 0)])
def test_binary_without_points_or_coordinates_rejected(tmp_path, n, d):
    path = tmp_path / "pts.bin"
    path.write_bytes(b"KTPS" + struct.pack("<II", n, d))
    with pytest.raises(IngestError, match=rf"at least one point and one coordinate, got shape \({n}, {d}\)"):
        ingest(str(path), format="bin")


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "pts.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(IngestError, match="header"):
        ingest(str(path), format="bin")


def test_external_target_split(tmp_path):
    path = tmp_path / "chain.csv"
    rows = np.arange(40, dtype=float)
    path.write_text("\n".join(str(v) for v in rows) + "\n")
    ext = ExternalTarget(str(path), holdout_fraction=0.5)
    head = ext.sample(10, seed=0)
    tail = ext.holdout(10)
    assert head.max() < 20.0 <= tail.min()  # disjoint halves
    assert head[-1, 0] == 19.0 and tail[-1, 0] == 39.0  # last points kept
    with pytest.raises(IngestError, match="provides"):
        ext.sample(30, seed=0)


def test_external_target_reads_its_file_once(tmp_path, monkeypatch):
    # the harness asks for dim, sample and holdout in every cell of a plan
    import kthin.targets
    from kthin.harness import ExperimentPlan, Variant, run_experiment

    path = tmp_path / "chain.csv"
    path.write_text("\n".join(f"{math.sin(v)},{math.cos(3 * v)}" for v in range(600)) + "\n")
    calls = []

    def counting_ingest(*args, **kwargs):
        calls.append(args)
        return ingest(*args, **kwargs)

    monkeypatch.setattr(kthin.targets, "ingest", counting_ingest)
    plan = ExperimentPlan(
        target=ExternalTarget(str(path)),
        kernel=kn.gauss(1.0),
        variants=(Variant("standard"), Variant("targetkt")),
        sizes=(16, 64),
        replicates=2,
        seed=3,
        metrics=("mmd_input", "mmd_surrogate"),
        test_functions=("moment1", "cif"),
        surrogate_size=128,
    )
    report = run_experiment(plan)
    assert report.rows
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_moment_functions():
    assert moment1()(np.array([3.0, -1.0]))[0] == 3.0
    assert moment2()(np.array([3.0, -1.0]))[0] == 9.0
    # input is read by kernels._as_points: 1-D is n points in d = 1, 3-D is rejected
    with pytest.raises(ValueError, match=r"\(n, d\) array"):
        moment1()(np.zeros((2, 2, 2)))


def test_cif_at_its_center():
    f = make_cif(dim=3, seed=0)
    assert f(f.frozen[None, :])[0] == 1.0
    # hand value: exp(-(1/d) sum |x_j - u_j|)
    x = f.frozen[None, :] + np.array([0.3, -0.6, 0.0])
    assert f(x)[0] == pytest.approx(math.exp(-0.3), rel=1e-12)
    # 1-D input is n points in d = 1, not one point: a dimension mismatch
    with pytest.raises(ValueError, match=r"takes 3-D points, got \(3, 1\)"):
        f(f.frozen)


def test_rkhs_witness_formula_and_freezing():
    f = make_rkhs_witness(kn.gauss(1.0), GaussTarget(2), seed=3)
    g = make_rkhs_witness(kn.gauss(1.0), GaussTarget(2), seed=3)
    assert np.array_equal(f.frozen, g.frozen)  # drawn once per seed
    x = f.frozen[None, :] + np.array([1.0, 1.0])  # |x - X'| = sqrt(2)
    assert f(x)[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_rkhs_witness_is_twice_a_target_draw():
    f = make_rkhs_witness(kn.gauss(1.0), MogTarget(8), seed=5)
    assert f.frozen.shape == (2,)


# ---------------------------------------------------------------------------
# bandwidth rules
# ---------------------------------------------------------------------------

def test_median_heuristic_two_points():
    assert median_heuristic_bandwidth(np.array([[0.0], [5.0]])) == 5.0


def test_median_heuristic_three_collinear():
    # pairwise distances {1, 2, 3} have median 2
    assert median_heuristic_bandwidth(np.array([[0.0], [1.0], [3.0]])) == 2.0


def test_median_heuristic_translation_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3))
    a = median_heuristic_bandwidth(x)
    b = median_heuristic_bandwidth(x + np.array([10.0, -4.0, 2.0]))
    assert a == pytest.approx(b, rel=1e-12)


def test_median_heuristic_subsample_close_to_exact():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5000, 2))
    exact = median_heuristic_bandwidth(x[:4096])
    sampled = median_heuristic_bandwidth(x)
    assert sampled == pytest.approx(exact, rel=0.05)


def test_median_heuristic_needs_two_points():
    with pytest.raises(ValueError):
        median_heuristic_bandwidth(np.zeros((1, 2)))


def test_median_heuristic_reads_input_like_thinning():
    # 1-D input is n points in d = 1; a NaN or inf point is rejected instead
    # of yielding a NaN bandwidth
    assert median_heuristic_bandwidth(np.array([0.0, 1.0, 3.0])) == 2.0
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite input value at row 1, column 0"):
            median_heuristic_bandwidth(np.array([[0.0], [bad], [3.0]]))
    with pytest.raises(ValueError, match=r"\(n, d\) array"):
        median_heuristic_bandwidth(np.zeros((3, 1, 1)))


def test_sqrt2d_rule():
    assert sqrt2d_bandwidth(2) == 2.0
    assert sqrt2d_bandwidth(8) == 4.0
