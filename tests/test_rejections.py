"""Rejection paths that no other test reaches: each malformed input fails
with its exception type and message, and a CLI case with its exit code."""

import struct

import numpy as np
import pytest

from kthin import kernels as kn
from kthin.cli import EXIT_DATA, main
from kthin.discrepancy import DiscreteMeasure, check_interpolation, gauss_interpolation_triple
from kthin.harness import ExperimentPlan, fit_loglog
from kthin.targets import ExternalTarget, IngestError, MogTarget, ingest
from kthin.thinning import ThinningConfig, baseline_thin, generalized_kt, kt_split, kt_swap

POINTS = np.random.default_rng(0).normal(size=(16, 2))
CFG = ThinningConfig(m=2)
GAUSS = '{"family": "gauss", "params": {"sigma": 1.0}}'


def plan(**change):
    return ExperimentPlan(MogTarget(4), kn.gauss(2.0), sizes=(16,), replicates=1, **change)


def csv_file(tmp_path, text="0,1\n2,3\n"):
    path = tmp_path / "pts.csv"
    path.write_text(text)
    return str(path)


def truncated_bin_file(tmp_path):
    path = tmp_path / "pts.bin"
    path.write_bytes(b"KTPS" + struct.pack("<II", 2, 2) + b"\0" * 24)  # 2 x 2 needs 32
    return str(path)


def interpolation_at(alpha):
    p = DiscreteMeasure(POINTS)
    return check_interpolation(*gauss_interpolation_triple(1.0, 0.75, 2), p, p, alpha=alpha)


# case: (a call on the test's tmp_path; the exception it raises, or for a
# list of CLI arguments the exit code; the message)
REJECTIONS = {
    "cli-input-neither-file-nor-json": (
        lambda tmp: ["thin", "--input", str(tmp / "absent.csv"), "--kernel", GAUSS, "-m", "1",
                     "--out", str(tmp / "c.csv")],
        EXIT_DATA, "is neither an existing file nor a JSON target spec"),
    "plan-bandwidth-rule": (
        lambda tmp: plan(bandwidth_rule="silverman"), ValueError,
        r"^ExperimentPlan spec key 'bandwidth_rule': expected one of \['fixed', 'sqrt2d', "
        r"'median'\], got 'silverman'"),
    "plan-aggregate": (
        lambda tmp: plan(aggregate="mode"), ValueError,
        r"^ExperimentPlan spec key 'aggregate': expected one of \['mean', 'median'\], got 'mode'"),
    "plan-test-function": (
        lambda tmp: plan(test_functions=("moment3",)), ValueError,
        r"^ExperimentPlan spec key 'test_functions': expected one of \[.*\], got 'moment3'"),
    "fit-one-point": (
        lambda tmp: fit_loglog([4.0], [1.0]), ValueError, "need at least two points to fit a rate"),
    "lengthscale-zero": (
        lambda tmp: kn.gauss(1.0).with_lengthscale(0), kn.KernelError,
        "length scale must be finite and > 0, got 0"),
    "power-laplace-without-dim": (
        lambda tmp: kn.power_kernel(kn.laplace(1.0), 0.5), kn.KernelError,
        "power_kernel for laplace needs the point dimension"),
    "power-dim-bool": (
        lambda tmp: kn.power_kernel(kn.laplace(1.0), 0.75, dim=True), kn.KernelError,
        "power_kernel dim must be an integer >= 1, got True"),
    "power-dim-fraction": (
        lambda tmp: kn.power_kernel(kn.laplace(1.0), 0.75, dim=1.5), kn.KernelError,
        "power_kernel dim must be an integer >= 1, got 1.5"),
    "identity-weight-bool": (
        lambda tmp: kn.IdentityPerturbedKernel(kn.gauss(1.0), True), kn.KernelError,
        "identity weight must be finite and positive, got True"),
    "gauss-power-exponent": (
        lambda tmp: kn.gauss_power_exact(1.0, 0.0, 2), kn.KernelError,
        "exponent must be positive, got 0.0"),
    "interpolation-alpha": (
        lambda tmp: interpolation_at(0.3), kn.KernelError,
        r"alpha must lie in \[1/2, 1\], got 0.3"),
    "measure-weights-shape": (
        lambda tmp: DiscreteMeasure(POINTS, np.full(3, 1 / 3)), ValueError,
        r"weights shape \(3,\) does not match 16 points"),
    "holdout-fraction-one": (
        lambda tmp: ExternalTarget("pts.csv", holdout_fraction=1.0), ValueError,
        r"holdout_fraction must be in \[0, 1\), got 1.0"),
    "holdout-fraction-negative": (
        lambda tmp: ExternalTarget("pts.csv", holdout_fraction=-0.1), ValueError,
        r"holdout_fraction must be in \[0, 1\), got -0.1"),
    "holdout-at-fraction-zero": (
        lambda tmp: ExternalTarget(csv_file(tmp), holdout_fraction=0.0).holdout(1), IngestError,
        "no held-out rows: holdout_fraction is 0"),
    "ingest-unknown-format": (
        lambda tmp: ingest(csv_file(tmp), "tsv"), IngestError,
        "unknown format 'tsv'; expected 'csv' or 'bin'"),
    "ingest-burn-in-all-rows": (
        lambda tmp: ingest(csv_file(tmp), burn_in=2), IngestError, "burn_in=2 discards all 2 rows"),
    "ingest-burn-in-bool": (
        lambda tmp: ingest(csv_file(tmp), burn_in=True), IngestError,
        "burn_in must be >= 0 and an integer, got True"),
    "ingest-burn-in-fraction": (
        lambda tmp: ingest(csv_file(tmp), burn_in=1.5), IngestError,
        "burn_in must be >= 0 and an integer, got 1.5"),
    "ingest-empty-csv": (
        lambda tmp: ingest(csv_file(tmp, "\n\n")), IngestError, "no data rows"),
    "ingest-unreadable-bin": (
        lambda tmp: ingest(str(tmp / "absent.bin"), "bin"), IngestError, "cannot open"),
    "ingest-truncated-bin": (
        lambda tmp: ingest(truncated_bin_file(tmp), "bin"), IngestError,
        "expected 44 bytes for 2x2, found 36"),
    "generalized-split-not-a-kernel": (
        lambda tmp: generalized_kt("gauss", kn.gauss(1.0), POINTS, CFG), ValueError,
        "^Variant spec key 'split_kernel': expected KernelSpec or IdentityPerturbedKernel, "
        "got 'gauss'"),
    "kt-split-not-a-kernel": (
        lambda tmp: kt_split("gauss", POINTS, CFG), kn.KernelError,
        "unsupported split kernel type str"),
    "baseline-negative-m": (
        lambda tmp: baseline_thin(16, -1), ValueError, "m must be >= 0, got -1"),
    "swap-no-candidates": (
        lambda tmp: kt_swap(kn.gauss(1.0), POINTS, [], CFG), ValueError,
        "kt_swap needs at least one candidate coreset"),
    "swap-candidate-size": (
        lambda tmp: kt_swap(kn.gauss(1.0), POINTS, [[0, 1, 2]], CFG), ValueError,
        "baseline size 4 does not match candidate size 3"),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_rejection(tmp_path, capsys, case):
    call, error, message = REJECTIONS[case]
    if isinstance(error, int):
        assert main(call(tmp_path)) == error
        assert message in capsys.readouterr().err
    else:
        with pytest.raises(error, match=message):
            call(tmp_path)
