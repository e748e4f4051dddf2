"""Kernel thinning: compress a point sequence into a small coreset whose
empirical measure stays close to the input in maximum mean discrepancy."""

from .kernels import (
    KernelSpec,
    KernelError,
    NoClosedFormPowerError,
    PowerKernelPair,
    IdentityPerturbedKernel,
    bspline,
    from_json as kernel_from_json,
    gauss,
    gram,
    imq,
    kernel_eval,
    kernel_sum,
    ktplus_kernel,
    laplace,
    matern,
    power_kernel,
    sinc,
)
from .discrepancy import (
    DiscreteMeasure,
    SwapCache,
    check_interpolation,
    gauss_interpolation_triple,
    mmd,
    mmd_points,
    mmd_swap_delta,
)
from .thinning import (
    Coreset,
    ThinningConfig,
    Variant,
    baseline_thin,
    generalized_kt,
    get_swap_params,
    kt_plus,
    kt_split,
    kt_swap,
    power_kt,
    target_kt,
    thin,
)
from .targets import (
    ExternalTarget,
    GaussTarget,
    IngestError,
    MogTarget,
    TestFunction,
    ingest,
    make_cif,
    make_rkhs_witness,
    median_heuristic_bandwidth,
    moment1,
    moment2,
    write_binary,
)
from .harness import (
    ExperimentPlan,
    RateReport,
    fit_loglog,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
