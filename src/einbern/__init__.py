"""Einstein-product tensor algebra with Bernstein-type concentration
bounds for random tensor sums, plus a Monte Carlo certification lab."""

import os
import sys

# OpenBLAS starts one worker thread per extra CPU when numpy loads.  At
# the matrix sizes einbern solves those workers do no einbern work, yet
# their start-up spin bills CPU to every run; where OpenBLAS does thread,
# one thread was faster (five 400x400 GEMMs on 2 CPUs: 17-24 ms of wall
# time with one thread, 120-140 ms with two).  So numpy loads with one
# BLAS thread, unless the caller set the count or loaded numpy first;
# the variable is removed again, so the environment (and every child
# process) is left as the caller had it.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .algebra import (
    einstein_product,
    einstein_product_reference,
    gen_product_inner,
    gen_product_inner_reference,
    gen_product_outer,
    gen_product_outer_reference,
    hermitian_dilation,
    matricize,
    matricize_general,
    matricize_rows,
    unmatricize,
)
from .bounds import (
    BernsteinReport,
    GeneralVariance,
    Rademacher,
    Subsample,
    SumModel,
    TailBound,
    build_report,
    einstein_second_moment,
    expectation_bound,
    expectation_bound_general,
    format_report,
    format_tail_csv,
    intrinsic_report,
    resolve_theorem,
    tail_bound,
    uniform_bound_L,
    variance_even,
    variance_general,
)
from .config import (
    MAX_MODEL_ENTRIES,
    SCHEMA_VERSION,
    experiment_from_dict,
    load_experiment,
    load_model,
    model_from_dict,
)
from .errors import (
    ApplicabilityError,
    ConvergenceError,
    DomainError,
    EinbernError,
    ModelError,
    NumericalError,
    ShapeError,
    SymmetryError,
)
from .montecarlo import (
    ExpectationCheck,
    ExperimentConfig,
    ExperimentResult,
    TailRow,
    format_results_csv,
    run_experiment,
    sample_sum,
    trial_rng,
)
from .spectral import (
    EigenDecomposition,
    EinsteinEVD,
    ZEigenEstimate,
    e_eigenvalues,
    e_evd,
    e_spectral_norm,
    e_trace,
    gen_spectral_norm,
    is_e_pd,
    is_e_psd,
    sym_eig,
    sym_eigvals,
    top_singular_values,
    z_eigen_max,
)
from .tensor import (
    DEFAULT_TOL,
    Tensor,
    apply_power,
    apply_power_map,
    delinearize,
    e_symmetric_rows,
    format_tensor_text,
    hadamard,
    identity_tensor,
    is_diagonal,
    is_e_symmetric,
    is_fully_symmetric,
    kron_power,
    linearize,
    outer_power,
    parse_tensor_text,
    psd_counterexample_tensor,
    random_e_symmetric,
    random_fully_symmetric,
    random_tensor,
    read_tensor_text,
    transpose_even,
    write_tensor_text,
)

__version__ = "0.1.0"
