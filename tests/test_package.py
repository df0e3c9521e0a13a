"""The package namespace: ``einbern`` re-exports its modules' ``__all__``."""

import types

import pytest

import einbern
from einbern import algebra, bounds, config, errors, montecarlo, spectral, tensor

# every name einbern exported before its list became the union of its
# modules' __all__, by the module it was imported from
EXPORTED = {
    algebra: [
        "einstein_product", "einstein_product_reference", "gen_product_inner",
        "gen_product_inner_reference", "gen_product_outer", "gen_product_outer_reference",
        "hermitian_dilation", "matricize", "matricize_general", "matricize_rows",
        "unmatricize",
    ],
    bounds: [
        "BernsteinReport", "Rademacher", "Subsample", "SumModel", "TailBound",
        "build_report", "format_report", "format_tail_csv", "intrinsic_report",
        "resolve_theorem", "uniform_bound_L", "variance_general",
    ],
    config: [
        "MAX_MODEL_ENTRIES", "SCHEMA_VERSION", "experiment_from_dict", "load_experiment",
        "load_model", "model_from_dict",
    ],
    errors: [
        "ApplicabilityError", "ConvergenceError", "DomainError", "EinbernError",
        "ModelError", "NumericalError", "ShapeError", "SymmetryError",
    ],
    montecarlo: [
        "ExpectationCheck", "ExperimentConfig", "ExperimentResult", "TailRow",
        "format_results_csv", "run_experiment",
    ],
    spectral: [
        "EigenDecomposition", "EinsteinEVD", "ZEigenEstimate", "e_eigenvalues", "e_evd",
        "e_spectral_norm", "e_trace", "gen_spectral_norm", "is_e_pd", "is_e_psd",
        "sym_eig", "sym_eigvals", "top_singular_values", "z_eigen_max",
    ],
    tensor: [
        "DEFAULT_TOL", "Tensor", "apply_power", "apply_power_map", "delinearize",
        "e_symmetric_rows", "format_tensor_text", "hadamard", "identity_tensor",
        "is_diagonal", "is_e_symmetric", "is_fully_symmetric", "kron_power", "linearize",
        "outer_power", "parse_tensor_text", "psd_counterexample_tensor",
        "random_e_symmetric", "random_fully_symmetric", "random_tensor",
        "read_tensor_text", "transpose_even", "write_tensor_text",
    ],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items()
                                          for n in names])
def test_each_earlier_export_is_still_its_modules_object(module, name):
    assert name in einbern.__all__
    assert getattr(einbern, name) is getattr(module, name)


def test_the_package_list_is_the_union_of_its_modules_lists():
    assert len(set(einbern.__all__)) == len(einbern.__all__)
    assert set(einbern.__all__) == {n for m in EXPORTED for n in m.__all__}
    assert all(hasattr(einbern, name) for name in einbern.__all__)
    assert {"THEOREMS", "statistic", "stack_statistics", "grid_points"} <= set(einbern.__all__)


def test_a_star_import_binds_only_the_public_names():
    namespace = {}
    exec("from einbern import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(einbern.__all__)
    assert not {"os", "sys", "numpy", "np"} & set(namespace)
    assert not [v for v in namespace.values() if isinstance(v, types.ModuleType)]
