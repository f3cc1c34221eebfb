"""Public surface: the package re-exports exactly its layer modules' ``__all__``."""

import importlib

import lmg

LAYERS = ("bethe", "circuit", "eigenstates", "errors", "model", "simulator", "vqe")
MODULES = [importlib.import_module(f"lmg.{name}") for name in LAYERS]

PUBLIC = {
    "AngleSet", "Circuit", "ComplexPaironsError", "FockVector", "Gate",
    "IncompleteSolveError", "InvalidArgumentError", "LeakageError", "Level", "LmgError",
    "MeasurementGroup", "ModelParams", "NumericFailureError", "SectorConfig",
    "SingularityError", "SpectralSolution", "StateVector", "UnsupportedRegimeError",
    "VqeOptions", "VqeResult", "apply_hamiltonian", "apply_pair_factor", "benchmark",
    "build_circuit", "build_eigenstate", "control_slot", "eigenvalue", "encode",
    "encoded_expectation", "exact_spectrum", "export_circuit", "fidelity", "import_circuit",
    "linear_angles", "log_angles", "make_params", "objective", "one_hot_output",
    "one_hot_split", "optimize", "pauli_groups", "residual", "run", "sampled_expectation",
    "sampled_expectations", "sector_configs", "sector_spectrum", "solve_bethe", "solve_levels",
}


def test_package_all_is_the_union_of_the_layer_modules_all():
    union = {name for module in MODULES for name in module.__all__}
    assert lmg.__all__ == sorted(union)
    assert union == PUBLIC


def test_no_name_is_declared_by_two_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_each_name_is_defined_where_it_is_declared():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            assert value.__module__ == module.__name__, name
            assert getattr(lmg, name) is value, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from lmg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == lmg.__all__
