"""The public names of the package, pinned so an export change is deliberate."""

import inspect

import pytest

import petz_renyi

PUBLIC_NAMES = [
    "DisplacedEntropyResult",
    "DisplacedThermalSpec",
    "DivergenceWitness",
    "ExtendedEntropy",
    "ModeVector",
    "OracleTrace",
    "SeriesEstimate",
    "SineIntervalWitness",
    "SupportViolation",
    "ThresholdResult",
    "alpha_threshold",
    "annihilation_matrix",
    "covariance",
    "covariance_criterion",
    "covariance_equivalence",
    "d_alpha_displaced",
    "d_alpha_thermal",
    "default_fejer_constant",
    "diagonal_divergence_witness",
    "displacement_matrix",
    "fejer_scan",
    "laguerre",
    "log1mexp",
    "oracle_trace",
    "predict_finiteness",
    "relative_displacement",
    "sine_interval_indices",
    "support_contained",
    "thermal_matrix",
    "validate_order",
    "weyl_diag",
    "weyl_diag_sequence",
    "weyl_element",
]

# parameter names of every public function, in order
PUBLIC_SIGNATURES = {
    "alpha_threshold": ("r", "s"),
    "annihilation_matrix": ("n",),
    "covariance": ("s", "alpha"),
    "covariance_criterion": ("r", "s", "alpha"),
    "covariance_equivalence": ("rho", "sigma", "alpha"),
    "d_alpha_displaced": ("rho", "sigma", "alpha"),
    "d_alpha_thermal": ("r", "s", "alpha"),
    "default_fejer_constant": ("u",),
    "diagonal_divergence_witness": ("r", "s", "u", "alpha"),
    "displacement_matrix": ("u", "n"),
    "fejer_scan": ("u", "j_max", "c"),
    "laguerre": ("j", "x"),
    "log1mexp": ("x",),
    "oracle_trace": ("rho", "sigma", "alpha", "n"),
    "predict_finiteness": ("rho", "sigma", "alpha"),
    "relative_displacement": ("rho", "sigma"),
    "sine_interval_indices": ("u", "m_max"),
    "support_contained": ("r", "s"),
    "thermal_matrix": ("s", "n"),
    "validate_order": ("alpha",),
    "weyl_diag": ("j", "u"),
    "weyl_diag_sequence": ("jmax", "u"),
    "weyl_element": ("row", "col", "u"),
}


def test_public_names_are_pinned():
    # submodules are attributes of the package too, but not exports
    public = {
        name
        for name in dir(petz_renyi)
        if not name.startswith("_") and not inspect.ismodule(getattr(petz_renyi, name))
    }
    assert public == set(PUBLIC_NAMES)


def test_every_public_name_imports_from_the_package():
    for name in PUBLIC_NAMES:
        namespace = {}
        exec(f"from petz_renyi import {name}", namespace)
        assert namespace[name] is getattr(petz_renyi, name)


def test_public_signatures_are_pinned():
    functions = {
        name: tuple(inspect.signature(getattr(petz_renyi, name)).parameters)
        for name in PUBLIC_NAMES
        if inspect.isfunction(getattr(petz_renyi, name))
    }
    assert functions == PUBLIC_SIGNATURES


def test_all_lists_the_public_names():
    assert petz_renyi.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from petz_renyi import *", namespace)
    assert {name: namespace[name] for name in PUBLIC_NAMES} == {
        name: getattr(petz_renyi, name) for name in PUBLIC_NAMES
    }


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(petz_renyi, "no_such_name")
    assert not hasattr(petz_renyi, "no_such_name")


def test_package_import_loads_numpy_only_on_demand(fresh_python):
    program = (
        "import sys, petz_renyi\n"
        "assert 'numpy' not in sys.modules, 'import petz_renyi loaded numpy'\n"
        "petz_renyi.d_alpha_thermal\n"
        "assert 'numpy' not in sys.modules, 'the thermal closed form loaded numpy'\n"
        "petz_renyi.oracle_trace\n"
        "assert 'numpy' in sys.modules, 'the oracle did not load numpy'\n"
    )
    proc = fresh_python(program)
    assert proc.returncode == 0, proc.stderr
