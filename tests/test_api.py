"""The public names of the package, pinned so an export change is deliberate."""

import inspect

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
