"""Petz-Renyi relative entropy of displaced thermal Gaussian states.

Computes the order-``alpha`` relative entropy between n-mode displaced
thermal states, decides finiteness exactly from the mode-wise threshold and
covariance criteria, and cross-validates every closed form against a
truncated-Fock-space brute-force oracle.

Public names are exported lazily (PEP 562): a submodule is imported on first
access to one of its names.  The closed forms need only ``math``, and the
oracle imports numpy inside its functions, so numpy loads on the first oracle
call, not on import.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "states": "DisplacedThermalSpec ModeVector covariance log1mexp relative_displacement",
        "thermal": "DisplacedEntropyResult DivergenceWitness ExtendedEntropy SupportViolation"
        " ThresholdResult alpha_threshold covariance_criterion d_alpha_displaced"
        " d_alpha_thermal support_contained validate_order",
        "weyl": "SineIntervalWitness default_fejer_constant diagonal_divergence_witness"
        " fejer_scan sine_interval_indices",
        "oracle": "OracleTrace displacement_matrix oracle_trace",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups bypass this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
