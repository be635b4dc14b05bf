"""Petz-Renyi relative entropy of displaced thermal Gaussian states.

Computes the order-``alpha`` relative entropy between n-mode displaced
thermal states, decides finiteness exactly from the mode-wise threshold and
covariance criteria, and cross-validates every closed form against a
truncated-Fock-space brute-force oracle.
"""

from .states import ModeVector, covariance, log1mexp
from .thermal import (
    DivergenceWitness,
    ExtendedEntropy,
    SupportViolation,
    ThresholdResult,
    alpha_threshold,
    covariance_criterion,
    d_alpha_thermal,
    support_contained,
    validate_order,
)
from .weyl import (
    SineIntervalWitness,
    default_fejer_constant,
    fejer_scan,
    laguerre,
    sine_interval_indices,
    weyl_diag,
    weyl_diag_sequence,
    weyl_element,
)
from .displaced import (
    DisplacedEntropyResult,
    DisplacedThermalSpec,
    SeriesEstimate,
    covariance_equivalence,
    d_alpha_displaced,
    diagonal_divergence_witness,
    predict_finiteness,
    relative_displacement,
)
from .oracle import (
    OracleTrace,
    annihilation_matrix,
    displacement_matrix,
    oracle_trace,
    thermal_matrix,
)

__version__ = "0.1.0"
