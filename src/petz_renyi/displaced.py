"""Petz-Renyi relative entropy of displaced thermal states.

The trace argument factorizes over modes, and each mode's factor

    ``tr(rho_j^alpha sigma_j^{1-alpha})
        = sum_{k,l} lam(k,r)^alpha lam(l,s)^{1-alpha} |<l|W(u) k>|^2``

(``u`` the relative displacement) is a Gaussian trace with an elementary
closed form: the diagonal-covariance case of the Petz-Renyi formula of
Seshadreesan, Lami & Wilde, "Renyi relative entropies of quantum Gaussian
states", J. Math. Phys. 59, 072204 (2018), arXiv:1706.09885.  It depends on
the displacement only through ``x = |u|^2``; see ``thermal._mode_log_trace``.
Finiteness for ``alpha > 1`` is decided analytically, never by probing a
sum: support containment (a vacuum mode of sigma must hold the same coherent
state in rho) and the mode-wise threshold of the undisplaced case, which does
not depend on the displacements.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional, Sequence, Tuple

from .states import ModeVector, Record
from .thermal import (
    DivergenceWitness,
    SupportViolation,
    ThresholdResult,
    _d_alpha,
    _gated_exponents,
    alpha_threshold,
    covariance_criterion,
    validate_order,
)

__all__ = [
    "DisplacedThermalSpec",
    "SeriesEstimate",
    "DisplacedEntropyResult",
    "relative_displacement",
    "predict_finiteness",
    "covariance_equivalence",
    "d_alpha_displaced",
    "diagonal_divergence_witness",
]


class DisplacedThermalSpec(Record):
    """A thermal state conjugated by a displacement operator."""

    __slots__ = ("temps", "displacement")

    def __init__(self, temps, displacement: Optional[Sequence[complex]] = None):
        if not isinstance(temps, ModeVector):
            temps = ModeVector(temps)
        if displacement is None:
            disp = (0j,) * len(temps)
        else:
            disp = tuple(complex(z) for z in displacement)
            if not all(map(cmath.isfinite, disp)):
                raise ValueError(f"displacement components must be finite, got {disp}")
        if len(disp) != len(temps):
            raise ValueError(
                f"displacement length {len(disp)} != number of modes {len(temps)}"
            )
        object.__setattr__(self, "temps", temps)
        object.__setattr__(self, "displacement", disp)

    @property
    def n_modes(self) -> int:
        return len(self.temps)

    @property
    def faithful(self) -> bool:
        return all(not math.isinf(t) for t in self.temps)


class SeriesEstimate(Record):
    """Log of the trace argument, in the shape of a truncated-series outcome.

    The closed form is exact: ``tail_bound`` is 0, ``terms_used`` 0 and
    ``converged`` true.  ``log_sum = (alpha-1) D`` (``inf`` on divergence).
    """

    __slots__ = ("log_sum", "tail_bound", "terms_used", "converged")


class DisplacedEntropyResult(Record):
    __slots__ = ("entropy", "series")


def relative_displacement(
    rho: DisplacedThermalSpec, sigma: DisplacedThermalSpec
) -> Tuple[complex, ...]:
    """Elementwise difference of the two displacement vectors."""
    if rho.n_modes != sigma.n_modes:
        raise ValueError(
            f"mode counts differ: {rho.n_modes} vs {sigma.n_modes}"
        )
    return tuple(a - b for a, b in zip(rho.displacement, sigma.displacement))


def predict_finiteness(
    rho: DisplacedThermalSpec, sigma: DisplacedThermalSpec, alpha: float
) -> Tuple[bool, Optional[ThresholdResult]]:
    """Analytic finiteness verdict; independent of the displacements.

    Finite iff ``alpha r_j + (1-alpha) s_j > 0`` for every mode, decided
    exactly (``alpha < alpha*``; the returned threshold is reported, not
    compared); above order one both states must be faithful.  Orders in
    (0,1) are always finite; there the threshold is attached only when
    support containment makes it well defined.
    """
    alpha = validate_order(alpha)
    if alpha > 1.0:
        finite = not _gated_exponents(rho.temps, sigma.temps, alpha)[1]
        return finite, alpha_threshold(rho.temps, sigma.temps)
    try:
        return True, alpha_threshold(rho.temps, sigma.temps)
    except SupportViolation:
        return True, None


def covariance_equivalence(
    rho: DisplacedThermalSpec, sigma: DisplacedThermalSpec, alpha: float
) -> bool:
    """Covariance test on the temperatures; displacement leaves covariance untouched."""
    return covariance_criterion(rho.temps, sigma.temps, alpha)


_WITNESS_SCAN = 1024
_WITNESS_SAMPLE = 16


def diagonal_divergence_witness(
    r: ModeVector, s: ModeVector, u: Sequence[complex], alpha: float
) -> Optional[DivergenceWitness]:
    """Witness divergence through the diagonal subseries of one mode.

    If some mode has ``alpha r + (1-alpha) s <= 0``, its diagonal series terms
    ``e^{-k (alpha r + (1-alpha) s)} |<W(u) k|k>|^2`` do not decay: along the
    Fejer scan indices ``k <= 1024`` the squared element is bounded below by
    ``C^2 / k^{3/4}`` while the exponential factor is nondecreasing.  One
    Laguerre pass yields both the scan and the (at most 16) sampled indices.
    Returns ``None`` when every exponent is positive (the convergent regime).
    Preconditions are those of :func:`covariance_criterion`.
    """
    import numpy as np  # imported here: the closed forms and the CLI never need it

    from .weyl import _fejer_hits, weyl_diag_sequence

    ts, bad = _gated_exponents(r, s, alpha)
    if len(u) != len(r):
        raise ValueError(f"mode counts differ: {len(u)} displacements, {len(r)} modes")
    if not bad:
        return None
    j = min(bad, key=lambda j: ts[j - 1])  # the most negative exponent, first on ties
    expo = ts[j - 1]
    uj = complex(u[j - 1])
    if uj == 0:
        # every diagonal element is 1; sample arbitrary indices
        sample = tuple(2**i for i in range(_WITNESS_SAMPLE))
    else:
        # the sequence refuses a non-finite |u_j|^2 before C is formed.  C is
        # half the Fejer amplitude of the damped element e^{-|u|^2/2} L_k(|u|^2)
        # at the sine floor; keep the hits whose series term has already
        # reached 1, which is all but a short burn-in when the exponent is
        # negative
        diag = np.abs(weyl_diag_sequence(_WITNESS_SCAN, uj))
        c = 1.0 / (2.0 * math.sqrt(2.0 * math.pi * abs(uj)))
        hits = _fejer_hits(diag, c)
        if not hits and c > 1.0:
            # |u_j| below about 2.2e-4 puts the first hit past the scan
            # (k >= c^{8/3}); there every element is near 1: take them all
            hits = list(range(1, _WITNESS_SCAN + 1))
        evident = [k for k in hits if -expo * k + 2.0 * np.log(diag[k]) >= 0.0]
        sample = tuple((evident or hits)[:_WITNESS_SAMPLE])
    return DivergenceWitness(
        kind="diagonal-subseries",
        mode=j,
        detail=(
            f"alpha*r + (1-alpha)*s = {expo} <= 0 for mode {j}; the diagonal "
            "series terms are bounded below along the sampled indices"
        ),
        exponent=expo,
        sample_indices=sample,
    )


def d_alpha_displaced(
    rho: DisplacedThermalSpec, sigma: DisplacedThermalSpec, alpha: float
) -> DisplacedEntropyResult:
    """Petz-Renyi relative entropy between two displaced thermal states.

    Each mode contributes its exact closed-form log trace argument.  For
    ``alpha > 1`` the value is ``inf`` with a support witness when a vacuum
    mode of sigma is not the same coherent state in rho, and with a threshold
    witness when some mode has ``alpha r_j + (1-alpha) s_j <= 0`` (exactly
    ``alpha >= alpha*``).  Raises ``ValueError`` when the value is finite but
    its log trace argument or ``D`` lies beyond double range.
    """
    u = relative_displacement(rho, sigma)
    ent = _d_alpha(rho.temps, sigma.temps, [abs(z) * abs(z) for z in u], alpha)
    log_q = (alpha - 1.0) * ent.value
    return DisplacedEntropyResult(ent, SeriesEstimate(log_q, 0.0, 0, True))
