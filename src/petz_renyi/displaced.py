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

from .states import ModeVector, Record, _check_lengths
from .thermal import DivergenceWitness, _d_alpha, _gated_exponents

__all__ = [
    "DisplacedThermalSpec",
    "DisplacedEntropyResult",
    "relative_displacement",
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
        _check_lengths(disp, temps)
        object.__setattr__(self, "temps", temps)
        object.__setattr__(self, "displacement", disp)

    @property
    def faithful(self) -> bool:
        return all(not math.isinf(t) for t in self.temps)


class DisplacedEntropyResult(Record):
    """The entropy.  ``series`` is always ``None``, since the closed form is exact;
    it stays because ``perfbench/workloads.py`` still reads it, accepting ``None``."""

    __slots__ = ("entropy", "series")
    _defaults = {"series": None}


def relative_displacement(
    rho: DisplacedThermalSpec, sigma: DisplacedThermalSpec
) -> Tuple[complex, ...]:
    """Elementwise difference of the two displacement vectors."""
    _check_lengths(rho.temps, sigma.temps)
    return tuple(a - b for a, b in zip(rho.displacement, sigma.displacement))


_WITNESS_SCAN = 1024
_WITNESS_SAMPLE = 16
_WITNESS_REACH = 2**20  # caps x/4: the recurrence climbs from k = 0 to the scan


def diagonal_divergence_witness(
    r: ModeVector, s: ModeVector, u: Sequence[complex], alpha: float
) -> Optional[DivergenceWitness]:
    """Witness divergence through the diagonal subseries of one mode.

    If some mode has ``alpha r + (1-alpha) s <= 0``, its diagonal series terms
    ``e^{-k (alpha r + (1-alpha) s)} |<W(u) k|k>|^2`` do not decay: along the
    Fejer scan indices the squared element is bounded below by ``C^2 /
    k^{3/4}`` while the exponential factor is nondecreasing.  The scan covers
    1,024 indices from ``max(1, floor(x/4) - 64)``, ``x = |u_j|^2``, since the
    oscillation of ``L_k(x)`` begins near ``k = x/4``; one Laguerre pass
    yields both the scan and the (at most 16) sampled indices.  Returns
    ``None`` when every exponent is positive (the convergent regime).  Raises
    ``ValueError`` where ``x/4 > 2^20`` (``|u_j| > 2048``) and where the scan
    holds no hit, so the sample is never empty.  Preconditions are those of
    :func:`covariance_criterion`.
    """
    # imported here: the closed forms never run the Laguerre recurrence
    from .weyl import _diag_window, _fejer_hits, _squared_modulus

    ts, bad = _gated_exponents(r, s, alpha)
    _check_lengths(u, r)
    if not bad:
        return None
    j = min(bad, key=lambda j: ts[j - 1])  # the most negative exponent, first on ties
    expo = ts[j - 1]
    uj = complex(u[j - 1])
    if uj == 0:
        # every diagonal element is 1; sample arbitrary indices
        sample = tuple(2**i for i in range(_WITNESS_SAMPLE))
    else:
        # |u_j|^2 is checked finite before C is formed.  C is half the Fejer
        # amplitude of the damped element e^{-|u|^2/2} L_k(|u|^2) at the sine
        # floor; keep the hits whose series term has already reached 1, which
        # is all but a short burn-in when the exponent is negative
        x = _squared_modulus(uj)
        if not x / 4.0 <= _WITNESS_REACH:
            raise ValueError(f"|u| = {abs(uj)} puts the Laguerre oscillation beyond k = 2^20")
        lo = max(1, math.floor(x / 4.0) - 64)
        window = list(_diag_window(x, lo, lo + _WITNESS_SCAN - 1))
        c = 1.0 / (2.0 * math.sqrt(2.0 * math.pi * abs(uj)))
        hits = _fejer_hits(window, x, c)
        if not hits and c > 1.0:
            # |u_j| below about 2.2e-4 puts the first hit past the scan
            # (k >= c^{8/3}); there every element is near 1: take them all
            hits = _fejer_hits(window, x, 0.0)
        if not hits:
            raise ValueError(f"no Fejer hit among the scanned indices at |u| = {abs(uj)}")
        evident = [(k, mag) for k, mag in hits if -expo * k + 2.0 * math.log(mag) >= 0.0]
        sample = tuple(k for k, _ in (evident or hits)[:_WITNESS_SAMPLE])
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
    ``alpha >= alpha*``); ``series`` is ``None``.  Raises ``ValueError`` when
    the value is finite but its log trace argument or ``D`` lies beyond double
    range, or an exponent is positive but below the normal range.
    """
    x = [abs(z) * abs(z) for z in relative_displacement(rho, sigma)]
    return DisplacedEntropyResult(_d_alpha(rho.temps, sigma.temps, x, alpha))
