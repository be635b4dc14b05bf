"""Closed-form Petz-Renyi relative entropy of (displaced) thermal states.

Per mode the trace argument ``tr(rho^alpha sigma^{1-alpha})`` is an
elementary Gaussian closed form, the diagonal-covariance case of the
Petz-Renyi formula of Seshadreesan, Lami & Wilde, "Renyi relative entropies
of quantum Gaussian states", J. Math. Phys. 59, 072204 (2018),
arXiv:1706.09885.  It depends on the displacements only through ``|u_j|^2``,
the squared relative displacement; undisplaced thermal states are the case
``u = 0``.  Finiteness for ``alpha > 1`` is decided analytically from
support containment and the exact sign of each mode's exponent
``t_j = alpha r_j + (1-alpha) s_j`` (``_exponents``), which is the theorem's
``alpha < alpha* = min s_j / (s_j - r_j)`` over ``r_j < s_j``; the rounded
``alpha*`` is reported but decides nothing.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Sequence, Tuple

from .states import (
    _LOG_MAX, DisplacedThermalSpec, ModeVector, Record, _as_modes, _check_lengths, log1mexp,
    relative_displacement,
)

__all__ = [
    "SupportViolation",
    "DivergenceWitness",
    "ExtendedEntropy",
    "DisplacedEntropyResult",
    "ThresholdResult",
    "validate_order",
    "support_contained",
    "alpha_threshold",
    "d_alpha_thermal",
    "d_alpha_displaced",
    "covariance_criterion",
]


class SupportViolation(ValueError):
    """Support of the first state is not contained in that of the second.

    Carries the offending 1-based mode indices (finite in the first state,
    vacuum in the second).
    """

    def __init__(self, modes: Sequence[int]):
        self.modes = tuple(modes)
        super().__init__(
            f"support violation: modes {self.modes} are finite-temperature in the "
            "first state but vacuum in the second"
        )


class DivergenceWitness(Record):
    """Why a computed entropy is infinite.

    ``kind`` is one of ``"support"``, ``"threshold"``,
    ``"diagonal-subseries"``.  ``detail`` states the violated inequality with
    the actual numbers; ``sample_indices`` (diagonal-subseries only) lists
    Fock indices whose diagonal series terms are bounded below by a diverging
    sequence.
    """

    __slots__ = ("kind", "mode", "detail", "exponent", "sample_indices")
    _defaults = {"exponent": None, "sample_indices": ()}


class ExtendedEntropy(Record):
    """Nonnegative entropy value, or ``inf`` together with a witness."""

    __slots__ = ("value", "witness")
    _defaults = {"witness": None}

    def __post_init__(self):
        if math.isinf(self.value) != (self.witness is not None):
            raise ValueError("value is inf iff a divergence witness is present")

    @property
    def finite(self) -> bool:
        return not math.isinf(self.value)


class DisplacedEntropyResult(Record):
    """The entropy.  ``series`` is always ``None``, since the closed form is exact;
    it stays because ``perfbench/workloads.py`` still reads it, accepting ``None``."""

    __slots__ = ("entropy", "series")
    _defaults = {"series": None}


class ThresholdResult(Record):
    """Finiteness threshold ``alpha*`` and the 1-based modes achieving it.

    ``ratios`` maps every 1-based mode ``j`` with finite ``r_j < s_j`` to its
    ratio ``s_j/(s_j - r_j)``; ``alpha*`` is their minimum.
    """

    __slots__ = ("alpha_star", "argmin_modes", "ratios")
    _defaults = {"argmin_modes": (), "ratios": {}}


def validate_order(alpha: float) -> float:
    alpha = float(alpha)
    if not (alpha > 0.0) or alpha == 1.0 or math.isinf(alpha) or math.isnan(alpha):
        raise ValueError(f"order must lie in (0,1) or (1,inf), got {alpha}")
    return alpha


def support_contained(r: ModeVector, s: ModeVector) -> bool:
    """True iff every vacuum mode of the second state is vacuum in the first."""
    r, s = _as_modes(r), _as_modes(s)
    _check_lengths(r, s)
    return not _violating_modes(r, s)


def _violating_modes(r: ModeVector, s: ModeVector) -> Tuple[int, ...]:
    return tuple(
        j + 1
        for j, (rj, sj) in enumerate(zip(r, s))
        if not math.isinf(rj) and math.isinf(sj)
    )


def _threshold_scan(r: ModeVector, s: ModeVector) -> ThresholdResult:
    """The ratio scan of :func:`alpha_threshold`, without its support check."""
    ratios = {
        j + 1: sj / (sj - rj)
        for j, (rj, sj) in enumerate(zip(r, s))
        if not (math.isinf(rj) or math.isinf(sj) or rj >= sj)
    }
    best = min(ratios.values(), default=math.inf)
    argmin = tuple(j for j, ratio in ratios.items() if ratio == best)
    return ThresholdResult(best, argmin, ratios)


def alpha_threshold(r: ModeVector, s: ModeVector) -> ThresholdResult:
    """Threshold ``alpha* = min_j s_j/(s_j - r_j)`` over modes with ``r_j < s_j``.

    The minimum of an empty set is infinity.  Requires support containment;
    raises :class:`SupportViolation` otherwise.
    """
    r, s = _as_modes(r), _as_modes(s)
    _check_lengths(r, s)
    bad = _violating_modes(r, s)
    if bad:
        raise SupportViolation(bad)
    return _threshold_scan(r, s)


# where |a + b| <= _CANCEL_BAND (|a| + |b|) the rounding errors of a and b dominate t,
# and log1mexp(t) needs t to full relative accuracy, so t is formed exactly there
_CANCEL_BAND = 2.0**-4
_NORMAL_MIN = sys.float_info.min


def _exponents(
    r: ModeVector, s: ModeVector, alpha: float
) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
    """Exponents ``t_j = alpha r_j + (1-alpha) s_j`` and the 1-based modes where ``t_j <= 0``.

    The one finiteness decision: with support contained, ``D_alpha`` is finite
    iff no mode has ``t_j <= 0``, i.e. ``alpha < s_j/(s_j - r_j)`` wherever
    ``r_j < s_j``.  Each ``t_j`` has the exact sign, so the sign is the
    verdict.  ``t_j`` is formed exactly within the ``2^-4`` cancellation band,
    below the normal range and where a product overflows, and rounded once;
    elsewhere it is the float sum ``a + b``, a few ulps off (from ``alpha =
    2^53`` on ``1 - alpha`` rounds too).  A mode with a vacuum side gets
    ``inf``: its series has the single term ``k = 0``.  Raises ``ValueError``
    where an exact ``t_j`` is positive but below the normal double range.
    """
    ts = []
    for rj, sj in zip(r, s):
        if math.isinf(rj) or math.isinf(sj):
            ts.append(math.inf)
            continue
        a = alpha * rj
        b = (1.0 - alpha) * sj
        t = a + b
        # below the normal range a product rounds with absolute error, so t may
        # have any error there, even the wrong sign; a nan t lands here too
        if not (abs(t) > _CANCEL_BAND * (abs(a) + abs(b)) and abs(t) >= _NORMAL_MIN):
            # doubles are dyadic rationals: t = num/den exactly, 1 - alpha included
            an, ad = alpha.as_integer_ratio()
            rn, rd = rj.as_integer_ratio()
            sn, sd = sj.as_integer_ratio()
            num = an * rn * sd + (ad - an) * sn * rd
            den = ad * rd * sd
            if num > 0 and num << 1022 < den:
                j = len(ts) + 1
                raise ValueError(
                    f"alpha*r_{j} + (1-alpha)*s_{j} at alpha = {alpha} is positive "
                    "but below the normal double range"
                )
            try:
                t = num / den  # int division rounds correctly
            except OverflowError:
                t = math.inf if num > 0 else -math.inf
        ts.append(t)
    return tuple(ts), tuple(j + 1 for j, t in enumerate(ts) if t <= 0.0)


def _log_expm1(x: float) -> float:
    """``log(e^x - 1)`` for ``x > 0`` without overflow."""
    return x + log1mexp(x)


def _mode_log_trace(r: float, s: float, x: float, alpha: float, t: float) -> float:
    """``log tr(rho_j^alpha sigma_j^{1-alpha})`` for one mode.

    ``x = |u|^2`` is the squared relative displacement and ``t = a + b`` the
    mode's exponent from :func:`_exponents`, with ``a = alpha r`` and
    ``b = (1-alpha) s``:

    ``alpha log(1-e^-r) + (1-alpha) log(1-e^-s) - log(1-e^-t)
      - x (1-e^-a)(1-e^-b) / (1-e^-t)``,

    with vacuum modes (``r`` or ``s`` infinite) taken term by term.  Above
    order one ``1 - e^-b < 0`` and the displacement term is formed in the log
    domain.  The caller has excluded divergent modes (``t <= 0``); ``inf``
    means the value is finite but beyond double range.
    """
    if math.isinf(r) and math.isinf(s):
        return -x  # overlap of two coherent states
    a = alpha * r
    b = (1.0 - alpha) * s
    log_q = alpha * log1mexp(r) + (1.0 - alpha) * log1mexp(s) - log1mexp(t)
    if x == 0.0:
        return log_q
    if alpha < 1.0:
        # each ratio lies in [0, 1]: (1-e^-a)(1-e^-b) <= 1-e^-t
        return log_q - x * (math.expm1(-a) / math.expm1(-t)) * -math.expm1(-b)
    log_d = math.log(x) + log1mexp(a) + _log_expm1(-b) - log1mexp(t)
    return math.inf if log_d > _LOG_MAX else log_q + math.exp(log_d)


def _support_witness(
    r: ModeVector, s: ModeVector, x: Sequence[float]
) -> Optional[DivergenceWitness]:
    """Why ``D_alpha`` diverges at every order above one, or ``None``."""
    bad = _violating_modes(r, s)
    if bad:
        return DivergenceWitness(
            kind="support",
            mode=bad[0],
            detail=f"modes {bad} are finite in rho but vacuum in sigma",
        )
    moved = tuple(
        j + 1
        for j, (rj, sj, xj) in enumerate(zip(r, s, x))
        if math.isinf(rj) and math.isinf(sj) and xj != 0.0
    )
    if moved:
        return DivergenceWitness(
            kind="support",
            mode=moved[0],
            detail=f"modes {moved} are distinct coherent states in rho and sigma",
        )
    return None


def _d_alpha(
    r: ModeVector, s: ModeVector, x: Sequence[float], alpha: float
) -> ExtendedEntropy:
    """``D_alpha`` of displaced thermal states from temperatures and ``x_j = |u_j|^2``.

    Raises ``ValueError`` when the value is finite but ``log q`` or ``D`` lies
    beyond double range.
    """
    alpha = validate_order(alpha)
    _check_lengths(r, s)
    # support decides before any exponent is formed, so a refused exponent cannot hide it
    w = _support_witness(r, s, x) if alpha > 1.0 else None
    if w is not None:
        return ExtendedEntropy(math.inf, w)
    ts, diverging = _exponents(r, s, alpha)
    if diverging:  # above order one only: below it every exponent is positive
        # the diverging mode with the smallest ratio s_j/(s_j-r_j), first on ties
        j = min(diverging, key=lambda j: s[j - 1] / (s[j - 1] - r[j - 1]))
        detail = f"alpha*r_{j} + (1-alpha)*s_{j} = {ts[j - 1]} <= 0 at alpha = {alpha}"
        w = DivergenceWitness(kind="threshold", mode=j, detail=detail)
        return ExtendedEntropy(math.inf, w)
    log_q = sum(
        _mode_log_trace(rj, sj, xj, alpha, tj)
        for rj, sj, xj, tj in zip(r, s, x, ts)
    )
    value = log_q / (alpha - 1.0)
    if not math.isfinite(value):
        raise ValueError(
            f"D_alpha at alpha = {alpha} is finite but beyond double range "
            f"(log trace argument {log_q})"
        )
    return ExtendedEntropy(value)


def d_alpha_thermal(r: ModeVector, s: ModeVector, alpha: float) -> ExtendedEntropy:
    """Petz-Renyi relative entropy between two thermal states.

    The trace argument factorizes into per-mode geometric series, giving

    ``(alpha-1) D = alpha * sum log(1-e^{-r_j})  [finite r_j]
                  + (1-alpha) * sum log(1-e^{-s_j})  [finite s_j]
                  - sum log(1-e^{-(alpha r_j + (1-alpha) s_j)})  [both finite]``

    For ``alpha > 1`` the value is ``inf`` with a support witness when support
    containment fails, and with a threshold witness when some mode has
    ``alpha r_j + (1-alpha) s_j <= 0`` in exact arithmetic, i.e.
    ``alpha >= alpha*`` (the boundary itself diverges: the exponent of the
    geometric series vanishes there).  For ``alpha`` in (0,1) the value is
    always finite; when support containment fails the sum simply loses the
    vanishing terms, which restricts the cross term to modes finite in both.
    Raises ``ValueError`` when a finite value lies beyond double range, and
    where an exponent is positive but below the normal range (``_exponents``).
    """
    r, s = _as_modes(r), _as_modes(s)
    return _d_alpha(r, s, (0.0,) * len(r), alpha)


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


def _gated_exponents(r: ModeVector, s: ModeVector, alpha: float) -> tuple:
    """:func:`_exponents` behind the finiteness tests' one precondition check:
    valid inverse temperatures, an order above one, equal mode counts and
    faithful states."""
    r, s = _as_modes(r), _as_modes(s)
    alpha = validate_order(alpha)
    _check_lengths(r, s)
    if not alpha > 1.0:
        raise ValueError(f"finiteness tests apply to alpha > 1, got {alpha}")
    if not all(map(math.isfinite, (*r, *s))):
        raise ValueError("finiteness tests need faithful (finite-temperature) states")
    return _exponents(r, s, alpha)


def covariance_criterion(r: ModeVector, s: ModeVector, alpha: float) -> bool:
    """Covariance test for finiteness: ``(s_j - r_j) * alpha < s_j`` for all j.

    Equivalent to the strict elementwise inequality between the covariance of
    the normalized ``alpha-1`` power of the second state and that of the
    normalized ``alpha`` power of the first, and to ``alpha r_j + (1-alpha) s_j
    > 0``, which is decided exactly by the same predicate as the entropy's
    verdict, so the two always agree.  Both states must be faithful (all
    inverse temperatures finite), with equal mode counts, and ``alpha > 1``.
    """
    return not _gated_exponents(r, s, alpha)[1]
