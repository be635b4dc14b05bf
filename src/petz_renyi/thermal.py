"""Closed-form Petz-Renyi relative entropy of (displaced) thermal states.

Per mode the trace argument ``tr(rho^alpha sigma^{1-alpha})`` is an
elementary Gaussian closed form that depends on the displacements only
through ``|u_j|^2``, the squared relative displacement; undisplaced thermal
states are the case ``u = 0``.  Finiteness for ``alpha > 1`` is decided
analytically from support containment and the mode-wise threshold
``alpha* = min s_j / (s_j - r_j)`` over modes where ``r_j < s_j``; nothing is
probed numerically to detect divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .states import ModeVector, log1mexp, support_set

__all__ = [
    "SupportViolation",
    "DivergenceWitness",
    "ExtendedEntropy",
    "ThresholdResult",
    "validate_order",
    "support_contained",
    "alpha_threshold",
    "d_alpha_thermal",
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


@dataclass(frozen=True)
class DivergenceWitness:
    """Why a computed entropy is infinite.

    ``kind`` is one of ``"support"``, ``"threshold"``,
    ``"diagonal-subseries"``.  ``detail`` states the violated inequality with
    the actual numbers; ``sample_indices`` (diagonal-subseries only) lists
    Fock indices whose diagonal series terms are bounded below by a diverging
    sequence.
    """

    kind: str
    mode: Optional[int]
    detail: str
    exponent: Optional[float] = None
    sample_indices: Tuple[int, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class ExtendedEntropy:
    """Nonnegative entropy value, or ``inf`` together with a witness."""

    value: float
    witness: Optional[DivergenceWitness] = None

    def __post_init__(self):
        if math.isinf(self.value) != (self.witness is not None):
            raise ValueError("value is inf iff a divergence witness is present")

    @property
    def finite(self) -> bool:
        return not math.isinf(self.value)


@dataclass(frozen=True)
class ThresholdResult:
    """Finiteness threshold ``alpha*`` and the 1-based modes achieving it.

    ``ratios`` maps every 1-based mode ``j`` with finite ``r_j < s_j`` to its
    ratio ``s_j/(s_j - r_j)``; ``alpha*`` is their minimum.
    """

    alpha_star: float
    argmin_modes: Tuple[int, ...] = field(default_factory=tuple)
    ratios: Dict[int, float] = field(default_factory=dict)


def validate_order(alpha: float) -> float:
    alpha = float(alpha)
    if not (alpha > 0.0) or alpha == 1.0 or math.isinf(alpha) or math.isnan(alpha):
        raise ValueError(f"order must lie in (0,1) or (1,inf), got {alpha}")
    return alpha


def _check_lengths(r: ModeVector, s: ModeVector) -> None:
    if len(r) != len(s):
        raise ValueError(f"mode counts differ: {len(r)} vs {len(s)}")


def support_contained(r: ModeVector, s: ModeVector) -> bool:
    """True iff every vacuum mode of the second state is vacuum in the first."""
    _check_lengths(r, s)
    return support_set(r) <= support_set(s)


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
    _check_lengths(r, s)
    bad = _violating_modes(r, s)
    if bad:
        raise SupportViolation(bad)
    return _threshold_scan(r, s)


# log of the largest double: a trace argument beyond it is finite but unrepresentable
_LOG_MAX = math.log(1.7976931348623157e308)


def _log_expm1(x: float) -> float:
    """``log(e^x - 1)`` for ``x > 0`` without overflow."""
    return x + log1mexp(x)


def _mode_log_trace(r: float, s: float, x: float, alpha: float) -> float:
    """``log tr(rho_j^alpha sigma_j^{1-alpha})`` for one mode.

    ``x = |u|^2`` is the squared relative displacement.  With ``a = alpha r``,
    ``b = (1-alpha) s`` and ``t = a + b``,

    ``alpha log(1-e^-r) + (1-alpha) log(1-e^-s) - log(1-e^-t)
      - x (1-e^-a)(1-e^-b) / (1-e^-t)``,

    with vacuum modes (``r`` or ``s`` infinite) taken term by term.  Above
    order one ``1 - e^-b < 0`` and the displacement term is formed in the log
    domain.  The caller has excluded divergent modes; ``inf`` means the value
    is finite but beyond double range.
    """
    if math.isinf(r) and math.isinf(s):
        return -x  # overlap of two coherent states
    a = alpha * r
    b = (1.0 - alpha) * s
    t = a + b
    if not (t > 0.0):
        # alpha < alpha* by less than t resolves in double precision (happens
        # at the last ulp below alpha*): -log(1-e^-t) is then out of reach
        return math.inf
    log_q = alpha * log1mexp(r) + (1.0 - alpha) * log1mexp(s) - log1mexp(t)
    if x == 0.0:
        return log_q
    if alpha < 1.0:
        # each ratio lies in [0, 1]: (1-e^-a)(1-e^-b) <= 1-e^-t
        return log_q - x * (math.expm1(-a) / math.expm1(-t)) * -math.expm1(-b)
    log_d = math.log(x) + log1mexp(a) + _log_expm1(-b) - log1mexp(t)
    return math.inf if log_d > _LOG_MAX else log_q + math.exp(log_d)


def _divergence_witness(
    r: ModeVector, s: ModeVector, x: Sequence[float], alpha: float
) -> Optional[DivergenceWitness]:
    """Why ``D_alpha`` diverges for ``alpha > 1``, or ``None`` when it is finite."""
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
    thr = alpha_threshold(r, s)
    if alpha < thr.alpha_star:
        return None
    j = thr.argmin_modes[0]
    return DivergenceWitness(
        kind="threshold",
        mode=j,
        detail=f"alpha = {alpha} >= alpha* = {thr.alpha_star} = s_{j}/(s_{j}-r_{j})",
    )


def _d_alpha(
    r: ModeVector, s: ModeVector, x: Sequence[float], alpha: float
) -> ExtendedEntropy:
    """``D_alpha`` of displaced thermal states from temperatures and ``x_j = |u_j|^2``.

    Raises ``ValueError`` when the value is finite but ``log q`` or ``D`` lies
    beyond double range.
    """
    alpha = validate_order(alpha)
    _check_lengths(r, s)
    if alpha > 1.0:
        w = _divergence_witness(r, s, x, alpha)
        if w is not None:
            return ExtendedEntropy(math.inf, w)
    log_q = sum(_mode_log_trace(rj, sj, xj, alpha) for rj, sj, xj in zip(r, s, x))
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
    containment fails, and with a threshold witness when
    ``alpha >= alpha*`` (the boundary itself diverges: the exponent of the
    geometric series vanishes there).  For ``alpha`` in (0,1) the value is
    always finite; when support containment fails the sum simply loses the
    vanishing terms, which restricts the cross term to modes finite in both.
    Raises ``ValueError`` when a finite value lies beyond double range.
    """
    return _d_alpha(r, s, (0.0,) * len(r), alpha)


def covariance_criterion(r: ModeVector, s: ModeVector, alpha: float) -> bool:
    """Covariance test for finiteness: ``(s_j - r_j) * alpha < s_j`` for all j.

    Equivalent to the strict elementwise inequality between the covariance of
    the normalized ``alpha-1`` power of the second state and that of the
    normalized ``alpha`` power of the first.  Both states must be faithful
    (all inverse temperatures finite) and ``alpha > 1``.
    """
    _check_lengths(r, s)
    if not (alpha > 1.0):
        raise ValueError(f"covariance criterion requires alpha > 1, got {alpha}")
    if any(math.isinf(t) for t in r) or any(math.isinf(t) for t in s):
        raise ValueError("covariance criterion requires faithful (finite) states")
    return all((sj - rj) * alpha < sj for rj, sj in zip(r, s))
