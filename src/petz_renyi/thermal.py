"""Closed-form Petz-Renyi relative entropy of (displaced) thermal states.

Per mode the trace argument ``tr(rho^alpha sigma^{1-alpha})`` is an
elementary Gaussian closed form that depends on the displacements only
through ``|u_j|^2``, the squared relative displacement; undisplaced thermal
states are the case ``u = 0``.  Finiteness for ``alpha > 1`` is decided
analytically from support containment and the exact sign of each mode's
exponent ``t_j = alpha r_j + (1-alpha) s_j`` (``_exponents``), which is the
theorem's ``alpha < alpha* = min s_j / (s_j - r_j)`` over ``r_j < s_j``;
the rounded ``alpha*`` is reported but decides nothing.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from .states import ModeVector, Record, log1mexp

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


def _check_lengths(r: ModeVector, s: ModeVector) -> None:
    if len(r) != len(s):
        raise ValueError(f"mode counts differ: {len(r)} vs {len(s)}")


def support_contained(r: ModeVector, s: ModeVector) -> bool:
    """True iff every vacuum mode of the second state is vacuum in the first."""
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
    _check_lengths(r, s)
    bad = _violating_modes(r, s)
    if bad:
        raise SupportViolation(bad)
    return _threshold_scan(r, s)


# t is formed exactly where |t| <= _EXACT_BAND (|alpha r| + |(1-alpha) s|): far wider
# than the float sum's few-ulp error, since log1mexp(t) needs t to full relative accuracy
_EXACT_BAND = 2.0**-20
# where |a + b| <= _CANCEL_BAND (|a| + |b|), a + b is exact but the errors of a and b dominate
_CANCEL_BAND = 2.0**-4
_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves


def _product_error(x: float, y: float, p: float) -> float:
    """The exact ``x*y - p`` for ``p = fl(x*y)`` (Dekker's TwoProduct, without fma)."""
    cx, cy = _SPLITTER * x, _SPLITTER * y
    xh, yh = cx - (cx - x), cy - (cy - y)
    xl, yl = x - xh, y - yh
    return ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _exponents(
    r: ModeVector, s: ModeVector, alpha: float
) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
    """Exponents ``t_j = alpha r_j + (1-alpha) s_j`` and the 1-based modes where ``t_j <= 0``.

    The one finiteness decision: with support contained, ``D_alpha`` is finite
    iff no mode has ``t_j <= 0``, i.e. ``alpha < s_j/(s_j - r_j)`` wherever
    ``r_j < s_j``.  Each ``t_j`` is its exact value rounded once, so its sign
    is the exact verdict.  A mode with a vacuum side gets ``inf``: its series
    has the single term ``k = 0``.
    """
    ts = []
    for rj, sj in zip(r, s):
        if math.isinf(rj) or math.isinf(sj):
            ts.append(math.inf)
            continue
        a = alpha * rj
        b = (1.0 - alpha) * sj
        t = a + b
        if not abs(t) > _CANCEL_BAND * (abs(a) + abs(b)):  # a nan t too
            # a + b is exact (Sterbenz); adding both products' exact low parts leaves
            # one rounding in t (nan if a split overflows: the exact branch takes it)
            t += _product_error(alpha, rj, a) + _product_error(1.0 - alpha, sj, b)
            if not math.isfinite(t) or abs(t) <= _EXACT_BAND * (abs(a) + abs(b)):
                # doubles are dyadic rationals, so t is formed exactly, also where
                # a product overflowed.  Imported here: inputs off the boundary never
                # need it, and a module-level import would add milliseconds to every
                # CLI process
                from fractions import Fraction

                fa = Fraction(alpha)
                exact = fa * Fraction(rj) + (1 - fa) * Fraction(sj)
                try:
                    t = float(exact)
                except OverflowError:
                    t = math.inf if exact > 0 else -math.inf
        ts.append(t)
    return tuple(ts), tuple(j + 1 for j, t in enumerate(ts) if t <= 0.0)


# log of the largest double: a trace argument beyond it is finite but unrepresentable
_LOG_MAX = math.log(1.7976931348623157e308)


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


def _divergence_witness(
    r: ModeVector, s: ModeVector, x: Sequence[float], alpha: float, exponents: tuple
) -> Optional[DivergenceWitness]:
    """Why ``D_alpha`` diverges for ``alpha > 1``, or ``None`` when it is finite.

    ``exponents`` is ``_exponents(r, s, alpha)``.
    """
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
    ts, diverging = exponents
    if not diverging:
        return None
    # the diverging mode with the smallest ratio s_j/(s_j-r_j), first on ties
    j = min(diverging, key=lambda j: s[j - 1] / (s[j - 1] - r[j - 1]))
    return DivergenceWitness(
        kind="threshold",
        mode=j,
        detail=f"alpha*r_{j} + (1-alpha)*s_{j} = {ts[j - 1]} <= 0 at alpha = {alpha}",
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
    exponents = _exponents(r, s, alpha)
    if alpha > 1.0:
        w = _divergence_witness(r, s, x, alpha, exponents)
        if w is not None:
            return ExtendedEntropy(math.inf, w)
    log_q = sum(
        _mode_log_trace(rj, sj, xj, alpha, tj)
        for rj, sj, xj, tj in zip(r, s, x, exponents[0])
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
    Raises ``ValueError`` when a finite value lies beyond double range.
    """
    return _d_alpha(r, s, (0.0,) * len(r), alpha)


def _gated_exponents(r: ModeVector, s: ModeVector, alpha: float) -> tuple:
    """:func:`_exponents` behind the finiteness tests' one precondition check:
    an order above one, equal mode counts and faithful states."""
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
