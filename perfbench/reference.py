"""Reference values for the benchmark's correctness checks.

Closed form of the Petz-Renyi trace argument for diagonal-covariance Gaussian
states (Seshadreesan, Lami & Wilde, J. Math. Phys. 59, 072204 (2018),
arXiv:1706.09885), specialised to displaced thermal states.  Per mode, with
``a = alpha*r``, ``b = (1-alpha)*s``, ``t = a + b`` and ``x = |u_rel|^2``,

    log tr_j = alpha*log(1-e^-r) + (1-alpha)*log(1-e^-s) - log(1-e^-t)
               - x (1-e^-a)(1-e^-b) / (1-e^-t)

with the vacuum limits (``r`` or ``s`` infinite) taken term by term.  This
module is written from the formula alone and imports nothing from the
package it checks, so the benchmark can judge every output of the
``thermal`` and ``displaced`` modules without calling them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = [
    "Reference",
    "alpha_star",
    "fejer_indices",
    "log1mexp",
    "mode_log_trace",
    "reference",
    "values_match",
]

INF = math.inf
# log of the largest double: above it a quantity is finite but unrepresentable
LOG_MAX = math.log(1.7976931348623157e308)


def log1mexp(x: float) -> float:
    """``log(1 - e^-x)`` for ``x > 0``, accurate at both ends; 0 for ``x = inf``."""
    if math.isinf(x):
        return 0.0
    if x < math.log(2.0):
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def _log_expm1(x: float) -> float:
    """``log(e^x - 1)`` for ``x > 0`` without overflow."""
    return x + log1mexp(x)


def _exp(x: float) -> float:
    """``e^x``, or ``inf`` beyond double range instead of raising."""
    return INF if x > LOG_MAX else math.exp(x)


def alpha_star(r: Sequence[float], s: Sequence[float]) -> Tuple[float, Tuple[int, ...]]:
    """``min_j s_j/(s_j-r_j)`` over finite modes with ``r_j < s_j``, and its 1-based argmins."""
    best, argmin = INF, []
    for j, (rj, sj) in enumerate(zip(r, s)):
        if math.isinf(rj) or math.isinf(sj) or rj >= sj:
            continue
        ratio = sj / (sj - rj)
        if ratio < best:
            best, argmin = ratio, [j + 1]
        elif ratio == best:
            argmin.append(j + 1)
    return best, tuple(argmin)


def mode_log_trace(r: float, s: float, x: float, alpha: float) -> Optional[float]:
    """Log of one mode's trace argument, or ``None`` when it diverges (``alpha > 1``).

    May return ``inf`` when the value is finite but exceeds double range.
    """
    above = alpha > 1.0
    if math.isinf(s):
        if above:
            # sigma is a pure coherent state on this mode: finite only for the same state
            return 0.0 if (math.isinf(r) and x == 0.0) else None
        if math.isinf(r):
            return -x
        return alpha * log1mexp(r) + x * math.expm1(-alpha * r)
    base = (1.0 - alpha) * log1mexp(s)
    if math.isinf(r):
        # only the vacuum row of rho survives: a Poisson sum in closed form
        beta = (alpha - 1.0) * s
        if x == 0.0:
            return base
        if above:
            return base + _exp(math.log(x) + _log_expm1(beta))
        return base + x * math.expm1(beta)
    a = alpha * r
    b = (1.0 - alpha) * s
    t = a + b
    if not (t > 0.0):
        return None
    base += alpha * log1mexp(r) - log1mexp(t)
    if x == 0.0:
        return base
    if above:
        # (1-e^-b) = -(e^{(alpha-1)s} - 1): the displacement term is positive
        log_d = math.log(x) + log1mexp(a) + _log_expm1(-b) - log1mexp(t)
        return base + _exp(log_d)
    log_d = math.log(x) + log1mexp(a) + log1mexp(b) - log1mexp(t)
    return base - math.exp(log_d)


@dataclass(frozen=True)
class Reference:
    """Expected outcome of one evaluation.

    ``finite`` is the exact verdict.  ``log_q`` is the log trace argument and
    ``value`` the entropy; both are ``inf`` when the entropy diverges, and also
    when it is finite but beyond double range (``in_range`` is then False).
    """

    finite: bool
    log_q: float
    value: float
    alpha_star: float

    @property
    def in_range(self) -> bool:
        return not math.isinf(self.value)


def reference(
    r: Sequence[float],
    s: Sequence[float],
    u_rel: Sequence[complex],
    alpha: float,
) -> Reference:
    """Exact verdict and closed-form value for the pair of displaced thermal states."""
    a_star, _ = alpha_star(r, s)
    log_q = 0.0
    for rj, sj, uj in zip(r, s, u_rel):
        term = mode_log_trace(rj, sj, abs(uj) ** 2, alpha)
        if term is None:
            return Reference(False, INF, INF, a_star)
        log_q += term
    if math.isinf(log_q):
        return Reference(True, INF, INF, a_star)
    value = log_q / (alpha - 1.0)
    return Reference(True, log_q, value, a_star)


def values_match(got: float, ref: Reference, alpha: float, tol: float = 1e-9) -> bool:
    """Whether an entropy value agrees with the reference.

    Compared as log trace arguments, where a converged evaluation is accurate
    to its series tolerance: ``|(alpha-1) D - log_q| <= tol (1 + |log_q|)``.
    """
    if not ref.in_range or math.isinf(got) or math.isnan(got):
        return False
    return abs((alpha - 1.0) * got - ref.log_q) <= tol * (1.0 + abs(ref.log_q))


def fejer_indices(u: float, j_max: int, exponent: float = 0.375) -> list:
    """Indices ``1 <= j <= j_max`` with ``|<j|W(u)|j>| >= c j^-exponent``, for real ``u``.

    ``<j|W(u)|j> = e^{-u^2/2} L_j(u^2)`` by the Laguerre three-term recurrence,
    with ``c = e^{u^2/2} / (2 sqrt(2 pi |u|))``, half the Fejer amplitude at
    the sine floor.  Plain doubles suffice while ``e^{u^2/2}`` does.
    """
    x = u * u
    c = math.exp(0.5 * x) / (2.0 * math.sqrt(2.0 * math.pi * abs(u)))
    damp = math.exp(-0.5 * x)
    prev, cur = 1.0, 1.0 - x
    out = []
    for j in range(1, j_max + 1):
        if j > 1:
            prev, cur = cur, ((2 * j - 1 - x) * cur - (j - 1) * prev) / j
        if abs(damp * cur) >= c * j**-exponent:
            out.append(j)
    return out
