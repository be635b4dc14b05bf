"""Laguerre polynomials and displacement-operator matrix elements.

The diagonal Fock-basis matrix element of the single-mode displacement
operator is ``<j|W(u)|j> = exp(-|u|^2/2) L_j(|u|^2)``; off-diagonal elements
carry an associated Laguerre polynomial.  The Fejer large-degree asymptotic

    ``L_j(x) ~ j^{-1/4} e^{x/2} (pi^2 x)^{-1/4} sin(2 sqrt(j x) + pi/4)``

implies the diagonal elements decay only like ``j^{-1/4}`` along a positive
density of indices, which is what the scan utilities here certify.

All polynomial evaluation uses the upward three-term recurrence.  The direct
binomial sum cancels catastrophically beyond degree ~20 and survives only in
the exact-rational test oracles.  Recurrences carry a separate exponent
register so that degrees and arguments far beyond the overflow range of a
bare double stay usable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "laguerre",
    "weyl_diag",
    "weyl_diag_sequence",
    "weyl_element",
    "SineIntervalWitness",
    "sine_interval_indices",
    "default_fejer_constant",
    "fejer_scan",
]

_RESCALE = 1e250


def laguerre(j: int, x: float) -> float:
    """Laguerre polynomial ``L_j(x)`` for ``x >= 0``."""
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if j < 0:
        raise ValueError(f"degree must be nonnegative, got {j}")
    sign, logabs = _laguerre_sign_log(j, x, m=0)
    if logabs == -math.inf:
        return 0.0
    return sign * math.exp(logabs)


def _laguerre_sign_log(n: int, x: float, m: int = 0) -> Tuple[float, float]:
    """(sign, log|value|) of the associated Laguerre ``L_n^{(m)}(x)``."""
    prev, curr = 1.0, 1.0 + m - x
    if n == 0:
        return 1.0, 0.0
    offset = 0.0
    for j in range(1, n):
        nxt = ((2 * j + 1 + m - x) * curr - (j + m) * prev) / (j + 1)
        prev, curr = curr, nxt
        a = max(abs(prev), abs(curr))
        if a > _RESCALE:
            prev /= a
            curr /= a
            offset += math.log(a)
    if curr == 0.0:
        return 1.0, -math.inf
    return math.copysign(1.0, curr), math.log(abs(curr)) + offset


def _laguerre_seq_sign_log(jmax: int, x: float) -> Tuple[np.ndarray, np.ndarray]:
    """Signs and log magnitudes of ``L_j(x)`` for all ``j <= jmax``."""
    sign = np.ones(jmax + 1)
    logabs = np.zeros(jmax + 1)
    prev, curr = 1.0, 1.0 - x
    offset = 0.0
    if jmax >= 1:
        sign[1] = math.copysign(1.0, curr) if curr != 0.0 else 1.0
        logabs[1] = math.log(abs(curr)) if curr != 0.0 else -math.inf
    for j in range(1, jmax):
        nxt = ((2 * j + 1 - x) * curr - j * prev) / (j + 1)
        prev, curr = curr, nxt
        a = max(abs(prev), abs(curr))
        if a > _RESCALE:
            prev /= a
            curr /= a
            offset += math.log(a)
        if curr == 0.0:
            sign[j + 1] = 1.0
            logabs[j + 1] = -math.inf
        else:
            sign[j + 1] = math.copysign(1.0, curr)
            logabs[j + 1] = math.log(abs(curr)) + offset
    return sign, logabs


def weyl_diag(j: int, u: complex) -> float:
    """Diagonal matrix element ``<j|W(u)|j> = e^{-|u|^2/2} L_j(|u|^2)`` (real)."""
    x = abs(u) ** 2
    sign, logabs = _laguerre_sign_log(j, x, m=0)
    if logabs == -math.inf:
        return 0.0
    return sign * math.exp(logabs - 0.5 * x)


def weyl_diag_sequence(jmax: int, u: complex) -> np.ndarray:
    """``weyl_diag(j, u)`` for all ``j <= jmax`` in one recurrence pass."""
    x = abs(u) ** 2
    sign, logabs = _laguerre_seq_sign_log(jmax, x)
    return sign * np.exp(logabs - 0.5 * x)


def weyl_element(row: int, col: int, u: complex) -> complex:
    """Fock-basis matrix element ``<row|W(u)|col>`` of the displacement operator.

    Closed form via associated Laguerre polynomials; for ``row >= col``

        ``sqrt(col!/row!) u^{row-col} e^{-|u|^2/2} L_col^{(row-col)}(|u|^2)``

    and the adjoint relation ``W(u)^dagger = W(-u)`` supplies the lower
    triangle.  Validated against the dense matrix exponential oracle.
    """
    if row < 0 or col < 0:
        raise ValueError("Fock indices must be nonnegative")
    x = abs(u) ** 2
    if u == 0:
        return 1.0 + 0.0j if row == col else 0.0j
    n, big = (col, row) if row >= col else (row, col)
    m = big - n
    sign, logabs = _laguerre_sign_log(n, x, m=m)
    if logabs == -math.inf:
        return 0.0j
    log_mag = (
        -0.5 * x
        + 0.5 * (math.lgamma(n + 1) - math.lgamma(big + 1))
        + m * math.log(abs(u))
        + logabs
    )
    base = u / abs(u) if row >= col else -u.conjugate() / abs(u)
    return sign * (base**m) * cmath.exp(log_mag)


@dataclass(frozen=True)
class SineIntervalWitness:
    """Integer ``j`` inside the m-th phase interval where ``|sin(2 sqrt(j)|u| + pi/4)| >= 1/sqrt(2)``."""

    m: int
    lo: float
    hi: float
    j: int


def sine_interval_indices(u: complex, m_max: int) -> List[SineIntervalWitness]:
    """One witness index per phase interval of length > 1, for ``m <= m_max``.

    The m-th interval is ``[(m pi / 2|u|)^2, (m pi / 2|u|)^2 + m pi^2/(4|u|^2)
    + pi^2/(16|u|^2)]``; any integer inside it satisfies the sine lower bound.
    Intervals are pairwise disjoint and increasing, so choosing the smallest
    interior integer yields a strictly increasing witness sequence.
    """
    if u == 0:
        raise ValueError("displacement must be nonzero")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    x = abs(u) ** 2
    out: List[SineIntervalWitness] = []
    for m in range(1, m_max + 1):
        lo = (m * math.pi / (2.0 * abs(u))) ** 2
        width = m * math.pi**2 / (4.0 * x) + math.pi**2 / (16.0 * x)
        if width <= 1.0:
            continue
        j = math.floor(lo) + 1
        out.append(SineIntervalWitness(m=m, lo=lo, hi=lo + width, j=j))
    return out


def default_fejer_constant(u: complex) -> float:
    """Half the Fejer main-term amplitude at the sine floor ``1/sqrt(2)``.

    The asymptotic amplitude of ``L_j(|u|^2)`` is ``e^{|u|^2/2} j^{-1/4} /
    sqrt(pi |u|)``; halving it at the sine floor leaves room for the
    ``O(j^{-3/4})`` remainder.
    """
    if u == 0:
        raise ValueError("displacement must be nonzero")
    x = abs(u) ** 2
    return math.exp(0.5 * x) / (2.0 * math.sqrt(2.0 * math.pi * abs(u)))


def fejer_scan(
    u: complex,
    j_max: int,
    c: Optional[float] = None,
    exponent: float = 0.375,
) -> List[int]:
    """Indices ``1 <= j <= j_max`` with ``|<j|W(u)|j>| >= c * j^{-exponent}``.

    With the default constant the qualifying set has positive density, so the
    count keeps growing with ``j_max`` (no saturation).
    """
    if u == 0:
        raise ValueError("displacement must be nonzero")
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if c is None:
        c = default_fejer_constant(u)
    if not (c > 0.0):
        raise ValueError(f"constant must be positive, got {c}")
    vals = np.abs(weyl_diag_sequence(j_max, u))
    j = np.arange(1, j_max + 1, dtype=float)
    ok = vals[1:] >= c * j ** (-exponent)
    return [int(i) for i in np.nonzero(ok)[0] + 1]
