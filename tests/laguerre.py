"""Scalar Laguerre polynomials and Weyl matrix elements, read off the library's
one recurrence, ``petz_renyi.weyl._laguerre_run``.

Test references, not entry points: they check no arguments.  The oracle's
entries, the witness samples and the dense displacement matrix are compared
against them.
"""

import cmath
import math

from petz_renyi.weyl import _laguerre_run


def _sign_log(n, x, m=0):
    """(sign, log|value|) of the associated Laguerre ``L_n^{(m)}(x)``."""
    for v, e in _laguerre_run(n, x, m):
        pass
    if v == 0.0:
        return 1.0, -math.inf
    return math.copysign(1.0, v), math.log(abs(v)) + e


def laguerre(j, x):
    """``L_j(x)``; ``ValueError`` where ``|L_j(x)|`` exceeds double range."""
    sign, logabs = _sign_log(j, x)
    try:
        return sign * math.exp(logabs)
    except OverflowError:
        raise ValueError(f"|L_{j}({x})| = e^{logabs} exceeds double range") from None


def weyl_element(row, col, u):
    """``<row|W(u)|col>``; for ``row >= col``

        ``sqrt(col!/row!) u^{row-col} e^{-|u|^2/2} L_col^{(row-col)}(|u|^2)``

    and the adjoint relation ``W(u)^dagger = W(-u)`` supplies the lower
    triangle.
    """
    if u == 0:
        return 1.0 + 0.0j if row == col else 0.0j
    n, big = min(row, col), max(row, col)
    m, x = big - n, abs(u) ** 2
    sign, logabs = _sign_log(n, x, m)
    log_mag = (
        -0.5 * x
        + 0.5 * (math.lgamma(n + 1) - math.lgamma(big + 1))
        + m * math.log(abs(u))
        + logabs
    )
    base = u / abs(u) if row >= col else -u.conjugate() / abs(u)
    return sign * (base**m) * cmath.exp(log_mag)


def weyl_diag(j, u):
    """``<j|W(u)|j> = e^{-|u|^2/2} L_j(|u|^2)`` (real)."""
    return weyl_element(j, j, u).real


def weyl_diag_sequence(jmax, u):
    """``weyl_diag(j, u)`` for every ``j <= jmax``, from one recurrence pass."""
    x = abs(u) ** 2
    return [
        math.copysign(math.exp(math.log(abs(v)) + e - 0.5 * x), v) if v else 0.0
        for v, e in _laguerre_run(jmax, x)
    ]
