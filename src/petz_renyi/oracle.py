"""Brute-force validator on a truncated Fock space.

Everything here is linear algebra at desk scale on the space truncated to
``N`` levels per mode.  Unitary conjugation leaves the thermal spectra
unchanged, so the trace argument has one spectral resolution over the full
truncated space,

    ``tr(rho^alpha sigma^{1-alpha})
        = sum_{k,l} lam_rho(k)^alpha lam_sigma(l)^{1-alpha} |M[l, k]|^2``,

with ``M = W(u_sigma)^dag W(u_rho)``: the identity for undisplaced pairs,
otherwise a product of explicit displacement matrices built by an
eigendecomposition of their Hermitian generator.  The weights are formed in
the log domain and the sum over sigma's eigenvalues is taken there, so no
weight has to be representable on its own; see :func:`oracle_trace`.
This path is deliberately independent of the closed forms it validates: it
uses no formula for the trace and never factors it over modes.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Tuple

import numpy as np

from .displaced import DisplacedThermalSpec
from .states import Record, _as_index, log1mexp
from .thermal import _LOG_MAX, support_contained, validate_order

__all__ = [
    "annihilation_matrix",
    "thermal_matrix",
    "displacement_matrix",
    "OracleTrace",
    "oracle_trace",
]

MAX_TOTAL_DIM = 4096


def _check_dim(n: int) -> int:
    n = _as_index(n, "truncation")
    if n < 2:
        raise ValueError(f"truncation must be at least 2, got {n}")
    return n


def annihilation_matrix(n: int) -> np.ndarray:
    """Truncated annihilation operator: entry ``(j-1, j) = sqrt(j)``."""
    n = _check_dim(n)
    return np.diag(np.sqrt(np.arange(1.0, n)), k=1).astype(complex)


def thermal_matrix(s: float, n: int) -> np.ndarray:
    """Truncated thermal state: ``diag((1-e^{-s}) e^{-k s})``; vacuum for ``s = inf``."""
    n = _check_dim(n)
    if math.isinf(s):
        d = np.zeros(n)
        d[0] = 1.0
        return np.diag(d).astype(complex)
    if not (s > 0.0):
        raise ValueError(f"inverse temperature must be positive, got {s}")
    k = np.arange(n)
    return np.diag(np.exp(log1mexp(s) - k * s)).astype(complex)


def displacement_matrix(u: complex, n: int) -> np.ndarray:
    """Truncated ``exp(u a^dag - conj(u) a)`` via the Hermitian generator.

    The exponent is ``i H`` with ``H = -i (u a^dag - conj(u) a)`` Hermitian, so
    the eigendecomposition route yields a numerically unitary result on the
    low-index block.
    """
    n = _check_dim(n)
    a = annihilation_matrix(n)
    h = -1j * (u * a.conj().T - np.conj(u) * a)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


class OracleTrace(Record):
    """Value of ``tr(rho^alpha sigma^{1-alpha})`` with diagnostic counters."""

    __slots__ = ("value", "clamped", "dim")


def _log_weights(temps, p: float, n: int) -> np.ndarray:
    """``log(lam^p)`` over the full space.

    ``-inf`` on the kernel (``lam = 0``, vacuum modes) at either sign of ``p``.
    """
    k = np.arange(n)
    logs = [
        np.where(k == 0, 0.0, -np.inf) if math.isinf(t) else log1mexp(t) - t * k
        for t in temps
    ]
    full = reduce(lambda a, b: np.add.outer(a, b).ravel(), logs)
    return np.where(full == -np.inf, -np.inf, p * full)


def _element_bound(u: complex, n: int) -> np.ndarray:
    """Rigorous entrywise bound on the truncated displacement matrix.

    Expanding ``W = e^{-|u|^2/2} e^{u a^dag} e^{-conj(u) a}`` and applying
    the triangle inequality to the finite double sum gives
    ``|W[l, k]| <= e^{-x/2} sum_j |u|^{l+k-2j} sqrt(l! k!) /
    ((l-j)! (k-j)! j!)``, tight up to a modest factor in the far off-diagonal
    tail, where it separates true matrix elements from eigh roundoff.  The
    sum is ``E^T E`` for the upper triangular ``E = e^{-x/4} e^{|u| a}``,
    ``E[j, k] = e^{-x/4} |u|^{k-j} sqrt(k!/j!) / (k-j)!``, formed in the log
    domain.  Entries of ``E`` beyond the normal double range leave the
    product and ``n`` times their largest term is added back, so the result
    stays an upper bound; it is capped at ``e^700``.
    """
    x = abs(u) ** 2
    lg = np.array([math.lgamma(k + 1.0) for k in range(n)])
    d = np.arange(n) - np.arange(n)[:, None]  # k - j
    # d log|u|, not d log(x) / 2: x underflows to 0 for |u| below about 1e-162
    log_e = -0.25 * x + d * math.log(abs(u)) + 0.5 * (lg - lg[:, None]) - lg[abs(d)]
    log_e[d < 0] = -np.inf
    kept = abs(log_e) < 708.0  # normal doubles; the lower triangle is dropped too
    top, gone = log_e.max(axis=0), np.where(kept, -np.inf, log_e).max(axis=0)
    e = np.exp(np.where(kept, log_e, -np.inf))
    with np.errstate(over="ignore"):
        lost = np.exp(math.log(n) + np.maximum(gone[:, None] + top, top[:, None] + gone))
        return np.minimum(e.T @ e + lost, math.exp(700.0))


def _mode_product(make, u_rho: complex, u_sigma: complex, n: int) -> np.ndarray:
    """``make(u_sigma)^dag make(u_rho)`` on one mode, taking ``make(0)`` as 1.

    With ``displacement_matrix`` this is the overlap ``M`` of the two
    eigenbases; with ``_element_bound`` it bounds ``|M|`` entrywise.
    """
    if u_sigma == 0:
        return make(u_rho, n) if u_rho != 0 else np.eye(n)
    left = make(u_sigma, n).conj().T
    return left if u_rho == 0 else left @ make(u_rho, n)


def _overlap_rows(pairs, clamp: bool, n: int, w_rho) -> Tuple[np.ndarray, int]:
    """``|M|^2 @ w_rho`` and the number of nonzero entries of ``M`` clamped.

    ``M = W(u_sigma)^dag W(u_rho)`` over the ``(u_rho, u_sigma)`` pairs of the
    modes, so ``|M|^2`` is the Kronecker product of the modes' ``|M_j|^2``,
    each applied along its own axis of ``w_rho`` at ``O(m n^{m+1})``.  Above
    order one the negative sigma power amplifies by up to ``e^{(alpha-1) s
    (n-1)}``, so with ``clamp`` the entries of each ``|M_j|^2`` above four
    times their squared rigorous a priori bound are zeroed: the error of an
    eigh-built factor (roundoff, truncation edge) dominates them, and the
    product only adds relative rounding.  The zeroed entries of ``M`` number
    ``prod_j nnz_j(before) - prod_j nnz_j(after)``.
    """
    m2 = [np.abs(_mode_product(displacement_matrix, *p, n)) ** 2 for p in pairs]
    clamped = 0
    if clamp:
        before = math.prod(map(np.count_nonzero, m2))
        for a, p in zip(m2, pairs):
            a[a > 4.0 * _mode_product(_element_bound, *p, n) ** 2] = 0.0
        clamped = int(before - math.prod(map(np.count_nonzero, m2)))
    t = w_rho.reshape((n,) * len(m2))
    for a in reversed(m2):  # each pass moves the new axis to the front
        t = np.tensordot(a, t, axes=(1, -1))
    return t.ravel(), clamped


def oracle_trace(
    rho: DisplacedThermalSpec,
    sigma: DisplacedThermalSpec,
    alpha: float,
    n: int,
) -> OracleTrace:
    """Direct ``tr(rho^alpha sigma^{1-alpha})`` on the truncated space.

    The spectral resolution of the module docstring: the rows
    ``sum_k |M[l, k]|^2 lam_rho(k)^alpha``, which are ``lam_rho(l)^alpha`` for
    an undisplaced pair (``M = 1``), are summed against
    ``lam_sigma(l)^{1-alpha}`` in the log domain.  Vanishing eigenvalues carry
    weight 0 at either sign of the power, so vacuum modes of sigma drop out
    below order one (``0^{1-alpha} = 0``); above order one they make an
    undisplaced trace ``inf`` where rho is finite (``0^{1-alpha} = inf``), and
    a displaced pair needs a faithful sigma.  Otherwise the value is ``inf``
    only when the truncated sum exceeds double range.  ``clamped`` counts the
    nonzero entries of ``M`` zeroed as roundoff, above order one only (see
    :func:`_overlap_rows`); with every entry clamped the truncated sum is 0.
    """
    n = _check_dim(n)
    alpha = validate_order(alpha)
    if rho.n_modes != sigma.n_modes:
        raise ValueError("mode counts differ")
    if n**rho.n_modes > MAX_TOTAL_DIM:
        raise ValueError(
            f"total dimension {n**rho.n_modes} exceeds guard {MAX_TOTAL_DIM}"
        )
    pairs = list(zip(rho.displacement, sigma.displacement))
    undisplaced = all(u == 0 for pair in pairs for u in pair)
    if alpha > 1.0 and not sigma.faithful:
        if not undisplaced:
            raise ValueError(
                "sigma must be faithful within the truncation for alpha > 1"
            )
        if not support_contained(rho.temps, sigma.temps):
            return OracleTrace(math.inf, 0, n)
    log_w_rho = _log_weights(rho.temps, alpha, n)
    if undisplaced:  # M = 1
        log_rows, clamped = log_w_rho, 0
    else:
        rows, clamped = _overlap_rows(pairs, alpha > 1.0, n, np.exp(log_w_rho))
        with np.errstate(divide="ignore"):
            log_rows = np.log(rows)
    # lam_sigma^{1-alpha} never has to be representable on its own
    terms = _log_weights(sigma.temps, 1.0 - alpha, n) + log_rows
    top = terms.max()
    if top == -math.inf:  # every row vanished, clamped or of zero weight
        return OracleTrace(0.0, clamped, n)
    log_total = top + math.log(np.exp(terms - top).sum())
    value = math.exp(log_total) if log_total < _LOG_MAX else math.inf
    return OracleTrace(value, clamped, n)
