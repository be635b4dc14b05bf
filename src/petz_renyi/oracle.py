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
from dataclasses import dataclass
from functools import reduce
from typing import Tuple

import numpy as np

from .displaced import DisplacedThermalSpec
from .states import log1mexp
from .thermal import _LOG_MAX, support_contained, validate_order

__all__ = [
    "annihilation_matrix",
    "thermal_matrix",
    "displacement_matrix",
    "OracleTrace",
    "oracle_trace",
]

MAX_TOTAL_DIM = 4096
# entries of one block of the overlap over the full truncated space: bounds
# the working set of _overlap_rows whatever the mode count
BLOCK_ENTRIES = 1 << 16


def _check_dim(n: int) -> None:
    if n < 2:
        raise ValueError(f"truncation must be at least 2, got {n}")


def annihilation_matrix(n: int) -> np.ndarray:
    """Truncated annihilation operator: entry ``(j-1, j) = sqrt(j)``."""
    _check_dim(n)
    return np.diag(np.sqrt(np.arange(1.0, n)), k=1).astype(complex)


def thermal_matrix(s: float, n: int) -> np.ndarray:
    """Truncated thermal state: ``diag((1-e^{-s}) e^{-k s})``; vacuum for ``s = inf``."""
    _check_dim(n)
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
    _check_dim(n)
    a = annihilation_matrix(n)
    h = -1j * (u * a.conj().T - np.conj(u) * a)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


@dataclass(frozen=True)
class OracleTrace:
    """Value of ``tr(rho^alpha sigma^{1-alpha})`` with diagnostic counters."""

    value: float
    clamped: int
    dim: int


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
    ((l-j)! (k-j)! j!)``, evaluated in the log domain.  The bound is tight
    up to a modest factor in the far off-diagonal tail, where it is needed
    to separate true matrix elements from eigh roundoff.  It is symmetric in
    ``(l, k)``: row ``l`` fills the entries ``k >= l``, whose sums run over
    ``j <= l``, as one max-shifted log-sum-exp per entry.
    """
    x = abs(u) ** 2
    log_u = 0.5 * math.log(x)
    lg = np.array([math.lgamma(k + 1.0) for k in range(n)])
    out = np.empty((n, n))
    for el in range(n):
        k = np.arange(el, n)[:, None]
        j = np.arange(el + 1)
        t = (
            (el + k - 2 * j) * log_u
            + 0.5 * (lg[el] + lg[k])
            - lg[el - j]
            - lg[k - j]
            - lg[j]
        )
        top = t.max(axis=1)
        log_sum = top + np.log(np.exp(t - top[:, None]).sum(axis=1))
        out[el, el:] = out[el:, el] = np.exp(np.minimum(700.0, -0.5 * x + log_sum))
    return out


def _mode_product(make, u_rho: complex, u_sigma: complex, n: int) -> np.ndarray:
    """``make(u_sigma)^dag make(u_rho)`` on one mode, taking ``make(0)`` as 1.

    With ``displacement_matrix`` this is the overlap ``M`` of the two
    eigenbases; with ``_element_bound`` it bounds ``|M|`` entrywise.
    """
    if u_sigma == 0:
        return make(u_rho, n) if u_rho != 0 else np.eye(n)
    left = make(u_sigma, n).conj().T
    return left if u_rho == 0 else left @ make(u_rho, n)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of 2-D arrays in one pass, with the same entrywise products."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], -1
    )


def _overlap_rows(pairs, clamp: bool, n: int, w_rho) -> Tuple[np.ndarray, int]:
    """``|M|^2 @ w_rho`` and the number of clamped entries of ``M``.

    ``M = W(u_sigma)^dag W(u_rho)`` over the ``(u_rho, u_sigma)`` pairs of the
    modes.  Above order one the negative sigma power amplifies by up to
    ``e^{(alpha-1) s (n-1)}``, so with ``clamp`` the entries of ``M`` that
    exceed twice their rigorous a priori bound (meaning roundoff dominates
    the true value) are zeroed and counted.  The Kronecker products over
    modes are formed one block of leading-mode rows at a time, with the same
    products as the full form.
    """
    m2 = [np.abs(_mode_product(displacement_matrix, *p, n)) ** 2 for p in pairs]
    bound = [_mode_product(_element_bound, *p, n) for p in pairs] if clamp else []
    rest = w_rho.size // n  # full-space rows per row of the leading mode
    step = max(1, BLOCK_ENTRIES // (rest * w_rho.size))
    rows, clamped = np.empty(w_rho.size), 0
    for lo in range(0, n, step):
        block = reduce(_kron, [m2[0][lo : lo + step]] + m2[1:])
        if clamp:
            b = reduce(_kron, [bound[0][lo : lo + step]] + bound[1:])
            noisy = block > 4.0 * b**2
            clamped += int(np.count_nonzero(noisy))
            block = np.where(noisy, 0.0, block)
        rows[lo * rest : (lo + step) * rest] = block @ w_rho
    return rows, clamped


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
    entries of ``M`` zeroed as roundoff, above order one only (see
    :func:`_overlap_rows`).
    """
    _check_dim(n)
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
    log_total = top + math.log(np.exp(terms - top).sum())
    value = math.exp(log_total) if log_total < _LOG_MAX else math.inf
    return OracleTrace(value, clamped, n)
