"""Brute-force validator on a truncated Fock space.

Everything here is linear algebra at desk scale on the space truncated to
``N`` levels per mode.  Displacement operators are explicit matrices built by
an eigendecomposition of their Hermitian generator.  The trace argument
``tr(rho^alpha sigma^{1-alpha})`` is then summed entry by entry over the
exact thermal spectra, which unitary conjugation leaves unchanged; see
:func:`oracle_trace`.  This path is deliberately independent of the closed
forms it validates: it uses no formula for the trace and never factors it
over modes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .displaced import DisplacedThermalSpec
from .states import log1mexp

__all__ = [
    "annihilation_matrix",
    "thermal_matrix",
    "displacement_matrix",
    "OracleTrace",
    "oracle_trace",
]

MAX_TOTAL_DIM = 4096
# entries of one block of the overlap over the full truncated space: bounds
# the working set of _structured_trace whatever the mode count
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


def _spectral_trace(
    rho: DisplacedThermalSpec, sigma: DisplacedThermalSpec, alpha: float, n: int
) -> OracleTrace:
    # undisplaced states share the particle eigenbasis: exact spectral sum
    # honoring 0^{1-alpha} = inf and 0 * inf = 0 for alpha > 1
    total = 0.0
    for k in itertools.product(range(n), repeat=rho.n_modes):
        lam_r = 1.0
        lam_s = 1.0
        for kj, rj, sj in zip(k, rho.temps, sigma.temps):
            lam_r *= 0.0 if (math.isinf(rj) and kj > 0) else (
                1.0 if math.isinf(rj) else math.exp(log1mexp(rj) - kj * rj)
            )
            lam_s *= 0.0 if (math.isinf(sj) and kj > 0) else (
                1.0 if math.isinf(sj) else math.exp(log1mexp(sj) - kj * sj)
            )
        if lam_r == 0.0:
            continue  # 0 * inf = 0
        if lam_s == 0.0:
            if alpha > 1.0:
                return OracleTrace(math.inf, 0, n)
            continue  # 0^{1-alpha} = 0 below order one
        total += lam_r**alpha * lam_s ** (1.0 - alpha)
    return OracleTrace(total, 0, n)


def _spectral_weights(temps, p: float, n: int) -> np.ndarray:
    """``lam^p`` over the full space, in the log domain where ``lam`` underflows."""
    k = np.arange(n)
    logs = [
        np.where(k == 0, 0.0, -np.inf) if math.isinf(t) else log1mexp(t) - t * k
        for t in temps
    ]
    return np.exp(p * reduce(lambda a, b: np.add.outer(a, b).ravel(), logs))


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


def _structured_trace(
    rho: DisplacedThermalSpec, sigma: DisplacedThermalSpec, alpha: float, n: int
) -> OracleTrace:
    # Unitary conjugation preserves the spectrum, so the truncated displaced
    # states have the exact thermal eigenvalues with eigenbases related by
    # M = W(u_sigma)^dag W(u_rho).  The trace resolves as
    # sum_{k,l} lam_r(k)^alpha lam_s(l)^{1-alpha} |M[l, k]|^2, which keeps
    # eigenvalues far below eigh resolution exact.  Above order one the
    # negative sigma power amplifies by up to e^{(alpha-1) s (n-1)}, so
    # entries of M that exceed twice their rigorous a priori bound (meaning
    # roundoff dominates the true value) are zeroed; the count is reported as
    # ``clamped``.  Below order one every weight is at most 1 and nothing is
    # clamped.  The Kronecker products over modes are formed one block of
    # leading-mode rows at a time, with the same products as the full form.
    clamp = alpha > 1.0
    pairs = list(zip(rho.displacement, sigma.displacement))
    m2 = [np.abs(_mode_product(displacement_matrix, *p, n)) ** 2 for p in pairs]
    bound = [_mode_product(_element_bound, *p, n) for p in pairs] if clamp else []
    w_rho = _spectral_weights(rho.temps, alpha, n)
    w_sigma = _spectral_weights(sigma.temps, 1.0 - alpha, n)
    rest = w_rho.size // n  # full-space rows per row of the leading mode
    step = max(1, BLOCK_ENTRIES // (rest * w_rho.size))
    total, clamped = 0.0, 0
    for lo in range(0, n, step):
        block = reduce(_kron, [m2[0][lo : lo + step]] + m2[1:])
        if clamp:
            b = reduce(_kron, [bound[0][lo : lo + step]] + bound[1:])
            noisy = block > 4.0 * b**2
            clamped += int(np.count_nonzero(noisy))
            block = np.where(noisy, 0.0, block)
        total += w_sigma[lo * rest : (lo + step) * rest] @ (block @ w_rho)
    return OracleTrace(float(total), clamped, n)


def oracle_trace(
    rho: DisplacedThermalSpec,
    sigma: DisplacedThermalSpec,
    alpha: float,
    n: int,
) -> OracleTrace:
    """Direct ``tr(rho^alpha sigma^{1-alpha})`` on the truncated space.

    Fully undisplaced inputs take the exact diagonal spectral path honoring
    ``0^{1-alpha} = inf`` and ``0 * inf = 0``.  Displaced inputs, at every
    order, are resolved against the exact thermal spectra with the
    eigh-generated displacement unitaries (see :func:`_structured_trace`);
    vacuum modes of sigma drop out below order one (``0^{1-alpha} = 0``),
    and above order one sigma must be faithful.  ``clamped`` counts the
    entries zeroed as roundoff, which happens above order one only.
    """
    _check_dim(n)
    if rho.n_modes != sigma.n_modes:
        raise ValueError("mode counts differ")
    if alpha == 1.0 or not (alpha > 0.0):
        raise ValueError(f"order must lie in (0,1) or (1,inf), got {alpha}")
    if n**rho.n_modes > MAX_TOTAL_DIM:
        raise ValueError(
            f"total dimension {n**rho.n_modes} exceeds guard {MAX_TOTAL_DIM}"
        )
    if all(u == 0 for u in rho.displacement + sigma.displacement):
        return _spectral_trace(rho, sigma, alpha, n)
    if alpha > 1.0 and not sigma.faithful:
        raise ValueError("sigma must be faithful within the truncation for alpha > 1")
    return _structured_trace(rho, sigma, alpha, n)
