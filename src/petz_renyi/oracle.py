"""Brute-force validator on a truncated Fock space.

Everything here is dense linear algebra at desk scale: states and
displacement operators are built as explicit matrices at per-mode truncation
``N``, fractional powers go through Hermitian eigendecompositions, and the
entropy trace argument is evaluated directly.  This path is deliberately
independent of the closed forms it validates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
EIG_FLOOR = 1e-300


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


def _displaced_density(spec: DisplacedThermalSpec, n: int) -> np.ndarray:
    mats = []
    for s, u in zip(spec.temps, spec.displacement):
        g = thermal_matrix(s, n)
        if u != 0:
            w = displacement_matrix(u, n)
            g = w @ g @ w.conj().T
        mats.append(g)
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


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


def _matrix_power(mat: np.ndarray, p: float, clamp: bool) -> tuple[np.ndarray, int]:
    w, v = np.linalg.eigh(mat)
    clamped = 0
    if clamp:
        clamped = int(np.count_nonzero(w < EIG_FLOOR))
        w = np.maximum(w, EIG_FLOOR)
    else:
        w = np.maximum(w, 0.0)
    return (v * w**p) @ v.conj().T, clamped


def _thermal_diag(s: float, n: int) -> np.ndarray:
    return np.real(np.diag(thermal_matrix(s, n)))


def _element_bound(u: complex, n: int) -> np.ndarray:
    """Rigorous entrywise bound on the truncated displacement matrix.

    Expanding ``W = e^{-|u|^2/2} e^{u a^dag} e^{-conj(u) a}`` and applying
    the triangle inequality to the finite double sum gives
    ``|W[l, k]| <= e^{-x/2} sum_j |u|^{l+k-2j} sqrt(l! k!) /
    ((l-j)! (k-j)! j!)``, evaluated in the log domain.  The bound is tight
    up to a modest factor in the far off-diagonal tail, where it is needed
    to separate true matrix elements from eigh roundoff.
    """
    x = abs(u) ** 2
    log_u = 0.5 * math.log(x)
    lg = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    out = np.empty((n, n))
    for el in range(n):
        for k in range(n):
            j = np.arange(min(el, k) + 1)
            t = (
                (el + k - 2 * j) * log_u
                + 0.5 * (lg[el] + lg[k])
                - lg[el - j]
                - lg[k - j]
                - lg[j]
            )
            top = t.max()
            log_sum = top + math.log(np.exp(t - top).sum())
            out[el, k] = math.exp(min(700.0, -0.5 * x + log_sum))
    return out


def _structured_trace(
    rho: DisplacedThermalSpec, sigma: DisplacedThermalSpec, alpha: float, n: int
) -> OracleTrace:
    # Unitary conjugation preserves the spectrum, so the truncated displaced
    # states have the exact thermal eigenvalues with eigenbases related by
    # M = W(u_sigma)^dag W(u_rho).  The trace resolves as
    # sum_{k,l} lam_r(k)^alpha lam_s(l)^{1-alpha} |M[l, k]|^2, which keeps
    # eigenvalues far below eigh resolution exact.  The negative sigma power
    # amplifies by up to e^{(alpha-1) s (n-1)}, so numeric entries of M that
    # exceed twice their rigorous a priori bound (meaning roundoff dominates
    # the true value) are zeroed; the count is reported as ``clamped``.
    lam_r = np.ones(1)
    lam_s = np.ones(1)
    m2 = np.ones((1, 1))
    b = np.ones((1, 1))
    for rj, sj, u1, u2 in zip(
        rho.temps, sigma.temps, rho.displacement, sigma.displacement
    ):
        lam_r = np.kron(lam_r, _thermal_diag(rj, n))
        lam_s = np.kron(lam_s, _thermal_diag(sj, n))
        if u1 == 0 and u2 == 0:
            mode_m = np.eye(n, dtype=complex)
            mode_b = np.eye(n)
        elif u2 == 0:
            mode_m = displacement_matrix(u1, n)
            mode_b = _element_bound(u1, n)
        elif u1 == 0:
            mode_m = displacement_matrix(u2, n).conj().T
            mode_b = _element_bound(u2, n).T
        else:
            ws = displacement_matrix(u2, n)
            mode_m = ws.conj().T @ displacement_matrix(u1, n)
            mode_b = _element_bound(u2, n).T @ _element_bound(u1, n)
        m2 = np.kron(m2, np.abs(mode_m) ** 2)
        b = np.kron(b, mode_b)
    noisy = m2 > 4.0 * b**2
    m2 = np.where(noisy, 0.0, m2)
    terms = (lam_r**alpha)[None, :] * (lam_s ** (1.0 - alpha))[:, None] * m2
    return OracleTrace(float(terms.sum()), int(np.count_nonzero(noisy)), n)


def oracle_trace(
    rho: DisplacedThermalSpec,
    sigma: DisplacedThermalSpec,
    alpha: float,
    n: int,
) -> OracleTrace:
    """Direct ``tr(rho^alpha sigma^{1-alpha})`` on the truncated space.

    Fully undisplaced inputs take the exact diagonal spectral path honoring
    ``0^{1-alpha} = inf`` and ``0 * inf = 0``.  Displaced inputs below order
    one are built as conjugated thermal matrices with fractional powers
    through ``eigh``.  Above order one the negative sigma power amplifies
    truncation-level roundoff beyond any dense float64 tolerance, so the
    trace is instead resolved against the exact thermal spectra with the
    eigh-generated displacement unitaries (see :func:`_structured_trace`);
    sigma must then be faithful.  ``clamped`` reports the number of
    noise-suppressed quantities on either path.
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
    undisplaced = all(u == 0 for u in rho.displacement) and all(
        u == 0 for u in sigma.displacement
    )
    if undisplaced:
        return _spectral_trace(rho, sigma, alpha, n)
    if alpha > 1.0:
        if any(math.isinf(s) for s in sigma.temps):
            raise ValueError(
                "sigma must be faithful within the truncation for alpha > 1"
            )
        return _structured_trace(rho, sigma, alpha, n)
    rho_a, _ = _matrix_power(_displaced_density(rho, n), alpha, clamp=False)
    sigma_b, _ = _matrix_power(_displaced_density(sigma, n), 1.0 - alpha, clamp=False)
    value = float(np.real(np.trace(rho_a @ sigma_b)))
    return OracleTrace(value, 0, n)
