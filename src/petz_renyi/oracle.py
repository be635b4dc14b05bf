"""Brute-force validator on a truncated Fock space.

Unitary conjugation leaves the thermal spectra unchanged, so the trace
argument has one spectral resolution,

    ``tr(rho^alpha sigma^{1-alpha})
        = sum_{k,l} lam_rho(k)^alpha lam_sigma(l)^{1-alpha} |M[l, k]|^2``,

with ``M = W(u_sigma)^dag W(u_rho)``.  By the Weyl relation ``|M[l, k]| =
|<l|W(u)|k>|`` with ``u = u_rho - u_sigma``; the spectra and ``|M|``
factor over modes, so the sum over ``k, l < N`` is a product of one-mode
partial sums ``T_N`` of exact terms: for ``l >= k`` and ``x = |u|^2``,

    ``|<l|W(u)|k>|^2 = |<k|W(u)|l>|^2 = e^{-x} (k!/l!) x^{l-k} L_k^{(l-k)}(x)^2``.

Every term is nonnegative, so ``T_N`` rises with ``N`` towards the true
value.  Terms are formed in the log domain, so none has to be representable
on its own; see :func:`oracle_trace`.  This path stays independent of the
closed forms it validates: it sums the spectra against the matrix entries
and uses no formula for the trace.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .states import _LOG_MAX, DisplacedThermalSpec, Record, _as_index, _check_lengths, log1mexp
from .thermal import support_contained, validate_order

if TYPE_CHECKING:  # each function imports numpy itself: importing this module loads none
    import numpy as np

__all__ = [
    "displacement_matrix",
    "OracleTrace",
    "oracle_trace",
]

MAX_DIM = 4096
# the most entries the (k, mode, m) table may hold, about 1.3 GB of peak memory:
# measured on Python 3.11, one displaced mode at n = 2048 peaked at 254 MB and
# each further mode added about 128 MB
_MAX_TABLE = 2 * MAX_DIM**2
_RESCALE = 1e150  # below sqrt(double max): the entries square f


def displacement_matrix(u: complex, n: int) -> np.ndarray:
    """Truncated ``exp(u a^dag - conj(u) a)`` via the Hermitian generator.

    The exponent is ``i H`` with ``H = -i (u a^dag - conj(u) a)`` Hermitian, so
    the eigendecomposition route yields a numerically unitary result on the
    low-index block.  The oracle does not use it: it stays only because the
    benchmark's traced probe (``perfbench/run.py``) times it, until that
    probe is retired, and the tests use it as a dense reference.
    """
    import numpy as np

    n = _as_index(n, "truncation", 2)
    a = np.diag(np.sqrt(np.arange(1.0, n)), k=1)  # annihilation: entry (j-1, j) = sqrt(j)
    h = -1j * (u * a.T - np.conj(u) * a)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


class OracleTrace(Record):
    """Value of ``tr(rho^alpha sigma^{1-alpha})``; ``clamped`` is 0, every term being exact."""

    __slots__ = ("value", "clamped", "dim")


def _log_weights(temps, p: float, k: np.ndarray) -> np.ndarray:
    """``log(lam^p)`` at the levels ``k``, one row per mode; ``-inf`` on the
    kernel (``lam = 0``, vacuum modes) at either sign of ``p``."""
    import numpy as np

    return np.array(
        [
            np.where(k == 0, 0.0, -np.inf) if math.isinf(t) else p * log1mexp(t) - p * t * k
            for t in temps
        ]
    )


def _log_entries(u: np.ndarray, n: int) -> np.ndarray:
    """``log |<k+m|W(u_j)|k>|^2`` at ``[k, j, m]`` for ``k, m < n``.

    With ``x = |u|^2`` the entry is ``e^{-x} x^m / m! f_k^2``, where ``f_k =
    L_k^{(m)}(x) / sqrt(C(k+m, k))`` obeys the upward three-term recurrence

        ``sqrt((k+1)(k+1+m)) f_{k+1} = (2k+1+m-x) f_k - sqrt(k(k+m)) f_{k-1}``

    from ``f_{-1} = 0`` and ``f_0 = 1``: the recurrence of
    ``weyl._laguerre_run``, scaled, and run over every ``m`` and every mode
    at once.  ``|f_k| <= sqrt(C(k+m, k)) e^{x/2}`` (Abramowitz & Stegun
    22.14.13); where that bound can pass ``limit``, an exponent register
    rescales before a step could take ``f_k^2`` out of double range.
    """
    import numpy as np

    if not np.abs(u).max() <= 1e50:  # |u|^2 <= 1e100 keeps limit above 1
        raise ValueError("a relative displacement exceeds 1e50 in modulus")
    x = np.abs(u) ** 2
    k1 = np.arange(1.0, n)[:, None]  # k + 1
    a = k1 + np.arange(n)  # k + 1 + m
    q = (k1 * a) ** -0.5
    grow = ((k1 + a)[:, None] - (1.0 + x)[:, None]) * q[:, None]
    # sqrt(k(k+m)) q[k] at row k - 1, one copy per mode: broadcasting slows each step
    falls = list(np.repeat((q[1:] / q[:-1])[:, None], len(u), axis=1))
    f = np.empty((n, len(u), n))
    f[0], f[1] = 1.0, grow[0]
    rows, grows = list(f), list(grow)
    x_max = float(x.max())
    limit = _RESCALE / (2.0 + math.sqrt(n) + x_max)  # |grow| + |fall| < 2 + sqrt(n) + x
    log_bound = 0.5 * (math.lgamma(2 * n - 1) - 2 * math.lgamma(n) + x_max)
    reg = np.zeros(f.shape) if log_bound > math.log(limit) else None
    for j in range(1, n - 1):
        if reg is not None:
            top = np.maximum(np.abs(rows[j - 1]), np.abs(rows[j]))
            if (top > limit).any():
                top = np.where(top > limit, top, 1.0)
                f[j - 1 : j + 1] /= top
                reg[j - 1 : j + 1] += 2.0 * np.log(top)
            reg[j + 1] = reg[j]
        np.multiply(grows[j], rows[j], out=rows[j + 1])
        rows[j + 1] -= falls[j - 1] * rows[j - 1]
    with np.errstate(divide="ignore"):  # exact zeros of the polynomials
        log_w2 = np.log(np.square(f, out=f), out=f)
    if reg is not None:
        log_w2 += reg
    lg = np.array([math.lgamma(i + 1.0) for i in range(n)])
    # 2 m log|u|, not m log x: x underflows to 0 for |u| below about 1e-162
    log_w2 += np.log(np.abs(u))[:, None] * np.arange(0.0, 2.0 * n, 2.0) - lg - x[:, None]
    return log_w2


def _log_product(terms: np.ndarray, axis) -> float:
    """``log prod_j sum exp(terms)``, one factor per mode ``j``, summed over ``axis``.

    Every mode has a finite term (``k = l = 0``), so every factor is positive.
    """
    import numpy as np

    top = terms.max(axis=axis, keepdims=True)
    sums = np.exp(terms - top).sum(axis=axis)
    return math.fsum(top.ravel()) + math.fsum(map(math.log, sums.ravel()))


def oracle_trace(
    rho: DisplacedThermalSpec,
    sigma: DisplacedThermalSpec,
    alpha: float,
    n: int,
) -> OracleTrace:
    """Direct ``tr(rho^alpha sigma^{1-alpha})`` on the truncated space.

    The product over modes of the partial sums ``T_N`` of the module
    docstring, each summed in the log domain: ``sum_k lam_rho(k)^alpha
    lam_sigma(k)^{1-alpha}`` where the relative displacement is 0 (``M =
    1``), otherwise over the exact entries of ``W(u_rho - u_sigma)``.
    Vanishing eigenvalues carry weight 0 at either sign of the power, so
    vacuum modes of sigma drop out below order one (``0^{1-alpha} = 0``);
    above order one they make an undisplaced trace ``inf`` where rho is
    finite (``0^{1-alpha} = inf``), and a displaced pair needs a faithful
    sigma.  Otherwise the value is ``inf`` only when the truncated sum
    exceeds double range.  The memory is ``O(n^2)`` per displaced mode, so
    ``n`` is at most ``MAX_DIM``, and ``ValueError`` is raised before any
    table is built when the displaced modes times ``n^2`` exceed
    ``2 MAX_DIM^2``.
    """
    import numpy as np

    n = _as_index(n, "truncation", 2)
    alpha = validate_order(alpha)
    _check_lengths(rho.temps, sigma.temps)
    if n > MAX_DIM:
        raise ValueError(f"truncation {n} exceeds guard {MAX_DIM}")
    pairs = list(zip(rho.displacement, sigma.displacement))
    if alpha > 1.0 and not sigma.faithful:
        if any(u != 0 for pair in pairs for u in pair):
            raise ValueError(
                "sigma must be faithful within the truncation for alpha > 1"
            )
        if not support_contained(rho.temps, sigma.temps):
            return OracleTrace(math.inf, 0, n)
    k = np.arange(n)
    diag = _log_weights(rho.temps, alpha, k) + _log_weights(sigma.temps, 1.0 - alpha, k)
    u = [a - b for a, b in pairs]
    still = [j for j, z in enumerate(u) if z == 0]
    moved = [j for j, z in enumerate(u) if z != 0]
    if len(moved) * n * n > _MAX_TABLE:
        raise ValueError(
            f"{len(moved)} displaced modes at truncation {n} exceed the oracle's table:"
            f" displaced modes times n^2 is {len(moved) * n * n}, above 2 * {MAX_DIM}^2"
        )
    log_t = _log_product(diag[still], 1)  # M = 1 on these modes
    if moved:
        # entry (k, m) is |<k+m|W|k>|^2 = |<k|W|k+m>|^2: it weighs rho's level
        # k with sigma's k+m and, for m > 0, rho's k+m with sigma's k; on the
        # geometric spectra that is diag[k] times e^{(alpha-1) s m} and
        # e^{-alpha r m} (0 for m > 0 on a vacuum mode, r or s infinite)
        r, s, m = np.array(rho.temps)[moved, None], np.array(sigma.temps)[moved, None], k[1:]
        side = np.zeros((len(r), n))
        side[:, 1:] = np.logaddexp(-alpha * r * m, (alpha - 1.0) * s * m)
        terms = _log_entries(np.array(u, dtype=complex)[moved], n)
        terms += diag[moved].T[:, :, None] + side
        terms += np.where(np.add.outer(k, k) < n, 0.0, -np.inf)[:, None]  # k + m < n only
        log_t += _log_product(terms, (0, 2))
    value = math.exp(log_t) if log_t < _LOG_MAX else math.inf
    return OracleTrace(value, 0, n)
