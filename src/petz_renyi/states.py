"""Parameterization and spectral data of (displaced) thermal Gaussian states.

A thermal state of a single bosonic mode with inverse temperature ``s`` is
diagonal in the particle (Fock) basis with geometric eigenvalues
``(1 - e^{-s}) e^{-k s}``; ``s = inf`` denotes the vacuum projector.  Multimode
thermal states are tensor products, so all spectral data factorizes over
modes.  Mode indices in public return values are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

__all__ = [
    "ModeVector",
    "log1mexp",
    "support_set",
    "eigenvalue",
    "eigenvalue_log",
    "covariance",
    "power_reparam",
]


def log1mexp(x: float) -> float:
    """Accurate ``log(1 - e^{-x})`` for ``x > 0``.

    Uses ``log(-expm1(-x))`` below log 2 and ``log1p(-exp(-x))`` above, which
    keeps full relative accuracy at both ends.  Returns 0.0 for ``x = inf``.
    """
    if x <= 0.0:
        raise ValueError(f"log1mexp requires x > 0, got {x}")
    if math.isinf(x):
        return 0.0
    if x < math.log(2.0):
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


@dataclass(frozen=True)
class ModeVector:
    """Ordered inverse temperatures, one per mode; ``math.inf`` marks vacuum.

    Infinity is carried as the IEEE value ``math.inf`` and all vacuum-mode
    logic branches on ``math.isinf``, never on magnitude thresholds.
    """

    temps: Tuple[float, ...]

    def __init__(self, temps: Iterable[float]):
        ts = tuple(float(t) for t in temps)
        if len(ts) == 0:
            raise ValueError("ModeVector requires at least one mode")
        for t in ts:
            if not (t > 0.0) or math.isnan(t):
                raise ValueError(f"inverse temperature must be positive, got {t}")
        object.__setattr__(self, "temps", ts)

    def __len__(self) -> int:
        return len(self.temps)

    def __iter__(self) -> Iterator[float]:
        return iter(self.temps)

    def __getitem__(self, j: int) -> float:
        return self.temps[j]


def _as_temps(s: "ModeVector | Sequence[float]") -> Tuple[float, ...]:
    if isinstance(s, ModeVector):
        return s.temps
    return ModeVector(s).temps


def support_set(s: "ModeVector | Sequence[float]") -> frozenset:
    """Indices (1-based) of modes with finite inverse temperature."""
    temps = _as_temps(s)
    return frozenset(j + 1 for j, t in enumerate(temps) if not math.isinf(t))


def eigenvalue(k: Sequence[int], s: "ModeVector | Sequence[float]") -> float:
    """Eigenvalue of the thermal state at occupation ``k``.

    Zero when a vacuum mode carries nonzero occupation; 1 when every mode is
    vacuum and ``k`` is the zero vector.  Linear-domain form, intended for
    small occupations; use :func:`eigenvalue_log` inside sums.
    """
    lg = eigenvalue_log(k, s)
    return math.exp(lg) if lg > -math.inf else 0.0


def eigenvalue_log(k: Sequence[int], s: "ModeVector | Sequence[float]") -> float:
    """``log`` of :func:`eigenvalue`; ``-inf`` for a vanishing eigenvalue."""
    temps = _as_temps(s)
    if len(k) != len(temps):
        raise ValueError(
            f"occupation length {len(k)} != number of modes {len(temps)}"
        )
    total = 0.0
    for kj, sj in zip(k, temps):
        if kj < 0 or kj != int(kj):
            raise ValueError(f"occupation numbers must be nonnegative integers, got {kj}")
        if math.isinf(sj):
            if kj != 0:
                return -math.inf
        else:
            total += log1mexp(sj) - kj * sj
    return total


def covariance(s: "ModeVector | Sequence[float]", alpha: float = 1.0) -> Tuple[float, ...]:
    """Diagonal covariance entries of the normalized power state.

    Entry ``j`` is ``coth(alpha * s_j / 2) / 2`` (each repeated on a 2x2
    identity block in the full covariance matrix), with the vacuum limit 1/2
    for ``s_j = inf``.
    """
    if not (alpha > 0.0):
        raise ValueError(f"power must be positive, got {alpha}")
    temps = _as_temps(s)
    out = []
    for sj in temps:
        if math.isinf(sj):
            out.append(0.5)
        else:
            out.append(0.5 / math.tanh(alpha * sj / 2.0))
    return tuple(out)


def power_reparam(s: "ModeVector | Sequence[float]", alpha: float) -> ModeVector:
    """Inverse temperatures of the normalized power state: ``alpha * s``.

    The normalized positive power of a thermal state is again thermal, with
    every inverse temperature scaled by the exponent (vacuum stays vacuum).
    """
    if not (alpha > 0.0):
        raise ValueError(f"power must be positive, got {alpha}")
    temps = _as_temps(s)
    return ModeVector(t if math.isinf(t) else alpha * t for t in temps)
