"""Parameterization and spectral data of (displaced) thermal Gaussian states.

A thermal state of a single bosonic mode with inverse temperature ``s`` is
diagonal in the particle (Fock) basis with geometric eigenvalues
``(1 - e^{-s}) e^{-k s}``; ``s = inf`` denotes the vacuum projector.  Multimode
thermal states are tensor products, so all spectral data factorizes over
modes.  Mode indices in public return values are 1-based.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator, Sequence, Tuple

__all__ = [
    "ModeVector",
    "log1mexp",
    "covariance",
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


def _as_index(value, what: str) -> int:
    """``value`` as an ``int`` (numpy integers pass); ``ValueError`` for a
    non-integer such as ``16.5`` or ``16.0``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


class Record:
    """Frozen value record; a subclass names its fields in ``__slots__``, their
    defaults in ``_defaults``, and gets an ``__init__`` unless it has its own.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = cls.__slots__
        if "__init__" in cls.__dict__:
            return
        # each slot descriptor sets its field past the __setattr__ guard
        namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in cls._fields}
        namespace.update({f"_default_{name}": v for name, v in cls._defaults.items()})
        params, body = [], []
        for name in cls._fields:
            params.append(f"{name}=_default_{name}" if name in cls._defaults else name)
            if isinstance(cls._defaults.get(name), dict):  # a fresh dict per instance
                body.append(f"if {name} is _default_{name}: {name} = {name}.copy()")
            body.append(f"_set_{name}(self, {name})")
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), namespace)
        cls.__init__ = namespace["__init__"]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # through __init__: unpickling slots would assign them
        return type(self), self._values()


class ModeVector(Record):
    """Ordered inverse temperatures, one per mode; ``math.inf`` marks vacuum.

    Infinity is carried as the IEEE value ``math.inf`` and all vacuum-mode
    logic branches on ``math.isinf``, never on magnitude thresholds.
    """

    __slots__ = ("temps",)

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


def covariance(s: "ModeVector | Sequence[float]", alpha: float = 1.0) -> Tuple[float, ...]:
    """Diagonal covariance entries of the normalized power state.

    Entry ``j`` is ``coth(alpha * s_j / 2) / 2`` (each repeated on a 2x2
    identity block in the full covariance matrix), with the vacuum limit 1/2
    for ``s_j = inf``.
    """
    if not (alpha > 0.0):
        raise ValueError(f"power must be positive, got {alpha}")
    return tuple(
        0.5 if math.isinf(sj) else 0.5 / math.tanh(alpha * sj / 2.0) for sj in ModeVector(s)
    )
