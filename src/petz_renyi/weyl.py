"""The Laguerre recurrence, the Fejer and sine-interval scans, and the diagonal witness.

The diagonal Fock-basis matrix element of the single-mode displacement
operator is ``<j|W(u)|j> = exp(-|u|^2/2) L_j(|u|^2)``.  The Fejer
large-degree asymptotic

    ``L_j(x) ~ j^{-1/4} e^{x/2} (pi^2 x)^{-1/4} sin(2 sqrt(j x) + pi/4)``

implies the diagonal elements decay only like ``j^{-1/4}`` along a positive
density of indices, which is what the scans and the diagonal divergence
witness here certify.

They read the diagonal in one streamed pass of one upward three-term
recurrence, ``_laguerre_run``, on the standard library alone.  The direct
binomial sum cancels catastrophically beyond degree ~20 and survives only in
the exact-rational test oracles.  The recurrence carries a separate exponent
register so that degrees and arguments far beyond the overflow range of a
bare double stay usable.  The oracle runs the same recurrence, scaled and
vectorised, for its matrix entries; the tests read single Weyl matrix
elements, associated degree ``m`` included, off ``_laguerre_run`` itself
(``tests/laguerre.py``).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .states import _LOG_MAX, ModeVector, Record, _as_index, _check_lengths
from .thermal import DivergenceWitness, _gated_exponents

__all__ = [
    "SineIntervalWitness",
    "sine_interval_indices",
    "default_fejer_constant",
    "fejer_scan",
    "diagonal_divergence_witness",
]

_RESCALE = 1e250


def _laguerre_run(n: int, x: float, m: int = 0) -> Iterator[Tuple[float, float]]:
    """``(v, e)`` with ``L_j^{(m)}(x) = v e^e`` for ``j = 0, 1, ..., n``.

    The upward three-term recurrence from ``L_{-1} = 0`` and ``L_0 = 1``.  A
    step multiplies the larger carried value by at most ``3 + 2m + x``, so
    the exponent register ``e`` absorbs a rescaling whenever a value passes
    ``_RESCALE`` divided by that factor, before the next step could leave
    double range.
    """
    limit = _RESCALE / (3.0 + 2 * m + x)
    prev, curr, offset = 0.0, 1.0, 0.0
    yield curr, offset
    for j in range(n):
        prev, curr = curr, ((2 * j + 1 + m - x) * curr - (j + m) * prev) / (j + 1)
        a = max(abs(prev), abs(curr))
        if a > limit:
            prev, curr, offset = prev / a, curr / a, offset + math.log(a)
        yield curr, offset


# size caps of the scans, checked before any work.  Measured on Python 3.11 (2 vCPUs)
# at about 2-3 us and 190 B per sine interval, a capped call stays within about 0.3 s
# and 19 MB.  A Fejer index takes 1.0-1.4 us; weyl-scan counts the stream, so its
# capped call takes about 1.4 s and no memory beyond the import, while fejer_scan's
# list takes about 36 MB more
_M_MAX_CAP = 10**5
_J_MAX_CAP = 10**6


class SineIntervalWitness(Record):
    """Integer ``j`` inside the m-th phase interval where ``|sin(2 sqrt(j)|u| + pi/4)| >= 1/sqrt(2)``."""

    __slots__ = ("m", "lo", "hi", "j")


def sine_interval_indices(u: complex, m_max: int) -> List[SineIntervalWitness]:
    """One witness index per phase interval of length > 1, for ``m <= m_max``.

    The m-th interval is ``[(m pi / 2|u|)^2, (m pi / 2|u|)^2 + m pi^2/(4|u|^2)
    + pi^2/(16|u|^2)]``; any integer inside it satisfies the sine lower bound.
    Intervals are pairwise disjoint and increasing, so choosing the smallest
    interior integer yields a strictly increasing witness sequence.  Raises
    ``ValueError`` for a zero or non-finite ``u``, for ``m_max`` above
    ``_M_MAX_CAP``, and where the intervals leave double range (``|u|`` below
    about ``1.6e-150 m_max``).
    """
    x, m_max = _squared_modulus(u), _as_index(m_max, "m_max", 1, _M_MAX_CAP)
    if not m_max * math.pi / (2.0 * abs(u)) < 1e150:
        raise ValueError(f"phase intervals leave double range at |u| = {abs(u)}")
    out: List[SineIntervalWitness] = []
    for m in range(1, m_max + 1):
        lo = (m * math.pi / (2.0 * abs(u))) ** 2
        width = m * math.pi**2 / (4.0 * x) + math.pi**2 / (16.0 * x)
        if width <= 1.0:
            continue
        j = math.floor(lo) + 1
        out.append(SineIntervalWitness(m=m, lo=lo, hi=lo + width, j=j))
    return out


def _squared_modulus(u: complex) -> float:
    """``|u|^2``; ``ValueError`` for ``u = 0`` or a non-finite ``|u|^2``."""
    try:
        x = abs(u) ** 2
    except OverflowError:
        x = math.inf
    if u == 0 or not x < math.inf:
        raise ValueError(f"displacement must be nonzero with |u|^2 finite, got u = {u}")
    return x


def default_fejer_constant(u: complex) -> float:
    """Half the Fejer main-term amplitude of the undamped ``L_j(|u|^2)`` at the
    sine floor ``1/sqrt(2)``: ``e^{|u|^2/2} / (2 sqrt(2 pi |u|))``.

    That amplitude, ``e^{|u|^2/2} j^{-1/4} / sqrt(pi |u|)``, is halved to leave
    room for the ``O(j^{-3/4})`` remainder.  :func:`fejer_scan` compares the
    constant with the damped element ``e^{-|u|^2/2} |L_j|``, so the factor
    ``e^{|u|^2/2}`` admits no hit before about ``j = e^{4|u|^2} / 4096``; it also
    raises ``ValueError`` where it exceeds double range (``|u|`` above about 37.7).
    """
    x = _squared_modulus(u)
    if 0.5 * x > _LOG_MAX:
        raise ValueError(f"e^(|u|^2/2) exceeds double range at |u| = {abs(u)}")
    return math.exp(0.5 * x) / (2.0 * math.sqrt(2.0 * math.pi * abs(u)))


# the bound c j^{-3/8} decays faster than the Fejer main term's j^{-1/4}
_FEJER_EXPONENT = 0.375


def _diag_window(x: float, lo: int, hi: int) -> Iterator[Tuple[int, Tuple[float, float]]]:
    """``(j, (v, e))`` of one ``_laguerre_run`` at ``x``, for ``lo <= j <= hi``."""
    return itertools.islice(enumerate(_laguerre_run(hi, x)), lo, None)


def _fejer_hits(window: Iterable, x: float, c: float) -> Iterator[Tuple[int, float]]:
    """``(j, |<j|W(u)|j>|)`` along a :func:`_diag_window` (``j >= 1``) at ``x =
    |u|^2`` where the element, formed once as ``exp(log|v| + e - x/2)``, is at
    least ``c * j^{-3/8}``; read lazily, so a caller that stops early stops the
    recurrence too."""
    half = 0.5 * x
    return (
        (j, mag)
        for j, (v, e) in window
        if (mag := math.exp(math.log(abs(v)) + e - half) if v else 0.0)
        >= c * j**-_FEJER_EXPONENT
    )


def fejer_scan(u: complex, j_max: int, c: Optional[float] = None) -> List[int]:
    """Indices ``1 <= j <= j_max`` with ``|<j|W(u)|j>| >= c * j^{-3/8}``.

    The qualifying set has positive density for every ``c``, but the default
    constant holds off its first hit (:func:`default_fejer_constant`): up to
    ``j_max = 20,000`` it finds 17,507 at ``|u| = 1``, 6,494 at 2 and none at 3,
    while the damped ``c = 1/(2 sqrt(2 pi |u|))`` finds about 18,500 at each.
    Raises ``ValueError`` for ``j_max`` above ``_J_MAX_CAP``.
    """
    return list(fejer_stream(u, j_max, c))


def fejer_stream(u: complex, j_max: int, c: Optional[float] = None) -> Iterator[int]:
    """The indices of :func:`fejer_scan`, read lazily, so a caller that counts
    them holds none; every argument is checked before this returns."""
    x = _squared_modulus(u)
    if c is None:
        c = default_fejer_constant(u)
    if not (c > 0.0):
        raise ValueError(f"constant must be positive, got {c}")
    if math.isinf(c):
        raise ValueError(f"constant must be finite, got {c}")
    j_max = _as_index(j_max, "j_max", 1, _J_MAX_CAP)
    return (j for j, _ in _fejer_hits(_diag_window(x, 1, j_max), x, c))


_WITNESS_SCAN = 1024
_WITNESS_SAMPLE = 16
_WITNESS_REACH = 2**20  # caps x/4: the recurrence climbs from k = 0 to the scan


def _witness_sample(hits: Iterable[Tuple[int, float]], expo: float) -> Tuple[int, ...]:
    """The first ``_WITNESS_SAMPLE`` evident hits, whose series term ``e^{-expo
    k} |<k|W(u)|k>|^2`` is at least 1, else every evident hit, else the first
    ``_WITNESS_SAMPLE`` hits; the reading of ``hits`` stops at the last
    evident hit kept."""
    head: List[int] = []
    evident: List[int] = []
    for k, mag in hits:
        if len(head) < _WITNESS_SAMPLE:
            head.append(k)
        if -expo * k + 2.0 * math.log(mag) >= 0.0:
            evident.append(k)
            if len(evident) == _WITNESS_SAMPLE:
                break
    return tuple(evident or head)


def diagonal_divergence_witness(
    r: ModeVector, s: ModeVector, u: Sequence[complex], alpha: float
) -> Optional[DivergenceWitness]:
    """Witness divergence through the diagonal subseries of one mode.

    If some mode has ``alpha r + (1-alpha) s <= 0``, its diagonal series terms
    ``e^{-k (alpha r + (1-alpha) s)} |<W(u) k|k>|^2`` do not decay: along the
    Fejer scan indices the squared element is bounded below by ``C^2 /
    k^{3/4}`` while the exponential factor is nondecreasing.  The scan reads
    up to 1,024 indices from ``max(1, floor(x/4) - 64)``, ``x = |u_j|^2``,
    since the oscillation of ``L_k(x)`` begins near ``k = x/4``, and stops at
    the 16th evident hit, one whose series term has already reached 1; the
    sample is those 16, else every evident hit, else the first 16 hits.  One
    Laguerre pass yields both the scan and the sampled indices.  Returns
    ``None`` when every exponent is positive (the convergent regime).  Raises
    ``ValueError`` where ``x/4 > 2^20`` (``|u_j| > 2048``) and where the scan
    holds no hit, so the sample is never empty.  Preconditions are those of
    :func:`covariance_criterion`.
    """
    ts, bad = _gated_exponents(r, s, alpha)
    _check_lengths(u, r)
    if not bad:
        return None
    j = min(bad, key=lambda j: ts[j - 1])  # the most negative exponent, first on ties
    expo = ts[j - 1]
    uj = complex(u[j - 1])
    if uj == 0:
        # every diagonal element is 1; sample arbitrary indices
        sample = tuple(2**i for i in range(_WITNESS_SAMPLE))
    else:
        # |u_j|^2 is checked finite before C is formed.  C is half the Fejer
        # amplitude of the damped element e^{-|u|^2/2} L_k(|u|^2) at the sine
        # floor; keep the hits whose series term has already reached 1, which
        # is all but a short burn-in when the exponent is negative
        x = _squared_modulus(uj)
        if not x / 4.0 <= _WITNESS_REACH:
            raise ValueError(f"|u| = {abs(uj)} puts the Laguerre oscillation beyond k = 2^20")
        lo = max(1, math.floor(x / 4.0) - 64)
        hi = lo + _WITNESS_SCAN - 1
        c = 1.0 / (2.0 * math.sqrt(2.0 * math.pi * abs(uj)))
        sample = _witness_sample(_fejer_hits(_diag_window(x, lo, hi), x, c), expo)
        if not sample and c > 1.0:
            # |u_j| below about 2.2e-4 puts the first hit past the scan
            # (k >= c^{8/3}); there every element is near 1: take them all
            sample = _witness_sample(_fejer_hits(_diag_window(x, lo, hi), x, 0.0), expo)
        if not sample:
            raise ValueError(f"no Fejer hit among the scanned indices at |u| = {abs(uj)}")
    return DivergenceWitness(
        kind="diagonal-subseries",
        mode=j,
        detail=(
            f"alpha*r + (1-alpha)*s = {expo} <= 0 for mode {j}; the diagonal "
            "series terms are bounded below along the sampled indices"
        ),
        exponent=expo,
        sample_indices=sample,
    )
