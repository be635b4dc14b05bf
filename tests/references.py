"""Test-side references, built without the package they check.

Nothing here imports ``petz_renyi`` (``test_thermal.py`` pins this), so a
defect in the package cannot hide in its own reference.
"""

from fractions import Fraction


def exact_exponents(r, s, alpha):
    """``t_j = alpha r_j + (1-alpha) s_j`` of the doubles given, as exact
    rationals, ``1 - alpha`` exact too: the theorem's ``D_alpha`` is finite
    iff every ``t_j > 0`` (with support contained)."""
    fa = Fraction(float(alpha))
    return [fa * Fraction(float(rj)) + (1 - fa) * Fraction(float(sj)) for rj, sj in zip(r, s)]
