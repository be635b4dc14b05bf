"""Dense truncated operators, the tests' references for the oracle's sums."""

import math

import numpy as np

from petz_renyi.states import log1mexp


def annihilation_matrix(n):
    """Truncated annihilation operator: entry ``(j-1, j) = sqrt(j)``."""
    return np.diag(np.sqrt(np.arange(1.0, n)), k=1).astype(complex)


def thermal_matrix(s, n):
    """Truncated thermal state: ``diag((1-e^{-s}) e^{-k s})``; vacuum for ``s = inf``."""
    if math.isinf(s):
        d = np.zeros(n)
        d[0] = 1.0
        return np.diag(d).astype(complex)
    k = np.arange(n)
    return np.diag(np.exp(log1mexp(s) - k * s)).astype(complex)
