"""Spectral data and parameterization of thermal mode vectors."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petz_renyi.states import ModeVector, covariance, log1mexp

# frozen arbitrary-precision references (40-digit evaluation of log(1-e^{-x}))
LOG1MEXP_REF = {
    1e-4: -9.21039037155951607,
    0.25: -1.50869154944603213,
    0.6931: -0.693194363346000885,
    1.0: -0.458675145387081891,
    5.0: -0.00676074944948855783,
    40.0: -4.248354255291589e-18,
}


def test_log1mexp_matches_reference():
    for x, ref in LOG1MEXP_REF.items():
        assert log1mexp(x) == pytest.approx(ref, rel=1e-15)


def test_log1mexp_limits_and_errors():
    assert log1mexp(math.inf) == 0.0
    with pytest.raises(ValueError):
        log1mexp(0.0)
    with pytest.raises(ValueError):
        log1mexp(-1.0)
    # nan fails x > 0 too, so it is refused rather than passed through
    with pytest.raises(ValueError, match="requires x > 0, got nan"):
        log1mexp(math.nan)


def test_mode_vector_validation():
    with pytest.raises(ValueError):
        ModeVector([])
    with pytest.raises(ValueError):
        ModeVector([0.0])
    with pytest.raises(ValueError):
        ModeVector([-1.0])
    with pytest.raises(ValueError):
        ModeVector([math.nan])
    mv = ModeVector([1.0, math.inf])
    assert len(mv) == 2
    assert mv[1] == math.inf


def test_covariance_entries():
    assert covariance(ModeVector([math.inf]))[0] == 0.5
    assert covariance(ModeVector([2.0]))[0] == pytest.approx(
        0.656517642749665652, rel=1e-15
    )
    assert covariance(ModeVector([0.7]), 1.6)[0] == pytest.approx(
        0.984295694294160479, rel=1e-15
    )
    # coth(s/2)/2 beyond double range, also where tanh(s/2) underflows to 0
    assert covariance([1e-309]) == covariance([5e-324]) == (math.inf,)



def test_covariance_rejects_non_positive_power():
    for alpha in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="power must be positive"):
            covariance(ModeVector([1.0]), alpha)

@given(s=st.floats(0.05, 30))
@settings(max_examples=60, deadline=None)
def test_covariance_floor(s):
    # beyond s ~ 36 the coth saturates to exactly 1/2 in double precision,
    # so the strict inequality is only testable below that
    (c,) = covariance(ModeVector([s]))
    assert c > 0.5
    assert covariance(ModeVector([math.inf]))[0] == 0.5
