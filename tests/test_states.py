"""Spectral data and parameterization of thermal mode vectors."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petz_renyi.states import (
    ModeVector,
    covariance,
    eigenvalue,
    eigenvalue_log,
    log1mexp,
    power_reparam,
    support_set,
)

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


def test_support_set_one_based():
    assert support_set(ModeVector([1.0, math.inf, 2.0])) == {1, 3}
    assert support_set(ModeVector([math.inf])) == frozenset()


def test_eigenvalue_small_cases():
    s = ModeVector([1.0])
    assert eigenvalue((0,), s) == pytest.approx(1 - math.exp(-1), rel=1e-15)
    assert eigenvalue((3,), s) == pytest.approx((1 - math.exp(-1)) * math.exp(-3), rel=1e-15)


def test_eigenvalue_vacuum_branches():
    vac = ModeVector([math.inf])
    assert eigenvalue((0,), vac) == 1.0
    assert eigenvalue((1,), vac) == 0.0
    assert eigenvalue_log((1,), vac) == -math.inf
    mixed = ModeVector([math.inf, 1.0])
    assert eigenvalue((0, 2), mixed) == pytest.approx(
        (1 - math.exp(-1)) * math.exp(-2), rel=1e-15
    )
    assert eigenvalue((1, 0), mixed) == 0.0


def test_eigenvalue_rejects_bad_occupations():
    s = ModeVector([1.0])
    with pytest.raises(ValueError):
        eigenvalue((-1,), s)
    with pytest.raises(ValueError):
        eigenvalue((0, 0), s)


@given(
    k1=st.integers(0, 8),
    k2=st.integers(0, 8),
    s1=st.floats(0.1, 10),
    s2=st.floats(0.1, 10),
)
@settings(max_examples=60, deadline=None)
def test_factorization_over_modes(k1, k2, s1, s2):
    joint = eigenvalue((k1, k2), ModeVector([s1, s2]))
    prod = eigenvalue((k1,), ModeVector([s1])) * eigenvalue((k2,), ModeVector([s2]))
    assert joint == pytest.approx(prod, rel=1e-13)


def test_normalization_tail_bound():
    # partial sum over |k|_inf <= K approaches 1 with the stated tail bound
    s = ModeVector([1.0, 0.5])
    for big_k in (5, 10, 20):
        total = sum(
            eigenvalue((k1, k2), s)
            for k1 in range(big_k + 1)
            for k2 in range(big_k + 1)
        )
        smin = min(s.temps)
        bound = 2 * math.exp(-(big_k + 1) * smin) / (1 - math.exp(-smin))
        assert total <= 1.0 + 1e-12
        assert 1.0 - total <= bound


def test_covariance_entries():
    assert covariance(ModeVector([math.inf]))[0] == 0.5
    assert covariance(ModeVector([2.0]))[0] == pytest.approx(
        0.656517642749665652, rel=1e-15
    )
    assert covariance(ModeVector([0.7]), 1.6)[0] == pytest.approx(
        0.984295694294160479, rel=1e-15
    )


@given(s=st.floats(0.05, 20), alpha=st.floats(0.1, 10))
@settings(max_examples=60, deadline=None)
def test_covariance_reparam_identity(s, alpha):
    direct = covariance(ModeVector([s]), alpha)
    via_power = covariance(power_reparam(ModeVector([s]), alpha), 1.0)
    assert direct == via_power  # exact: same arithmetic path


@given(s=st.floats(0.05, 30))
@settings(max_examples=60, deadline=None)
def test_covariance_floor(s):
    # beyond s ~ 36 the coth saturates to exactly 1/2 in double precision,
    # so the strict inequality is only testable below that
    (c,) = covariance(ModeVector([s]))
    assert c > 0.5
    assert covariance(ModeVector([math.inf]))[0] == 0.5


def test_power_reparam_examples():
    assert power_reparam(ModeVector([1.0, 2.0]), 3.0).temps == (3.0, 6.0)
    assert power_reparam(ModeVector([math.inf]), 0.5).temps == (math.inf,)
    assert power_reparam(ModeVector([0.7]), 2.0).temps == (1.4,)
    with pytest.raises(ValueError):
        power_reparam(ModeVector([1.0]), 0.0)
