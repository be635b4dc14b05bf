"""Laguerre recurrences, Weyl matrix elements, and the decay scan."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petz_renyi.weyl import (
    default_fejer_constant,
    fejer_scan,
    laguerre,
    sine_interval_indices,
    weyl_diag,
    weyl_diag_sequence,
    weyl_element,
)


def laguerre_rational(j, x):
    """Exact-rational binomial sum; catastrophic beyond ~degree 20 in floats,
    exact here because every operand is a Fraction."""
    xf = Fraction(x)
    total = Fraction(0)
    for i in range(j + 1):
        total += Fraction((-1) ** i * math.comb(j, i), math.factorial(i)) * xf**i
    return total


def test_laguerre_matches_rational_sum():
    for x in (0.1, 1.0, 2.0, 5.0, 10.0):
        for j in range(41):
            exact = float(laguerre_rational(j, x))
            got = laguerre(j, x)
            assert got == pytest.approx(exact, rel=1e-10, abs=1e-280)


def test_laguerre_validation():
    with pytest.raises(ValueError):
        laguerre(3, -0.5)
    with pytest.raises(ValueError):
        laguerre(-1, 1.0)


def test_laguerre_large_degree_no_overflow():
    # the scaled recurrence keeps huge intermediate magnitudes usable
    v = laguerre(200000, 1.0)
    assert math.isfinite(v)


def test_weyl_diag_small_cases():
    assert weyl_diag(0, 0) == 1.0
    for u in (0.5, 1 + 1j, 2j):
        x = abs(u) ** 2
        assert weyl_diag(0, u) == pytest.approx(math.exp(-x / 2), rel=1e-14)
    # e^{-1} L_3(2), frozen from the exact rational sum
    assert weyl_diag(3, 1 + 1j) == pytest.approx(-0.122626480390480774, rel=1e-13)


def test_weyl_diag_sequence_agrees_pointwise():
    for u in (0.5, 1.0, 1 + 1j):
        seq = weyl_diag_sequence(120, u)
        for j in (0, 1, 7, 50, 120):
            assert seq[j] == pytest.approx(weyl_diag(j, u), rel=1e-13, abs=1e-300)


def test_weyl_element_diagonal_consistency():
    for u in (0.7, 1 + 0.5j):
        for j in range(51):
            el = weyl_element(j, j, u)
            assert el.imag == pytest.approx(0.0, abs=1e-300)
            assert el.real == pytest.approx(weyl_diag(j, u), rel=1e-12, abs=1e-300)


def test_weyl_elements_check_degree_and_displacement():
    helpers = (
        weyl_diag,
        weyl_diag_sequence,
        lambda j, u: weyl_element(j, j, u),
        lambda j, u: weyl_element(j + 1, j, u),
    )
    for f in helpers:
        with pytest.raises(ValueError, match="degree"):
            f(-1, 1.0)
        for u in (1e200, complex(0.0, 1e200), math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                f(2, u)
    # u = 0 is valid: the identity
    assert weyl_diag(5, 0) == 1.0
    assert list(weyl_diag_sequence(3, 0)) == [1.0] * 4


def test_degrees_and_counts_must_be_integers():
    calls = (
        ("degree", lambda j: laguerre(j, 1.0)),
        ("degree", lambda j: weyl_diag(j, 1.0)),
        ("degree", lambda j: weyl_diag_sequence(j, 1.0)),
        ("degree", lambda j: weyl_element(j, 1, 1.0)),
        ("degree", lambda j: weyl_element(1, j, 1.0)),
        ("j_max", lambda j: fejer_scan(1.0, j)),
        ("m_max", lambda j: sine_interval_indices(0.1, j)),
    )
    for what, f in calls:
        for j in (2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match=f"{what} must be an integer"):
                f(j)
    # numpy integers are integers
    assert laguerre(np.int64(5), 1.0) == laguerre(5, 1.0)
    assert weyl_element(np.int64(3), np.int32(1), 1.0) == weyl_element(3, 1, 1.0)
    assert list(weyl_diag_sequence(np.int64(3), 0.5)) == list(weyl_diag_sequence(3, 0.5))
    assert fejer_scan(1.0, np.int64(50)) == fejer_scan(1.0, 50)
    assert sine_interval_indices(0.1, np.int32(3)) == sine_interval_indices(0.1, 3)


def test_weyl_diag_is_the_element_diagonal():
    for u in (0, 1e-170, 0.3, 1 + 1j, 7j, 12.0):
        for j in (0, 1, 17, 150):
            assert weyl_diag(j, u) == weyl_element(j, j, u).real


def test_weyl_element_identity_at_zero():
    assert weyl_element(2, 2, 0) == 1.0
    assert weyl_element(3, 2, 0) == 0.0


@given(
    row=st.integers(0, 60),
    col=st.integers(0, 60),
    re=st.floats(-2, 2),
    im=st.floats(-2, 2),
)
@settings(max_examples=100, deadline=None)
def test_weyl_element_adjoint_symmetry(row, col, re, im):
    u = complex(re, im)
    a = weyl_element(row, col, u)
    b = weyl_element(col, row, -u).conjugate()
    assert a.real == pytest.approx(b.real, rel=1e-12, abs=1e-300)
    assert a.imag == pytest.approx(b.imag, rel=1e-12, abs=1e-300)


def test_unitarity_column_sums():
    n = 64
    for u in (0.5, -1.3, 1 + 1j, 1.4 - 1.4j, 2.0):
        assert abs(u) <= 2.0 + 1e-12
        for k in range(17):
            total = sum(abs(weyl_element(el, k, u)) ** 2 for el in range(n))
            assert total <= 1.0 + 1e-12
            assert 1.0 - total < 1e-6


def test_fejer_residual_slope():
    # the residual against the leading asymptotic decays like j^{-3/4}:
    # fit the log-log envelope slope over two decades
    for x in (0.25, 1.0, 4.0):
        u = math.sqrt(x)
        jmax = 100000
        vals = weyl_diag_sequence(jmax, u)
        js = np.arange(100, jmax + 1)
        main = (
            math.exp(-x / 2.0)
            * math.exp(x / 2.0)
            / (np.pi**2 * x * js) ** 0.25
            * np.sin(2.0 * np.sqrt(js * x) + np.pi / 4.0)
        )
        resid = np.abs(vals[100:] - main)
        edges = np.geomspace(100, jmax, 13)
        centers, peaks = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (js >= lo) & (js < hi)
            centers.append(math.sqrt(lo * hi))
            peaks.append(resid[sel].max())
        slope = np.polyfit(np.log(centers), np.log(peaks), 1)[0]
        assert abs(slope - (-0.75)) < 0.15


def test_sine_interval_witnesses():
    for u in (1.0, 0.5 + 0.5j):
        wits = sine_interval_indices(u, 40)
        assert wits  # large m intervals have width > 1
        prev_hi = -1.0
        for w in wits:
            assert w.lo < w.j < w.hi
            assert w.lo > prev_hi  # pairwise disjoint, increasing
            prev_hi = w.hi
            sine = abs(math.sin(2.0 * math.sqrt(w.j) * abs(u) + math.pi / 4.0))
            assert sine >= 1.0 / math.sqrt(2.0)


def test_sine_interval_validation():
    with pytest.raises(ValueError):
        sine_interval_indices(0, 5)
    with pytest.raises(ValueError):
        sine_interval_indices(1.0, 0)


def test_out_of_range_inputs_raise_value_error():
    with pytest.raises(ValueError, match="double range"):
        laguerre(500, 2000.0)
    # e^{|u|^2/2} overflows beyond |u| ~ 37.7; |u|^2 itself beyond ~1.3e154
    for u in (40.0, 1e200, complex(0.0, 1e200)):
        with pytest.raises(ValueError):
            default_fejer_constant(u)
    for u in (math.nan, math.inf, complex(1.0, math.nan), 1e200):
        with pytest.raises(ValueError, match="finite"):
            sine_interval_indices(u, 5)
        with pytest.raises(ValueError, match="finite"):
            fejer_scan(u, 10, c=1e-3)
    # phase intervals beyond double range for a tiny displacement
    with pytest.raises(ValueError, match="double range"):
        sine_interval_indices(1e-170, 3)
    # the scan itself is fine there: |u|^2 underflows and every element is 1
    assert fejer_scan(1e-170, 4, c=0.5) == [1, 2, 3, 4]


def test_default_fejer_constant_value():
    # e^{1/2} / (2 sqrt(2 pi)) at |u| = 1, bit for bit
    assert default_fejer_constant(1) == math.exp(0.5) / (2.0 * math.sqrt(2.0 * math.pi))
    assert default_fejer_constant(37.0) == pytest.approx(
        math.exp(684.5) / (2.0 * math.sqrt(74.0 * math.pi)), rel=1e-14
    )


def test_fejer_scan_density():
    hits = fejer_scan(1.0, 1000)
    assert len(hits) >= 100
    assert all(1 <= j <= 1000 for j in hits)


def test_fejer_scan_monotone_in_constant():
    base = set(fejer_scan(1.0, 2000))
    stricter = set(fejer_scan(1.0, 2000, c=2.0 * default_fejer_constant(1.0)))
    assert stricter <= base


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_fejer_scan_rejects_a_non_finite_constant(c):
    with pytest.raises(ValueError, match="constant must be"):
        fejer_scan(1.0, 100, c=c)


def test_fejer_scan_validation():
    with pytest.raises(ValueError):
        fejer_scan(0, 100)
    with pytest.raises(ValueError):
        fejer_scan(1.0, 100, c=0.0)
    with pytest.raises(ValueError):
        fejer_scan(1.0, 0)
    with pytest.raises(ValueError):
        default_fejer_constant(0)
