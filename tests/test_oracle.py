"""Truncated-Fock-space brute-force validator."""

import math
import warnings

import numpy as np
import pytest

from petz_renyi.displaced import DisplacedThermalSpec, d_alpha_displaced
from petz_renyi.oracle import (
    _element_bound,
    annihilation_matrix,
    displacement_matrix,
    oracle_trace,
    thermal_matrix,
)
from petz_renyi.states import ModeVector, covariance
from petz_renyi.thermal import d_alpha_thermal
from petz_renyi.weyl import weyl_diag, weyl_element


def spec(temps, disp=None):
    return DisplacedThermalSpec(ModeVector(temps), disp)


def test_annihilation_matrix():
    a = annihilation_matrix(4)
    expect = np.zeros((4, 4))
    expect[0, 1] = 1.0
    expect[1, 2] = math.sqrt(2.0)
    expect[2, 3] = math.sqrt(3.0)
    assert np.allclose(a, expect)


def test_thermal_matrix_cases():
    vac = thermal_matrix(math.inf, 4)
    assert np.allclose(vac, np.diag([1.0, 0, 0, 0]))
    g = thermal_matrix(1.0, 64)
    assert g[0, 0].real == pytest.approx(1 - math.exp(-1.0), rel=1e-15)
    assert np.trace(g).real == pytest.approx(1 - math.exp(-64.0), abs=1e-15)
    with pytest.raises(ValueError):
        thermal_matrix(0.0, 8)
    with pytest.raises(ValueError):
        thermal_matrix(1.0, 1)


def test_displacement_matrix_inverse_is_adjoint():
    n = 64
    blk = slice(0, n // 2)
    for u in (0.5, 1 + 1j, 2.0, -1.4j):
        prod = displacement_matrix(u, n) @ displacement_matrix(-u, n)
        dev = np.abs(prod[blk, blk] - np.eye(n // 2)).max()
        assert dev < 1e-8


def test_projective_representation_phase():
    n = 64
    blk = slice(0, 20)
    for u, v in ((0.7 + 0.2j, -0.3 + 0.5j), (1.0, 0.5j)):
        lhs = displacement_matrix(u, n) @ displacement_matrix(v, n)
        phase = np.exp(1j * np.imag(u * np.conj(v)))
        rhs = phase * displacement_matrix(u + v, n)
        assert np.abs(lhs[blk, blk] - rhs[blk, blk]).max() < 1e-6


def test_displacement_matrix_matches_closed_form_elements():
    # dense matrix exponential vs the associated-Laguerre closed form
    n = 64
    for u in (0.5, 1.0, 1 + 1j, 2j):
        w = displacement_matrix(u, n)
        for row in range(0, 25, 3):
            for col in range(0, 25, 4):
                assert w[row, col] == pytest.approx(
                    weyl_element(row, col, u), abs=1e-8
                )
        for j in range(25):
            assert w[j, j] == pytest.approx(weyl_diag(j, u), abs=1e-8)


def test_covariance_preserved_under_displacement():
    n = 64
    a = annihilation_matrix(n)
    q = (a + a.conj().T) / math.sqrt(2.0)
    p = (a - a.conj().T) / (1j * math.sqrt(2.0))
    for s, u in ((1.0, 0.6), (2.0, 0.3 + 0.8j)):
        w = displacement_matrix(u, n)
        rho = w @ thermal_matrix(s, n) @ w.conj().T
        (expect,) = covariance(ModeVector([s]))
        for op in (q, p):
            mean = np.trace(rho @ op).real
            second = np.trace(rho @ op @ op).real
            assert second - mean**2 == pytest.approx(expect, abs=1e-6)


def test_oracle_matches_thermal_closed_form():
    cases = [
        ([1.0], [2.0], 64, (0.3, 0.5, 0.9, 1.5)),
        ([0.8, 1.2], [1.5, 2.0], 64, (0.5, 1.5)),
        ([2.0, 2.5, 3.0], [2.5, 3.0, 4.0], 16, (0.5, 1.5)),
        ([1.0, math.inf], [2.0, math.inf], 64, (0.5, 1.5)),  # vacuum in both
    ]
    for r, s, n, alphas in cases:
        for alpha in alphas:
            tr = oracle_trace(spec(r), spec(s), alpha, n)
            ent = d_alpha_thermal(ModeVector(r), ModeVector(s), alpha)
            expect = math.exp((alpha - 1.0) * ent.value)
            assert tr.value == pytest.approx(expect, rel=1e-10)
            assert tr.clamped == 0


def test_oracle_thermal_where_eigenvalues_leave_double_range():
    # lam_rho^alpha underflows past k ~ 500 and lam_sigma^{1-alpha} = e^{l}
    # overflows past l ~ 709; the sum stays close to its limit
    ent = d_alpha_thermal(ModeVector([1.0]), ModeVector([2.0]), 1.5)
    expect = math.exp(0.5 * ent.value)
    assert expect == pytest.approx(1.3736152605333394, rel=1e-15)
    for n in (400, 1000):
        tr = oracle_trace(spec([1.0]), spec([2.0]), 1.5, n)
        assert tr.value == pytest.approx(expect, rel=1e-10)
    # near alpha* = 2 the terms decay like e^{-0.01 k}: the weights of the
    # terms that matter lie beyond double range on both sides
    ent = d_alpha_thermal(ModeVector([1.0]), ModeVector([2.0]), 1.99)
    tr = oracle_trace(spec([1.0]), spec([2.0]), 1.99, 3000)
    assert tr.value == pytest.approx(math.exp(0.99 * ent.value), rel=1e-10)


def test_oracle_sigma_weights_beyond_double_range():
    # lam_sigma^{1-alpha} = e^{7.5 l} exceeds double range at n = 96
    rho, sigma = spec([10.0], [0.5]), spec([15.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = oracle_trace(rho, sigma, 1.5, 96)
    assert 0.0 < tr.value < math.inf
    # the value where the weights are still in range
    tr = oracle_trace(rho, sigma, 1.5, 64)
    assert tr.value == pytest.approx(1.4522103044392586e36, rel=1e-12)


def test_oracle_vacuum_conventions():
    # sigma vacuum and alpha > 1: 0^{1-alpha} = inf wherever rho has weight
    tr = oracle_trace(spec([1.0]), spec([math.inf]), 1.5, 16)
    assert math.isinf(tr.value)
    # below order one the vanishing terms drop instead
    tr = oracle_trace(spec([1.0]), spec([math.inf]), 0.5, 32)
    assert tr.value == pytest.approx(math.sqrt(1 - math.exp(-1.0)), rel=1e-10)
    # rho vacuum never hurts: 0 * inf = 0
    tr = oracle_trace(spec([math.inf]), spec([2.0]), 0.5, 32)
    expect = math.sqrt(1 - math.exp(-2.0))
    assert tr.value == pytest.approx(expect, rel=1e-10)


def test_oracle_matches_displaced_series():
    rho = spec([1.0], [1.0])
    sigma = spec([2.0], [0.0])
    for alpha in (0.3, 0.7, 1.5):
        res = d_alpha_displaced(rho, sigma, alpha)
        expect = math.exp(res.series.log_sum)
        tr = oracle_trace(rho, sigma, alpha, 96)
        assert tr.value == pytest.approx(expect, rel=1e-6)


def test_oracle_both_displaced_above_one():
    rho = spec([1.0], [0.5 + 0.3j])
    sigma = spec([2.0], [-0.2j])
    res = d_alpha_displaced(rho, sigma, 1.5)
    tr = oracle_trace(rho, sigma, 1.5, 96)
    assert tr.value == pytest.approx(math.exp(res.series.log_sum), rel=1e-8)


def test_oracle_two_mode_displaced():
    rho = spec([0.8, 1.2], [0.6, 0.0])
    sigma = spec([1.5, 2.0], [0.0, 0.3j])
    for alpha in (0.5, 1.3):
        res = d_alpha_displaced(rho, sigma, alpha)
        tr = oracle_trace(rho, sigma, alpha, 48)
        assert tr.value == pytest.approx(math.exp(res.series.log_sum), rel=1e-8)


def test_truncation_convergence_rate():
    rho = spec([1.0], [1.0])
    sigma = spec([2.0], [0.0])
    # at order 1.5 the truncated trace still carries visible tail mass at
    # N=32 (the 0.5 case is already converged to roundoff there)
    t32 = oracle_trace(rho, sigma, 1.5, 32).value
    t64 = oracle_trace(rho, sigma, 1.5, 64).value
    t128 = oracle_trace(rho, sigma, 1.5, 128).value
    assert abs(t32 - t64) >= 10.0 * abs(t64 - t128)


def test_oracle_identical_states():
    rho = spec([1.0], [0.7])
    tr = oracle_trace(rho, rho, 0.5, 64)
    assert tr.value == pytest.approx(1.0, rel=1e-10)


def test_oracle_validation():
    rho, sigma = spec([1.0]), spec([2.0])
    with pytest.raises(ValueError):
        oracle_trace(rho, sigma, 1.0, 32)
    with pytest.raises(ValueError):
        oracle_trace(rho, sigma, -0.5, 32)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError):
            oracle_trace(rho, sigma, alpha, 32)
    with pytest.raises(ValueError):
        oracle_trace(rho, spec([2.0, 3.0]), 0.5, 32)
    with pytest.raises(ValueError):
        oracle_trace(rho, sigma, 0.5, 1)
    with pytest.raises(ValueError):
        oracle_trace(spec([1.0, 1.0]), spec([2.0, 2.0]), 0.5, 96)  # guard
    with pytest.raises(ValueError):
        oracle_trace(spec([1.0], [1.0]), spec([math.inf], [0.0]), 1.5, 32)


def _dense_power(mat, p):
    # fractional power through eigh; eigenvalues at roundoff level are the
    # exact zeros of vacuum modes (the true spectra here stay above 1e-10)
    w, v = np.linalg.eigh(mat)
    w = np.where(w > 1e-13, w, 0.0)
    return (v * w**p) @ v.conj().T


def _dense_state(state, n):
    out = np.ones((1, 1))
    for s, u in zip(state.temps, state.displacement):
        g = thermal_matrix(s, n)
        if u != 0:
            w = displacement_matrix(u, n)
            g = w @ g @ w.conj().T
        out = np.kron(out, g)
    return out


def test_structured_route_matches_dense_reference():
    n = 12
    pairs = [
        (spec([0.8], [0.7]), spec([1.0], [0.0])),
        (spec([0.8], [0.5 + 0.3j]), spec([1.0], [-0.4j])),
        (spec([0.8, 1.0], [0.6, 0.0]), spec([0.9, 0.7], [0.0, 0.3j])),
        (spec([0.8, 1.0], [0.5, 0.2j]), spec([0.9, math.inf], [0.0, -0.3])),
    ]
    for rho, sigma in pairs:
        dense_rho, dense_sigma = _dense_state(rho, n), _dense_state(sigma, n)
        for alpha in (0.3, 0.7):
            expect = np.trace(
                _dense_power(dense_rho, alpha) @ _dense_power(dense_sigma, 1.0 - alpha)
            ).real
            tr = oracle_trace(rho, sigma, alpha, n)
            assert tr.value == pytest.approx(expect, rel=1e-12)
            assert tr.clamped == 0


def _scalar_bound(u, n):
    x = abs(u) ** 2
    log_u = 0.5 * math.log(x)
    out = np.empty((n, n))
    for el in range(n):
        for k in range(n):
            t = [
                (el + k - 2 * j) * log_u
                + 0.5 * (math.lgamma(el + 1) + math.lgamma(k + 1))
                - math.lgamma(el - j + 1)
                - math.lgamma(k - j + 1)
                - math.lgamma(j + 1)
                for j in range(min(el, k) + 1)
            ]
            top = max(t)
            log_sum = top + math.log(math.fsum(math.exp(v - top) for v in t))
            out[el, k] = math.exp(min(700.0, -0.5 * x + log_sum))
    return out


def test_element_bound_matches_scalar_loop():
    for u in (0.3j, 1.0, 1 + 1j, 3.0):
        for n in (2, 7, 24):
            got = _element_bound(u, n)
            assert got == pytest.approx(_scalar_bound(u, n), rel=1e-13, abs=0.0)


def test_element_bound_dominates_displacement_matrix():
    n = 24
    for u in (0.3j, 1.0, 1 + 1j):
        w = displacement_matrix(u, 2 * n)[:n, :n]
        assert (np.abs(w) <= _element_bound(u, n) * (1 + 1e-8) + 1e-12).all()


def _full_kronecker_trace(r, s, u_rho, u_sigma, alpha, n):
    # the whole (n^2 x n^2) overlap at once, zeroing entries with m2 > 4 b^2
    m2 = np.ones((1, 1))
    b = np.ones((1, 1))
    w_rho = np.ones(1)
    w_sigma = np.ones(1)
    for rj, sj, u1, u2 in zip(r, s, u_rho, u_sigma):
        mode_m, mode_b = np.eye(n), np.eye(n)
        if u1 != 0:
            mode_m, mode_b = displacement_matrix(u1, n), _element_bound(u1, n)
        if u2 != 0:
            mode_m = displacement_matrix(u2, n).conj().T @ mode_m
            mode_b = _element_bound(u2, n).T @ mode_b
        m2 = np.kron(m2, np.abs(mode_m) ** 2)
        b = np.kron(b, mode_b)
        w_rho = np.kron(w_rho, np.diag(thermal_matrix(rj, n)).real ** alpha)
        w_sigma = np.kron(w_sigma, np.diag(thermal_matrix(sj, n)).real ** (1 - alpha))
    noisy = m2 > 4.0 * b**2
    value = (w_sigma[:, None] * w_rho[None, :] * np.where(noisy, 0.0, m2)).sum()
    return value, int(np.count_nonzero(noisy))


def test_blocked_clamp_matches_full_kronecker():
    n, alpha = 24, 1.5
    r, s = (0.8, 1.2), (1.5, 2.0)
    # each mode displaced in rho only, in sigma only, in both or in neither
    for u_rho, u_sigma in (
        ((0.6, 0.0), (0.0, 0.3j)),
        ((0.6, 0.2), (0.0, 0.3j)),
        ((0.5, 0.0), (0.0, 0.0)),
    ):
        expect, clamped = _full_kronecker_trace(r, s, u_rho, u_sigma, alpha, n)
        tr = oracle_trace(spec(list(r), list(u_rho)), spec(list(s), list(u_sigma)), alpha, n)
        assert tr.clamped == clamped > 0
        assert tr.value == pytest.approx(expect, rel=1e-12)


def test_oracle_displaced_against_vacuum_below_one():
    rho = spec([1.0], [1.0])
    sigma = spec([math.inf])
    res = d_alpha_displaced(rho, sigma, 0.5)
    tr = oracle_trace(rho, sigma, 0.5, 48)
    assert tr.value == pytest.approx(math.exp(res.series.log_sum), rel=1e-6)
    assert tr.clamped == 0


def test_oracle_weights_where_sigma_eigenvalues_underflow():
    # e^{-15 l} underflows for l >= 50, but lam_sigma^{1-alpha} = e^{1.5 l}
    # stays finite: the weights are formed in the log domain
    rho = spec([10.0], [0.1])
    sigma = spec([15.0])
    res = d_alpha_displaced(rho, sigma, 1.1)
    tr = oracle_trace(rho, sigma, 1.1, 64)
    assert tr.value == pytest.approx(math.exp(res.series.log_sum), rel=1e-10)
