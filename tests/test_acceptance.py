"""Acceptance gate: theorem reproduction and oracle equivalence at desk scale.

Each test prints a single PASS/FAIL line (bypassing capture) and enforces its
runtime budget.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from petz_renyi.cli import main
from petz_renyi.oracle import displacement_matrix, oracle_trace
from petz_renyi.states import DisplacedThermalSpec, ModeVector, covariance
from petz_renyi.thermal import (
    alpha_threshold,
    covariance_criterion,
    d_alpha_displaced,
    d_alpha_thermal,
)
from petz_renyi.weyl import diagonal_divergence_witness, fejer_scan, sine_interval_indices

from laguerre import laguerre, weyl_diag
from references import exact_exponents
from test_weyl import laguerre_rational


def spec(temps, disp=None):
    return DisplacedThermalSpec(ModeVector(temps), disp)


class Gate:
    """Runs one criterion, reports a terminal line, enforces the budget."""

    def __init__(self, capsys, number, name, budget):
        self.capsys = capsys
        self.number = number
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        if exc_type is None and elapsed >= self.budget:
            verdict = "FAIL (over budget)"
        with self.capsys.disabled():
            print(
                f"acceptance {self.number} [{self.name}]: {verdict} "
                f"({elapsed:.2f}s / budget {self.budget:.0f}s)"
            )
        if exc_type is None:
            assert elapsed < self.budget, f"runtime {elapsed:.2f}s over budget"
        return False


def _occupation(z):
    # covariance of the normalized power state at inverse temperature z, less
    # the vacuum's 1/2: coth(z/2)/2 - 1/2 = 1/(e^z - 1), which keeps the
    # digits that coth in floats loses once z is large
    return 1.0 / math.expm1(z)


def _check_verdict(r, s, u, alpha):
    """Compare the package's three verdicts with ones it does not compute.

    Returns whether the covariance comparison falls inside its 1e-9 band,
    where it decides nothing (exactly at a threshold the covariances agree).
    """
    rho, sigma = spec(list(r), list(u)), spec(list(s))
    finite = covariance_criterion(rho.temps, sigma.temps, alpha)
    witness = diagonal_divergence_witness(rho.temps, sigma.temps, list(u), alpha)
    assert finite == d_alpha_displaced(rho, sigma, alpha).entropy.finite == (witness is None)
    ts = exact_exponents(r, s, alpha)
    assert finite == all(t > 0 for t in ts)
    # the theorem's covariance form: V(sigma^{alpha-1}) > V(rho^alpha) per mode
    cov_s, cov_r = covariance(list(s), alpha - 1.0), covariance(list(r), alpha)
    excess = [(_occupation((alpha - 1.0) * sj), _occupation(alpha * rj)) for rj, sj in zip(r, s)]
    for v, (e, _) in zip(cov_s, excess):
        assert v == pytest.approx(0.5 + e, rel=1e-14)
    for v, (_, e) in zip(cov_r, excess):
        assert v == pytest.approx(0.5 + e, rel=1e-14)
    in_band = any(abs(a - b) <= 1e-9 * max(a, b) for a, b in excess)
    if not in_band:
        assert finite == all(a > b for a, b in excess)
    if not finite:
        # the sampled diagonal terms e^{-t k} |<k|W(u)|k>|^2, from mpmath Laguerre
        # values: at least 1 past the threshold, at least the Fejer floor C^2
        # k^{-3/4} of the scan on it (t = 0)
        t = ts[witness.mode - 1]
        assert t <= 0 and witness.sample_indices
        uj = complex(u[witness.mode - 1])
        x = mp.mpf(abs(uj) ** 2)
        c2 = 1.0 / (8.0 * math.pi * abs(uj)) if uj != 0 else 1.0
        for k in witness.sample_indices:
            term = mp.exp(-k * mp.mpf(t.numerator) / t.denominator) * (
                mp.exp(-x / 2) * mp.laguerre(k, 0, x)
            ) ** 2
            assert term >= (1 if t < 0 else c2 * k**-0.75)
    return in_band


def test_criterion_1_threshold_theorem(capsys):
    with Gate(capsys, 1, "threshold theorem equivalence", 5.0):
        rng = np.random.default_rng(20230817)
        in_band = 0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            r = rng.uniform(0.1, 10.0, n)
            s = rng.uniform(0.1, 10.0, n)
            u = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
            alpha = float(rng.uniform(1.0, 20.0))
            if alpha == 1.0:
                continue
            in_band += _check_verdict(r, s, u, alpha)
        assert in_band == 0
        # exact boundaries that doubles hold: divergent at alpha* (t = 0),
        # finite one ulp below it; the covariances agree to the band at both,
        # so the exact exponents decide
        for r, s in ((1.0, 2.0), (0.5, 1.5)):
            star = s / (s - r)
            for alpha, finite in ((star, False), (math.nextafter(star, 0.0), True)):
                assert (exact_exponents([r], [s], alpha)[0] > 0) == finite
                for u in (1.0, 0.0):
                    assert d_alpha_displaced(spec([r], [u]), spec([s]), alpha).entropy.finite == finite
                    assert _check_verdict([r], [s], [u], alpha)


def test_criterion_2_closed_form_vs_series(capsys):
    with Gate(capsys, 2, "closed form vs partial sums", 10.0):
        mp.mp.dps = 40
        rng = np.random.default_rng(42)
        big_k = 400
        done = 0
        while done < 50:
            n = int(rng.integers(1, 4))
            r = rng.uniform(0.1, 10.0, n)
            s = rng.uniform(0.1, 10.0, n)
            star = alpha_threshold(ModeVector(list(r)), ModeVector(list(s))).alpha_star
            if done % 2 == 0:
                alpha = float(rng.uniform(0.05, 0.95))
            else:
                hi = min(0.9 * star, 20.0)
                if hi <= 1.0:
                    continue
                alpha = float(rng.uniform(1.0, hi))
            t = [alpha * rj + (1.0 - alpha) * sj for rj, sj in zip(r, s)]
            if min(t) * (big_k + 1) < 30.0:
                continue  # K=400 truncation itself above the comparison floor
            log_q = mp.mpf(0)
            for rj, sj, tj in zip(r, s, t):
                ratio = mp.e ** (-mp.mpf(tj))
                term, total = mp.mpf(1), mp.mpf(0)
                for _ in range(big_k + 1):
                    total += term
                    term *= ratio
                log_q += (
                    alpha * mp.log(1 - mp.e ** (-mp.mpf(rj)))
                    + (1 - alpha) * mp.log(1 - mp.e ** (-mp.mpf(sj)))
                    + mp.log(total)
                )
            ref = float(log_q / (alpha - 1))
            got = d_alpha_thermal(ModeVector(list(r)), ModeVector(list(s)), alpha)
            assert got.finite
            assert got.value == pytest.approx(ref, rel=1e-12, abs=1e-12)
            done += 1


def test_criterion_3_oracle_undisplaced(capsys):
    with Gate(capsys, 3, "oracle equivalence undisplaced", 5.0):
        for alpha in (0.3, 0.5, 0.9, 1.5):
            ent = d_alpha_thermal(ModeVector([1.0]), ModeVector([2.0]), alpha)
            expect = math.exp((alpha - 1.0) * ent.value)
            tr = oracle_trace(spec([1.0]), spec([2.0]), alpha, 64)
            assert abs(tr.value - expect) / expect < 1e-10


def test_criterion_4_oracle_displaced(capsys):
    with Gate(capsys, 4, "oracle equivalence displaced", 30.0):
        rho = spec([1.0], [1.0])
        sigma = spec([2.0], [0.0])
        for alpha in (0.3, 0.7, 1.5):
            res = d_alpha_displaced(rho, sigma, alpha)
            expect = math.exp((alpha - 1.0) * res.entropy.value)
            tr = oracle_trace(rho, sigma, alpha, 96)
            assert abs(tr.value - expect) / expect < 1e-6


def test_criterion_5_laguerre_weyl_diagonal(capsys):
    with Gate(capsys, 5, "Laguerre and Weyl diagonal", 10.0):
        for u in (0.5, 1.0, 1 + 1j, 2j):
            w = displacement_matrix(u, 64)
            for j in range(25):
                assert abs(w[j, j] - weyl_diag(j, u)) < 1e-8
        for x in (0.1, 1.0, 2.0, 5.0, 10.0):
            for j in range(41):
                exact = float(laguerre_rational(j, x))
                assert laguerre(j, x) == pytest.approx(exact, rel=1e-10, abs=1e-280)


def test_criterion_6_fejer_bound(capsys):
    with Gate(capsys, 6, "Fejer lower bound scan", 5.0):
        small = len(fejer_scan(1.0, 10**3))
        large = len(fejer_scan(1.0, 10**4))
        assert large >= 0.9 * 10 * small  # no saturation: ~linear growth
        for w in sine_interval_indices(1.0, 60):
            sine = abs(math.sin(2.0 * math.sqrt(w.j) + math.pi / 4.0))
            assert sine >= 1.0 / math.sqrt(2.0)


def test_criterion_7_divergence_boundary(capsys, tmp_path):
    with Gate(capsys, 7, "divergence boundary sweep", 5.0):
        rho = tmp_path / "rho.json"
        sigma = tmp_path / "sigma.json"
        rho.write_text(json.dumps({"temps": [1.0]}))
        sigma.write_text(json.dumps({"temps": [2.0]}))
        code = main(
            [
                "sweep", str(rho), str(sigma),
                "--alpha-min", "1.5", "--alpha-max", "2.5", "--steps", "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 10
        flags = [row[1] == "true" for row in rows]
        alphas = [float(row[0]) for row in rows]
        # finite exactly up to the last grid point below alpha* = 2
        assert flags == [a < 2.0 for a in alphas]
        # monotone increase towards the threshold on (1, 2)
        grid = [1.1 + 0.1 * i for i in range(9)]
        vals = [
            d_alpha_thermal(ModeVector([1.0]), ModeVector([2.0]), a).value
            for a in grid
        ]
        for lo, hi in zip(vals, vals[1:]):
            assert hi > lo - 1e-9


def test_criterion_8_invariance_suite(capsys):
    with Gate(capsys, 8, "invariance suite", 20.0):
        rng = np.random.default_rng(7)
        for i in range(20):
            n = int(rng.integers(1, 3))
            temps = list(rng.uniform(0.3, 5.0, n))
            u = list(rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n))
            alpha = float(rng.choice([0.4, 0.8, 1.5, 3.0]))
            rho = spec(temps, u)
            res = d_alpha_displaced(rho, rho, alpha)
            assert abs(res.entropy.value) < 1e-10
        # common displacement shift leaves the entropy unchanged
        rho = spec([1.0, 2.0], [0.4 + 0.3j, -0.2j])
        sigma = spec([1.5, 2.5], [0.1, 0.5])
        shift = [0.9 - 0.4j, -0.6 + 1.1j]
        for alpha in (0.5, 1.2):
            base = d_alpha_displaced(rho, sigma, alpha).entropy.value
            moved = d_alpha_displaced(
                spec([1.0, 2.0], [a + c for a, c in zip(rho.displacement, shift)]),
                spec([1.5, 2.5], [b + c for b, c in zip(sigma.displacement, shift)]),
                alpha,
            ).entropy.value
            assert abs(moved - base) < 1e-10
        # tensor additivity over two modes
        for alpha in (0.5, 1.2):
            joint = d_alpha_displaced(rho, sigma, alpha).entropy.value
            parts = sum(
                d_alpha_displaced(
                    spec([rho.temps[j]], [rho.displacement[j]]),
                    spec([sigma.temps[j]], [sigma.displacement[j]]),
                    alpha,
                ).entropy.value
                for j in range(2)
            )
            assert abs(joint - parts) < 1e-10
