"""Closed-form thermal entropy, threshold, and covariance criterion."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from petz_renyi.displaced import (
    DisplacedThermalSpec,
    covariance_equivalence,
    predict_finiteness,
)
from petz_renyi.states import ModeVector, log1mexp
from petz_renyi.thermal import (
    DivergenceWitness,
    ExtendedEntropy,
    SupportViolation,
    alpha_threshold,
    covariance_criterion,
    d_alpha_thermal,
    support_contained,
    validate_order,
)

# frozen arbitrary-precision references for the closed form
D_REF = {
    (1.0, 2.0, 0.5): 0.0991236854050329559,
    (1.0, 2.0, 1.5): 0.634892280841990528,
    (0.3, 7.0, 0.25): 0.444480515537989272,
    (5.0, 2.0, 3.0): 0.135280684614758822,
}

finite_temps = st.floats(0.1, 10)


def brute_log_argument(r, s, alpha, big_k):
    """Partial sum of the factorized trace-argument series, linear domain."""
    total_log = 0.0
    for rj, sj in zip(r, s):
        mode = 0.0
        for k in range(big_k + 1):
            lam_r = 0.0 if (math.isinf(rj) and k > 0) else (
                1.0 if math.isinf(rj) else math.exp(log1mexp(rj) - k * rj)
            )
            lam_s = 0.0 if (math.isinf(sj) and k > 0) else (
                1.0 if math.isinf(sj) else math.exp(log1mexp(sj) - k * sj)
            )
            if lam_r == 0.0 or lam_s == 0.0:
                # vacuum convention below order one; underflow guard above
                # (there lam_r underflows first whenever the term converges)
                continue
            mode += lam_r**alpha * lam_s ** (1.0 - alpha)
        total_log += math.log(mode)
    return total_log


def test_closed_form_matches_reference():
    for (r, s, alpha), ref in D_REF.items():
        got = d_alpha_thermal(ModeVector([r]), ModeVector([s]), alpha)
        assert got.finite
        assert got.value == pytest.approx(ref, rel=1e-14)


def test_identical_states_give_zero():
    r = ModeVector([0.4, 2.0, math.inf])
    for alpha in (0.3, 0.9, 1.5, 7.0):
        assert d_alpha_thermal(r, r, alpha).value == pytest.approx(0.0, abs=1e-14)


def test_boundary_order_diverges():
    # alpha* = 2 for r=1, s=2; the boundary itself is divergent
    got = d_alpha_thermal(ModeVector([1.0]), ModeVector([2.0]), 2.0)
    assert not got.finite
    assert got.witness.kind == "threshold"
    assert got.witness.mode == 1


def test_support_violation_above_one():
    got = d_alpha_thermal(ModeVector([1.0]), ModeVector([math.inf]), 1.5)
    assert not got.finite
    assert got.witness.kind == "support"


def test_support_violation_below_one_is_finite():
    # terms with a vacuum sigma mode drop out (0^{1-alpha} = 0 below order one)
    r = ModeVector([1.0, 0.5])
    s = ModeVector([2.0, math.inf])
    alpha = 0.5
    got = d_alpha_thermal(r, s, alpha)
    assert got.finite
    brute = brute_log_argument(r, s, alpha, 300) / (alpha - 1.0)
    assert got.value == pytest.approx(brute, rel=1e-12)


def test_vacuum_on_both_sides_contributes_nothing():
    a = d_alpha_thermal(ModeVector([1.0, math.inf]), ModeVector([2.0, math.inf]), 1.5)
    b = d_alpha_thermal(ModeVector([1.0]), ModeVector([2.0]), 1.5)
    assert a.value == pytest.approx(b.value, rel=1e-15)


def test_closed_form_vs_partial_sums():
    cases = [
        ((1.0,), (2.0,), 0.5),
        ((1.0,), (2.0,), 1.5),
        ((0.3, 2.0), (0.9, 1.1), 0.25),
        ((5.0,), (2.0,), 3.0),
    ]
    for r, s, alpha in cases:
        got = d_alpha_thermal(ModeVector(r), ModeVector(s), alpha)
        brute = brute_log_argument(r, s, alpha, 400) / (alpha - 1.0)
        assert got.value == pytest.approx(brute, rel=1e-12)


def test_partial_sums_monotone_below_one():
    r, s, alpha = (0.7,), (1.9,), 0.4
    closed_arg = math.exp(brute_log_argument(r, s, alpha, 2000))
    prev = 0.0
    for big_k in (1, 2, 5, 10, 50, 200):
        part = math.exp(brute_log_argument(r, s, alpha, big_k))
        assert part >= prev
        assert part <= closed_arg * (1 + 1e-13)
        prev = part


def test_divergent_partial_sums_blow_up():
    # alpha = alpha* + 0.5 = 2.5 for r=1, s=2: exponent -0.5, terms grow
    r, s, alpha = 1.0, 2.0, 2.5
    total = 0.0
    c = math.exp(alpha * log1mexp(r) + (1 - alpha) * log1mexp(s))
    for k in range(250):
        total += c * math.exp(0.5 * k)
        if total > 1e10:
            break
    assert total > 1e10


def test_alpha_threshold_values():
    # one ratio s_j/(s_j - r_j) per mode with r_j < s_j, keyed by 1-based mode
    thr = alpha_threshold(ModeVector([1.0, 3.0, 0.5]), ModeVector([2.0, 2.0, 2.0]))
    assert thr.ratios == {1: 2.0, 3: 2.0 / 1.5}
    assert thr.alpha_star == 2.0 / 1.5
    assert thr.argmin_modes == (3,)
    # min over the empty set: no mode with r < s
    thr = alpha_threshold(ModeVector([5.0, math.inf]), ModeVector([2.0, math.inf]))
    assert thr.alpha_star == math.inf
    assert thr.argmin_modes == ()
    assert thr.ratios == {}
    # ties keep every achieving mode
    thr = alpha_threshold(ModeVector([1.0, 2.0, 4.0]), ModeVector([2.0, 4.0, 5.0]))
    assert thr.ratios == {1: 2.0, 2: 2.0, 3: 5.0}
    assert thr.argmin_modes == (1, 2)
    # vacuum modes have no ratio
    thr = alpha_threshold(
        ModeVector([math.inf, 1.0, math.inf]), ModeVector([2.0, 3.0, math.inf])
    )
    assert thr.ratios == {2: 1.5}
    assert thr.argmin_modes == (2,)


def test_alpha_threshold_support_violation():
    with pytest.raises(SupportViolation) as exc:
        alpha_threshold(ModeVector([1.0, 2.0]), ModeVector([2.0, math.inf]))
    assert exc.value.modes == (2,)


def test_support_contained():
    assert support_contained(ModeVector([math.inf]), ModeVector([1.0]))
    assert not support_contained(ModeVector([1.0]), ModeVector([math.inf]))
    # the vacuum has empty support, contained in every state's
    assert support_contained(ModeVector([math.inf]), ModeVector([math.inf]))


def test_covariance_criterion_examples():
    r = ModeVector([1.0, 3.0])
    s = ModeVector([2.0, 2.0])
    assert covariance_criterion(r, s, 1.5)
    assert not covariance_criterion(r, s, 2.5)
    assert covariance_criterion(ModeVector([5.0]), ModeVector([2.0]), 100.0)


def test_covariance_criterion_preconditions():
    r, s = ModeVector([1.0]), ModeVector([2.0])
    with pytest.raises(ValueError):
        covariance_criterion(r, s, 0.5)
    with pytest.raises(ValueError):
        covariance_criterion(ModeVector([math.inf]), s, 1.5)
    with pytest.raises(ValueError, match="mode counts"):
        covariance_criterion(r, ModeVector([2.0, 2.0]), 1.5)
    # every large order diverges for r=1, s=2 (alpha* = 2): no verdict at inf
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match="order must lie"):
            covariance_criterion(r, s, alpha)
        with pytest.raises(ValueError, match="order must lie"):
            covariance_equivalence(DisplacedThermalSpec(r), DisplacedThermalSpec(s), alpha)
    with pytest.raises(ValueError, match="faithful"):
        covariance_equivalence(DisplacedThermalSpec(r), DisplacedThermalSpec([math.inf]), 1.5)


def test_overflowing_exponent_products():
    # alpha r and (1-alpha) s overflow; the exact exponent decides and, beyond
    # double range, rounds to +-inf
    big, tiny = ModeVector([1e300]), ModeVector([1e-300])
    got = d_alpha_thermal(big, tiny, 1e10)
    assert got.value == pytest.approx(300.0 * math.log(10.0), rel=1e-15)
    assert d_alpha_thermal(big, big, 1e10).value == 0.0
    swapped = d_alpha_thermal(tiny, big, 1e10)
    assert not swapped.finite
    assert swapped.witness.kind == "threshold"
    assert not covariance_criterion(tiny, big, 1e10)
    assert covariance_criterion(big, tiny, 1e10)


def exact_finite(r, s, alpha):
    """``alpha (s_j - r_j) < s_j`` for every mode, in exact rational arithmetic."""
    fa = Fraction(alpha)
    return all(fa * (Fraction(sj) - Fraction(rj)) < Fraction(sj) for rj, sj in zip(r, s))


def mp_closed_form(r, s, alpha):
    """60-digit ``D_alpha`` of thermal states, with each exponent formed exactly."""
    with mp.workdps(60):
        a = mp.mpf(alpha)
        log_q = mp.mpf(0)
        for rj, sj in zip(r, s):
            t = Fraction(alpha) * Fraction(rj) + (1 - Fraction(alpha)) * Fraction(sj)
            log_q += (
                a * mp.log(-mp.expm1(-mp.mpf(rj)))
                + (1 - a) * mp.log(-mp.expm1(-mp.mpf(sj)))
                - mp.log(-mp.expm1(-mp.mpf(t.numerator) / t.denominator))
            )
        return float(log_q / (a - 1))


def test_near_boundary_values_are_accurate():
    # just below alpha*, t = alpha r + (1-alpha) s cancels; it is formed without that loss
    rng = random.Random(9)
    worst = 0.0
    for _ in range(1000):
        r, s = sorted(math.exp(rng.uniform(math.log(0.01), math.log(50.0))) for _ in range(2))
        star = alpha_threshold(ModeVector([r]), ModeVector([s])).alpha_star
        for d in (2.0**-17, 2.0**-19, 2.0**-21, 1e-8, 1e-4):
            alpha = star * (1.0 - d)
            got = d_alpha_thermal(ModeVector([r]), ModeVector([s]), alpha).value
            worst = max(worst, abs(got / mp_closed_form([r], [s], alpha) - 1.0))
    assert worst <= 1e-14


@given(
    r=st.lists(finite_temps, min_size=1, max_size=3),
    s_seed=st.lists(finite_temps, min_size=3, max_size=3),
    alpha=st.floats(1.0, 20.0, exclude_min=True),
)
@settings(max_examples=120, deadline=None)
def test_finiteness_equivalence(r, s_seed, alpha):
    # finite closed form <=> covariance criterion <=> alpha below threshold
    s = s_seed[: len(r)]
    rv, sv = ModeVector(r), ModeVector(s)
    by_value = d_alpha_thermal(rv, sv, alpha).finite
    by_cov = covariance_criterion(rv, sv, alpha)
    # alpha < s_j/(s_j - r_j) wherever r_j < s_j, in exact rational arithmetic
    by_thr = exact_finite(r, s, alpha)
    assert by_value == by_cov == by_thr


boundary_temps = st.floats(0.01, 50)


@given(
    modes=st.sampled_from((1, 3)).flatmap(
        lambda n: st.lists(st.tuples(boundary_temps, boundary_temps), min_size=n, max_size=n)
    ),
    ulps=st.integers(-2, 2),
)
@settings(max_examples=300, deadline=None)
def test_boundary_verdict_is_exact(modes, ulps):
    # at fl(alpha*) and 1 or 2 ulps either side, every verdict is the exact
    # rational one, and every finite verdict comes with its value, not a refusal
    r = [m[0] for m in modes]
    s = [m[1] for m in modes]
    alpha = alpha_threshold(ModeVector(r), ModeVector(s)).alpha_star
    assume(math.isfinite(alpha))
    for _ in range(abs(ulps)):
        alpha = math.nextafter(alpha, math.copysign(math.inf, ulps))
    assume(alpha > 1.0)
    finite = exact_finite(r, s, alpha)
    got = d_alpha_thermal(ModeVector(r), ModeVector(s), alpha)
    assert got.finite == finite
    assert covariance_criterion(ModeVector(r), ModeVector(s), alpha) == finite
    assert predict_finiteness(DisplacedThermalSpec(r), DisplacedThermalSpec(s), alpha)[0] == finite
    if finite:
        assert got.value == pytest.approx(mp_closed_form(r, s, alpha), rel=1e-12)
    else:
        assert got.witness.kind == "threshold"


def test_threshold_witness_states_the_exact_inequality():
    got = d_alpha_thermal(ModeVector([1.0]), ModeVector([2.0]), 2.5)
    assert got.witness.detail == "alpha*r_1 + (1-alpha)*s_1 = -0.5 <= 0 at alpha = 2.5"
    # the diverging mode with the smallest ratio s_j/(s_j-r_j): mode 3 (4/3) before mode 1 (2)
    got = d_alpha_thermal(ModeVector([1.0, 3.0, 0.5]), ModeVector([2.0, 2.0, 2.0]), 2.5)
    assert got.witness.mode == 3
    # ties go to the first mode
    got = d_alpha_thermal(ModeVector([2.0, 1.0]), ModeVector([4.0, 2.0]), 3.0)
    assert got.witness.mode == 1
    # at fl(alpha*) the exact exponent of a diverging mode is negative, not rounded to 0
    r, s = 34.70756505448844, 39.1034927389866
    alpha = alpha_threshold(ModeVector([r]), ModeVector([s])).alpha_star
    assert not exact_finite([r], [s], alpha)
    got = d_alpha_thermal(ModeVector([r]), ModeVector([s]), alpha)
    assert got.witness.detail.startswith("alpha*r_1 + (1-alpha)*s_1 = -2.59")


@given(
    r1=finite_temps, r2=finite_temps, s1=finite_temps, s2=finite_temps,
    alpha=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 5.0)),
)
@settings(max_examples=80, deadline=None)
def test_tensor_additivity(r1, r2, s1, s2, alpha):
    joint = d_alpha_thermal(ModeVector([r1, r2]), ModeVector([s1, s2]), alpha)
    a = d_alpha_thermal(ModeVector([r1]), ModeVector([s1]), alpha)
    b = d_alpha_thermal(ModeVector([r2]), ModeVector([s2]), alpha)
    if joint.finite and a.finite and b.finite:
        assert joint.value == pytest.approx(a.value + b.value, rel=1e-12, abs=1e-12)
    else:
        assert not joint.finite
        assert not (a.finite and b.finite)


@given(
    r=finite_temps, s=finite_temps,
    alpha=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 10.0)),
)
@settings(max_examples=80, deadline=None)
def test_nonnegativity(r, s, alpha):
    got = d_alpha_thermal(ModeVector([r]), ModeVector([s]), alpha)
    if got.finite:
        assert got.value >= -1e-12


def test_validate_order():
    assert validate_order(0.5) == 0.5
    for bad in (0.0, -1.0, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            validate_order(bad)


def test_extended_entropy_invariant():
    witness = DivergenceWitness("threshold", 1, "x")
    with pytest.raises(ValueError):
        ExtendedEntropy(math.inf)
    with pytest.raises(ValueError):
        ExtendedEntropy(1.0, witness)
    with pytest.raises(ValueError):
        ExtendedEntropy(value=1.0, witness=witness)
    assert ExtendedEntropy(1.0).finite
    assert ExtendedEntropy(math.inf, witness).witness is witness
