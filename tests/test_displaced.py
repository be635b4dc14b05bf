"""Displaced-state entropy closed form, finiteness prediction, and witnesses."""

import cmath
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petz_renyi.oracle import oracle_trace
from petz_renyi.states import DisplacedThermalSpec, ModeVector, relative_displacement
from petz_renyi import weyl
from petz_renyi.thermal import (
    DivergenceWitness,
    _gated_exponents,
    alpha_threshold,
    covariance_criterion,
    d_alpha_displaced,
    d_alpha_thermal,
)
from petz_renyi.weyl import diagonal_divergence_witness

from laguerre import weyl_diag, weyl_diag_sequence, weyl_element
from references import exact_exponents

# frozen arbitrary-precision double sums (60-digit evaluation, truncation 220)
# for r=(1,), s=(2,), u1=(1,), u2=(0,): trace argument sum
Q_REF = {
    0.3: 0.75837517852375365812,
    0.7: 0.69855723911090313681,
    1.5: 40.855405522999270326,
}

finite_temps = st.floats(0.1, 10)


def spec(temps, disp=None):
    return DisplacedThermalSpec(ModeVector(temps), disp)


def test_spec_validation():
    s = spec([1.0, 2.0])
    assert s.displacement == (0j, 0j)
    assert s.faithful
    assert not spec([1.0, math.inf]).faithful
    with pytest.raises(ValueError):
        DisplacedThermalSpec(ModeVector([1.0]), [1.0, 2.0])
    for bad in (complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            spec([1.0, 2.0], [0.5, bad])


def test_relative_displacement():
    a = spec([1.0, 2.0], [1 + 1j, 0.5])
    b = spec([1.0, 2.0], [1j, 0.5])
    assert relative_displacement(a, b) == (1.0, 0j)
    with pytest.raises(ValueError):
        relative_displacement(a, spec([1.0]))


def test_series_matches_frozen_reference():
    rho = spec([1.0], [1.0])
    sigma = spec([2.0], [0.0])
    for alpha, q in Q_REF.items():
        res = d_alpha_displaced(rho, sigma, alpha)
        assert res.entropy.finite
        assert math.exp((alpha - 1.0) * res.entropy.value) == pytest.approx(q, rel=1e-12)
        assert res.entropy.value == pytest.approx(
            math.log(q) / (alpha - 1.0), rel=1e-12, abs=1e-12
        )


def test_zero_displacement_matches_thermal():
    r, s = [0.8, 1.7], [1.4, 2.5]
    for alpha in (0.3, 0.9, 1.2):
        res = d_alpha_displaced(spec(r), spec(s), alpha)
        ref = d_alpha_thermal(ModeVector(r), ModeVector(s), alpha)
        assert res.entropy.value == pytest.approx(ref.value, rel=1e-10, abs=1e-12)


def test_common_shift_invariance():
    r, s = [1.0, 2.0], [1.5, 2.5]
    u1 = [0.4 + 0.3j, -0.2j]
    u2 = [0.1, 0.5]
    shift = [0.7 - 1.1j, 0.3 + 0.2j]
    for alpha in (0.4, 1.3):
        base = d_alpha_displaced(spec(r, u1), spec(s, u2), alpha)
        moved = d_alpha_displaced(
            spec(r, [a + c for a, c in zip(u1, shift)]),
            spec(s, [b + c for b, c in zip(u2, shift)]),
            alpha,
        )
        assert moved.entropy.value == pytest.approx(
            base.entropy.value, rel=1e-10, abs=1e-10
        )


def test_tensor_additivity_against_single_modes():
    rho = spec([1.0, 0.7], [1.0, 0.5j])
    sigma = spec([2.0, 1.9], [0.0, 0.2])
    for alpha in (0.35, 1.4):
        joint = d_alpha_displaced(rho, sigma, alpha)
        total = 0.0
        for j in range(2):
            total += d_alpha_displaced(
                spec([rho.temps[j]], [rho.displacement[j]]),
                spec([sigma.temps[j]], [sigma.displacement[j]]),
                alpha,
            ).entropy.value
        assert joint.entropy.value == pytest.approx(total, rel=1e-10, abs=1e-10)


def test_against_unfactorized_two_mode_sum():
    # direct four-index double sum at small truncation, no per-mode
    # factorization shortcut
    rho = spec([1.0, 1.3], [0.5, 0.0])
    sigma = spec([2.0, 1.7], [0.0, 0.3j])
    alpha = 0.5
    u = relative_displacement(rho, sigma)
    kmax = 30
    total = 0.0
    lam = lambda k, t: (1 - math.exp(-t)) * math.exp(-k * t)
    # |<l|W(u_j)|k>|^2 per mode, computed once outside the four-index sum
    w = [
        [[abs(weyl_element(l, k, uj)) ** 2 for k in range(kmax)] for l in range(kmax)]
        for uj in u
    ]
    for k1 in range(kmax):
        for l1 in range(kmax):
            w1 = w[0][l1][k1]
            a1 = lam(k1, rho.temps[0]) ** alpha * lam(l1, sigma.temps[0]) ** (1 - alpha)
            if a1 * w1 == 0.0:
                continue
            for k2 in range(kmax):
                for l2 in range(kmax):
                    w2 = w[1][l2][k2]
                    a2 = (
                        lam(k2, rho.temps[1]) ** alpha
                        * lam(l2, sigma.temps[1]) ** (1 - alpha)
                    )
                    total += a1 * w1 * a2 * w2
    res = d_alpha_displaced(rho, sigma, alpha)
    assert math.exp((alpha - 1.0) * res.entropy.value) == pytest.approx(total, rel=1e-6)


def test_vacuum_branches_have_exact_closed_forms():
    # rho vacuum: only the k=0 row of the double series survives
    res = d_alpha_displaced(spec([math.inf], [1.0]), spec([2.0]), 0.5)
    beta = (0.5 - 1.0) * 2.0
    expect = 0.5 * math.log(1 - math.exp(-2.0)) + 1.0 * math.expm1(beta)
    assert (0.5 - 1.0) * res.entropy.value == pytest.approx(expect, rel=1e-14)
    # sigma vacuum: only the l=0 column survives
    res = d_alpha_displaced(spec([1.0], [1.0]), spec([math.inf]), 0.5)
    expect = 0.5 * math.log(1 - math.exp(-1.0)) - 1.0 + 1.0 * math.exp(-0.5)
    assert (0.5 - 1.0) * res.entropy.value == pytest.approx(expect, rel=1e-14)
    # both vacuum: overlap of two coherent states
    res = d_alpha_displaced(spec([math.inf], [1.0]), spec([math.inf], [0.5j]), 0.5)
    assert (0.5 - 1.0) * res.entropy.value == pytest.approx(-abs(1.0 - 0.5j) ** 2, rel=1e-14)


def test_predicted_divergence_skips_series():
    res = d_alpha_displaced(spec([1.0], [1.0]), spec([2.0], [0.0]), 2.5)
    assert not res.entropy.finite
    assert res.entropy.witness.kind == "threshold"
    assert res.series is None


def test_alpha_above_one_requires_faithful():
    with pytest.raises(ValueError, match="faithful"):
        diagonal_divergence_witness(ModeVector([1.0]), ModeVector([math.inf]), [1.0], 1.5)


def test_displaced_vacuum_above_one_is_decided():
    # vacuum rho against a faithful sigma: finite, and the oracle agrees
    rho, sigma = spec([math.inf], [1.0]), spec([2.0])
    res = d_alpha_displaced(rho, sigma, 1.5)
    assert res.entropy.value == pytest.approx(3.58197711478695, rel=1e-12)
    tr = oracle_trace(rho, sigma, 1.5, 48)
    assert tr.value == pytest.approx(math.exp((1.5 - 1.0) * res.entropy.value), rel=1e-6)
    # vacuum sigma against a finite-temperature rho: support violation
    res = d_alpha_displaced(spec([1.0], [1.0]), spec([math.inf]), 1.5)
    assert res.entropy.witness.kind == "support"


def test_coherent_states_above_one():
    for alpha in (1.5, 7.0):
        res = d_alpha_displaced(spec([math.inf], [1.0]), spec([math.inf], [0.5j]), alpha)
        assert not res.entropy.finite
        assert res.entropy.witness.kind == "support"
        assert res.entropy.witness.mode == 1
        same = d_alpha_displaced(spec([math.inf], [0.5j]), spec([math.inf], [0.5j]), alpha)
        assert same.entropy.value == 0.0


def test_beyond_double_range_raises():
    # alpha* = inf here, so the value is finite, but (alpha-1) s = 780 puts
    # the displacement term near e^780
    with pytest.raises(ValueError, match="beyond double range"):
        d_alpha_displaced(spec([50.0], [1.0]), spec([20.0]), 40.0)
    # one ulp below alpha*, where the float sum alpha r + (1-alpha) s rounds
    # to 0 but the exact one is 5.2e-15 > 0: a finite, representable value
    # (60-digit mpmath closed form)
    r, s = 34.70756505448844, 39.1034927389866
    alpha = math.nextafter(s / (s - r), 0.0)
    got = d_alpha_thermal(ModeVector([r]), ModeVector([s]), alpha)
    assert got.value == pytest.approx(4.165382808107412, rel=1e-14)



def test_diagonal_witness_examples():
    r, s = ModeVector([1.0]), ModeVector([2.0])
    w = diagonal_divergence_witness(r, s, [1.0], 3.0)
    assert w is not None
    assert w.exponent == pytest.approx(3.0 * 1.0 - 2.0 * 2.0)
    assert w.sample_indices
    # sampled diagonal terms are bounded below by 1
    for k in w.sample_indices:
        assert math.exp(k) * weyl_diag(k, 1.0) ** 2 >= 1.0
    assert diagonal_divergence_witness(r, s, [1.0], 1.5) is None


# from |u| about 65 up, a scan of k <= 1024 ended before the Laguerre
# oscillation, which starts near k = |u|^2/4, and sampled nothing
@pytest.mark.parametrize("u", [3.0, 5 + 5j, 10.0, 70.0, 100j, 1000.0])
@pytest.mark.parametrize("alpha", [3.0, 5.0])
def test_diagonal_witness_large_displacement(u, alpha):
    r, s = ModeVector([1.0]), ModeVector([2.0])  # exponent 1*alpha - 2*(alpha-1) <= -1
    w = diagonal_divergence_witness(r, s, [u], alpha)
    assert w.exponent <= -1.0
    assert w.sample_indices
    diag = weyl_diag_sequence(max(w.sample_indices), u)
    for k in w.sample_indices:
        # log of the series term e^{-expo k} |<k|W(u)|k>|^2 is nonnegative
        assert -w.exponent * k + 2.0 * math.log(abs(diag[k])) >= 0.0


def test_diagonal_witness_small_displacement_samples():
    # a perfbench grid input (seed 1, round 1996): at |u| below about 2.2e-4
    # the Fejer constant put the first hit beyond the scan, and the witness
    # sampled nothing
    r, s = ModeVector([1.1281195319156945]), ModeVector([1.3212159233064045])
    star = alpha_threshold(r, s).alpha_star
    u_grid = -5.808865065626279e-06 - 1.5757093621421303e-05j
    for alpha in (9.104227315428496, math.nextafter(star, math.inf)):
        for u in (u_grid, 1e-12, 1e-8, 1e-5, 1e-4):
            w = diagonal_divergence_witness(r, s, [u], alpha)
            assert w.exponent <= 0.0
            assert len(w.sample_indices) == 16
            diag = weyl_diag_sequence(max(w.sample_indices), u)
            for k in w.sample_indices:
                # the series term e^{-expo k} |<k|W(u)|k>|^2 stays near 1 or above
                assert -w.exponent * k + 2.0 * math.log(abs(diag[k])) >= -1e-4


def test_diagonal_witness_refuses_beyond_its_reach():
    # |u|^2/4 above 2^20 puts the oscillation past the indices the scan reaches
    r, s = ModeVector([1.0]), ModeVector([2.0])
    assert diagonal_divergence_witness(r, s, [2048.0], 3.0).sample_indices
    for u in (2049.0, 1e100):
        with pytest.raises(ValueError, match="2\\^20"):
            diagonal_divergence_witness(r, s, [u], 3.0)


def test_diagonal_witness_leaves_numpy_unloaded(fresh_python):
    program = (
        "import sys\n"
        "from petz_renyi.weyl import diagonal_divergence_witness\n"
        "from petz_renyi.states import ModeVector\n"
        "w = diagonal_divergence_witness(ModeVector([1.0]), ModeVector([2.0]), [1.0], 3.0)\n"
        "assert w.sample_indices\n"
        "assert 'numpy' not in sys.modules, 'the diagonal witness loaded numpy'\n"
    )
    proc = fresh_python(program)
    assert proc.returncode == 0, proc.stderr


def test_diagonal_witness_reads_one_laguerre_pass(monkeypatch):
    calls = []
    run = weyl._laguerre_run

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(weyl, "_laguerre_run", counted)
    r, s = ModeVector([1.0, 0.5]), ModeVector([2.0, 1.0])
    w = diagonal_divergence_witness(r, s, [1.0, 2 - 1j], 3.0)
    assert w.sample_indices
    assert len(calls) == 1


def test_diagonal_witness_stops_at_the_sixteenth_evident_hit(monkeypatch):
    read = []
    run = weyl._laguerre_run

    def counted(*args):
        for value in run(*args):
            read.append(value)
            yield value

    monkeypatch.setattr(weyl, "_laguerre_run", counted)
    w = diagonal_divergence_witness(ModeVector([1.0]), ModeVector([2.0]), [1.0], 3.0)
    assert len(w.sample_indices) == 16
    assert len(read) < 1024


def _full_scan_witness(r, s, u, alpha):
    """The diagonal witness as it was when it read all 1,024 scanned indices
    before sampling: the frozen reference of the early-stopping one."""
    ts, bad = _gated_exponents(r, s, alpha)
    if not bad:
        return None
    j = min(bad, key=lambda j: ts[j - 1])
    expo = ts[j - 1]
    uj = complex(u[j - 1])
    if uj == 0:
        sample = tuple(2**i for i in range(16))
    else:
        x = weyl._squared_modulus(uj)
        if not x / 4.0 <= 2**20:
            raise ValueError(f"|u| = {abs(uj)} puts the Laguerre oscillation beyond k = 2^20")
        lo = max(1, math.floor(x / 4.0) - 64)
        window = list(itertools.islice(enumerate(weyl._laguerre_run(lo + 1023, x)), lo, None))

        def hits_at(c):
            return [
                (k, mag)
                for k, (v, e) in window
                if (mag := math.exp(math.log(abs(v)) + e - 0.5 * x) if v else 0.0)
                >= c * k**-0.375
            ]

        c = 1.0 / (2.0 * math.sqrt(2.0 * math.pi * abs(uj)))
        hits = hits_at(c)
        if not hits and c > 1.0:
            hits = hits_at(0.0)
        if not hits:
            raise ValueError(f"no Fejer hit among the scanned indices at |u| = {abs(uj)}")
        evident = [(k, mag) for k, mag in hits if -expo * k + 2.0 * math.log(mag) >= 0.0]
        sample = tuple(k for k, _ in (evident or hits)[:16])
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


def _witness_inputs(count):
    """``(r, s, u, alpha)``: ``count`` seeded draws with 1, 3 or 8 modes,
    ``alpha`` from ``alpha*(1 + 1e-6)`` to ``2 alpha*`` and ``|u|`` from 1e-12
    to 30, some modes at ``u = 0``; then orders with few evident hits, and
    the displacements the scan reaches last or not at all."""
    rng = random.Random(7)

    def displacement():
        if rng.random() < 0.1:
            return 0j
        # half below |u| = 0.04, where the Fejer constant exceeds 1
        low, high = (-12.0, -1.4) if rng.random() < 0.5 else (-1.4, math.log10(30.0))
        return cmath.rect(10.0 ** rng.uniform(low, high), rng.uniform(0.0, 2.0 * math.pi))

    out = []
    for i in range(count):
        n = (1, 3, 8)[i % 3]
        r = [rng.uniform(0.05, 5.0) for _ in range(n)]
        s = [rng.uniform(0.05, 5.0) for _ in range(n)]
        k = rng.randrange(n)
        r[k], s[k] = min(r[k], s[k]), max(r[k], s[k]) + 1e-3  # alpha* is finite
        u = [displacement() for _ in range(n)]
        star = alpha_threshold(r, s).alpha_star
        out.append((r, s, u, star * (1.0 + 10.0 ** rng.uniform(-6.0, 0.0))))
    # orders at which 1 to 15 of the scanned hits are evident (exponent 2 - alpha)
    for u, low, high in ((0.5, 3.87e-3, 4.06e-3), (1.0, 4.55e-3, 4.6e-3), (3.0, 5.72e-3, 5.93e-3)):
        out.extend(([1.0], [2.0], [u], 2.0 + low + (high - low) * i / 9) for i in range(10))
    for u in (1e-4, 0.5, 10.0, 100.0, 500j, 2048.0, 2049.0, 1e100):
        out.append(([1.0], [2.0], [u], 3.0))
    return out


def _outcome(witness, *args):
    try:
        return witness(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def test_diagonal_witness_matches_the_full_scan():
    # the early stop keeps every record and every refusal of the full scan,
    # also at the small-|u| inputs of test_diagonal_witness_small_displacement_samples
    r, s = [1.1281195319156945], [1.3212159233064045]
    star = alpha_threshold(r, s).alpha_star
    small = [
        (r, s, [u], alpha)
        for alpha in (9.104227315428496, math.nextafter(star, math.inf))
        for u in (-5.808865065626279e-06 - 1.5757093621421303e-05j, 1e-12, 1e-8, 1e-5, 1e-4)
    ]
    outcomes = []
    for r, s, u, alpha in _witness_inputs(2000) + small:
        args = (ModeVector(r), ModeVector(s), u, alpha)
        outcomes.append(_outcome(_full_scan_witness, *args))
        assert _outcome(diagonal_divergence_witness, *args) == outcomes[-1], args
    assert sum(isinstance(w, str) for w in outcomes) == 2
    # some samples hold fewer than 16 indices: every evident hit of the window
    assert sum(len(w.sample_indices) < 16 for w in outcomes if not isinstance(w, str)) >= 20


def test_diagonal_witness_preconditions():
    r, s = ModeVector([1.0]), ModeVector([2.0])
    for u in (math.nan, math.inf, 1e200, complex(1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            diagonal_divergence_witness(r, s, [u], 3.0)
    for alpha in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            diagonal_divergence_witness(r, s, [1.0], alpha)
    with pytest.raises(ValueError, match="faithful"):
        diagonal_divergence_witness(r, ModeVector([math.inf]), [1.0], 3.0)
    with pytest.raises(ValueError, match="mode counts"):
        diagonal_divergence_witness(r, s, [1.0, 1.0], 3.0)


def test_diagonal_witness_zero_displacement_samples():
    w = diagonal_divergence_witness(ModeVector([1.0]), ModeVector([2.0]), [0.0], 3.0)
    assert w is not None
    # every diagonal element is 1 at u=0; indices are arbitrary but present
    assert len(w.sample_indices) == 16


@given(
    r=st.lists(finite_temps, min_size=1, max_size=3),
    s_seed=st.lists(finite_temps, min_size=3, max_size=3),
    u_seed=st.lists(st.floats(-2, 2), min_size=6, max_size=6),
    alpha=st.floats(1.0, 20.0, exclude_min=True),
)
@settings(max_examples=80, deadline=None)
def test_equivalence_triangle(r, s_seed, u_seed, alpha):
    n = len(r)
    s = s_seed[:n]
    u = [complex(u_seed[2 * j], u_seed[2 * j + 1]) for j in range(n)]
    rho = spec(r, u)
    sigma = spec(s)
    finite = d_alpha_displaced(rho, sigma, alpha).entropy.finite
    by_cov = covariance_criterion(rho.temps, sigma.temps, alpha)
    no_witness = (
        diagonal_divergence_witness(rho.temps, sigma.temps, u, alpha) is None
    )
    assert finite == by_cov == no_witness


@given(
    r=finite_temps,
    s=finite_temps,
    re=st.floats(-1.5, 1.5),
    im=st.floats(-1.5, 1.5),
    alpha=st.floats(0.1, 0.9),
)
@settings(max_examples=40, deadline=None)
def test_nonnegativity_below_one(r, s, re, im, alpha):
    res = d_alpha_displaced(spec([r], [complex(re, im)]), spec([s]), alpha)
    assert res.entropy.value >= -1e-10


def test_identical_displaced_states_give_zero():
    rho = spec([0.9, 1.8], [0.5 + 0.5j, -1.0])
    for alpha in (0.5, 2.0):
        res = d_alpha_displaced(rho, rho, alpha)
        assert res.entropy.value == pytest.approx(0.0, abs=1e-10)


temps_or_vacuum = st.one_of(st.floats(0.01, 50), st.just(math.inf))
# displacement components on a 1/8 grid keep every shifted relative
# displacement exact, so common-shift invariance holds bit for bit
eighths = st.integers(-28, 28).map(lambda k: k / 8.0)
orders = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1.0, 50.0, exclude_min=True, exclude_max=True),
)


def expected_finite(r, s, u, alpha):
    """Finiteness verdict from support containment and alpha*, written out.

    ``alpha < s_j/(s_j - r_j)`` is tested as ``t_j = alpha r_j + (1-alpha) s_j
    > 0`` in exact rational arithmetic.
    """
    if alpha < 1.0:
        return True
    for rj, sj, uj in zip(r, s, u):
        if math.isinf(sj) and not (math.isinf(rj) and uj == 0):
            return False
    return all(
        exact_exponents([rj], [sj], alpha)[0] > 0
        for rj, sj in zip(r, s)
        if not math.isinf(rj) and not math.isinf(sj)
    )


@given(
    modes=st.lists(
        st.tuples(temps_or_vacuum, temps_or_vacuum, eighths, eighths, eighths, eighths),
        min_size=1,
        max_size=3,
    ),
    shift=st.tuples(eighths, eighths),
    alpha=orders,
)
@settings(max_examples=300, deadline=None)
def test_closed_form_over_domain(modes, shift, alpha):
    r = [m[0] for m in modes]
    s = [m[1] for m in modes]
    u1 = [complex(m[2], m[3]) for m in modes]
    u2 = [complex(m[4], m[5]) for m in modes]
    finite = expected_finite(r, s, [a - b for a, b in zip(u1, u2)], alpha)
    try:
        res = d_alpha_displaced(spec(r, u1), spec(s, u2), alpha)
    except ValueError as e:
        # the one documented refusal: a finite value beyond double range
        assert "beyond double range" in str(e)
        assert finite
        return
    assert res.entropy.finite == finite
    c = complex(*shift)
    moved = d_alpha_displaced(
        spec(r, [z + c for z in u1]), spec(s, [z + c for z in u2]), alpha
    )
    assert moved.entropy == res.entropy
