"""Truncated-Fock-space brute-force validator."""

import ast
import math
import os
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from petz_renyi import oracle
from petz_renyi.oracle import MAX_DIM, _log_entries, displacement_matrix, oracle_trace
from petz_renyi.states import DisplacedThermalSpec, ModeVector, covariance
from petz_renyi.thermal import d_alpha_displaced, d_alpha_thermal

from dense import annihilation_matrix, thermal_matrix
from laguerre import weyl_diag, weyl_element


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
    # the partial sum at n = 64, summed to 60 digits
    tr = oracle_trace(rho, sigma, 1.5, 64)
    assert tr.value == pytest.approx(8.6220859179051097e79, rel=1e-12)


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
        expect = math.exp((alpha - 1.0) * res.entropy.value)
        tr = oracle_trace(rho, sigma, alpha, 96)
        assert tr.value == pytest.approx(expect, rel=1e-6)


def test_oracle_both_displaced_above_one():
    rho = spec([1.0], [0.5 + 0.3j])
    sigma = spec([2.0], [-0.2j])
    res = d_alpha_displaced(rho, sigma, 1.5)
    tr = oracle_trace(rho, sigma, 1.5, 96)
    assert tr.value == pytest.approx(math.exp((1.5 - 1.0) * res.entropy.value), rel=1e-8)


def test_oracle_two_mode_displaced():
    rho = spec([0.8, 1.2], [0.6, 0.0])
    sigma = spec([1.5, 2.0], [0.0, 0.3j])
    for alpha in (0.5, 1.3):
        res = d_alpha_displaced(rho, sigma, alpha)
        tr = oracle_trace(rho, sigma, alpha, 48)
        assert tr.value == pytest.approx(math.exp((alpha - 1.0) * res.entropy.value), rel=1e-8)


def test_oracle_converges_on_the_benchmark_cases():
    # the perfbench oracle cases at twice their truncations: 1e-13 of the
    # closed form (at their own truncations perfbench allows 1e-10 and 1e-6)
    two = (spec([0.8, 1.2], [0.6, 0.0]), spec([1.5, 2.0], [0.0, 0.3j]))
    cases = [(spec([1.0]), spec([2.0]), a, 96) for a in (0.3, 0.5, 0.9, 1.5)]
    cases += [(spec([1.0], [1.0]), spec([2.0]), a, 96) for a in (0.3, 0.7, 1.5)]
    cases += [(*two, 1.5, 48), (*two, 0.5, 24), (*two, 0.5, 32)]
    for rho, sigma, alpha, n in cases:
        expect = math.exp((alpha - 1.0) * d_alpha_displaced(rho, sigma, alpha).entropy.value)
        assert oracle_trace(rho, sigma, alpha, 2 * n).value == pytest.approx(expect, rel=1e-13)


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
    assert oracle_trace(rho, sigma, 0.5, MAX_DIM).dim == MAX_DIM  # the guard admits MAX_DIM
    with pytest.raises(ValueError):
        oracle_trace(rho, sigma, 0.5, MAX_DIM + 1)  # guard
    with pytest.raises(ValueError, match="exceeds 1e50"):
        oracle_trace(spec([1.0], [1e60]), sigma, 0.5, 8)  # |u|^2 beyond the recurrence
    with pytest.raises(ValueError):
        oracle_trace(spec([1.0], [1.0]), spec([math.inf], [0.0]), 1.5, 32)


def test_oracle_refuses_a_table_beyond_its_bound(monkeypatch):
    # displaced modes times n^2 above 2 MAX_DIM^2 is refused before the table
    # is built: three displaced modes at n = 4096 would peak near 1.8 GB
    def never(*args):
        raise AssertionError("the oracle built its table")

    monkeypatch.setattr(oracle, "_log_entries", never)
    rho, sigma = spec([1.0] * 3, [1.0, 0.5j, -0.3]), spec([2.0] * 3)
    with pytest.raises(ValueError, match="3 displaced modes at truncation 4096 exceed"):
        oracle_trace(rho, sigma, 0.5, MAX_DIM)


def test_truncation_must_be_an_integer():
    rho, displaced, sigma = spec([1.0]), spec([1.0], [1.0]), spec([2.0])
    builders = (
        lambda n: displacement_matrix(1.0, n),
        lambda n: oracle_trace(rho, sigma, 0.5, n),
        lambda n: oracle_trace(displaced, sigma, 1.5, n),
    )
    for make in builders:
        for n in (16.5, 16.0, "16", None):
            with pytest.raises(ValueError, match="truncation must be an integer"):
                make(n)
    # numpy integers are integers
    tr = oracle_trace(displaced, sigma, 1.5, np.int64(16))
    assert tr == oracle_trace(displaced, sigma, 1.5, 16)
    assert type(tr.dim) is int
    assert displacement_matrix(1.0, np.int32(4)).shape == (4, 4)


def test_oracle_imports_no_closed_form():
    # the brute force takes from the closed-form module only the order check
    # and the support test, so no formula for the trace can reach it
    tree = ast.parse(open(oracle.__file__).read())
    taken = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("petz_renyi") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("petz_renyi")
            if node.level:
                assert node.module is not None  # no "from . import thermal"
                taken.setdefault(node.module, set()).update(a.name for a in node.names)
    assert set(taken) <= {"states", "thermal"}
    assert taken.get("thermal", set()) == {"support_contained", "validate_order"}


def test_only_the_oracle_imports_numpy():
    # the closed forms, the Weyl scans, the witness and the CLI run on the
    # standard library; numpy loads only for the oracle
    package = os.path.dirname(oracle.__file__)
    importers = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                importers.add(name)
    assert importers == {"oracle.py"}


def test_each_shared_rule_has_one_home():
    # the double-range constant, the equal-mode-count error, the count rule
    # (the one operator.index and its bounds) and the temperature rule are
    # written once, in states.py, and imported everywhere else
    package = os.path.dirname(oracle.__file__)
    homes = {
        "_LOG_MAX": set(), "mode counts": set(), "index": set(), "bounds": set(),
        "temperature": set(),
    }
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Name) and t.id == "_LOG_MAX" for t in targets):
                    homes["_LOG_MAX"].add(name)
            elif isinstance(node, ast.Raise):
                texts = [c.value for c in ast.walk(node) if isinstance(c, ast.Constant)]
                if any(isinstance(v, str) and "mode count" in v for v in texts):
                    homes["mode counts"].add(name)
                if any(
                    isinstance(v, str) and ("must be at least" in v or "must be at most" in v)
                    for v in texts
                ):
                    homes["bounds"].add(name)
                if any(
                    isinstance(v, str) and "inverse temperature must be positive" in v
                    for v in texts
                ):
                    homes["temperature"].add(name)
            elif isinstance(node, ast.Attribute) and node.attr == "index":
                if isinstance(node.value, ast.Name) and node.value.id == "operator":
                    homes["index"].add(name)
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                homes["index"].add(name)
    assert homes == dict.fromkeys(homes, {"states.py"})


def test_layers_import_one_way():
    # states <- thermal <- weyl, oracle <- cli: each layer imports only the
    # layers below it, the command line loads the oracle and the Weyl scans
    # only inside the commands that run them, and private names cross from a
    # sibling other than states.py only where pinned here
    package = os.path.dirname(oracle.__file__)
    edges, private = {}, set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        module = name[:-3]
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("petz_renyi") for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level:
                assert node.module is not None, f"{name} imports a sibling without naming it"
                place = "top" if node in tree.body else "deferred"
                edges.setdefault((module, place), set()).add(node.module)
                if node.module != "states":
                    private.update((module, a.name) for a in node.names if a.name.startswith("_"))
    assert edges == {
        ("thermal", "top"): {"states"},
        ("weyl", "top"): {"states", "thermal"},
        ("oracle", "top"): {"states", "thermal"},
        ("cli", "top"): {"states", "thermal"},
        ("cli", "deferred"): {"oracle", "weyl"},
    }
    assert private == {
        ("weyl", "_gated_exponents"),
        ("cli", "_threshold_scan"),
        ("cli", "_violating_modes"),
    }


def _dense_spectrum(mat):
    # eigh of a joint-space state; eigenvalues at roundoff level are the exact
    # zeros of vacuum modes and of the truncation (the kept spectra here stay
    # above 1e-10)
    w, v = np.linalg.eigh(mat)
    return np.where(w > 1e-13, w, 0.0), v


def _dense_state(state, n):
    # each mode's thermal state truncated to its n largest eigenvalues, then
    # displaced by the first n columns of a displacement matrix built at
    # 2n + 4|u|^2 + 8 levels, in a joint space of 2n levels per mode
    out = np.ones((1, 1))
    for s, u in zip(state.temps, state.displacement):
        w = np.eye(2 * n)
        if u != 0:
            w = displacement_matrix(u, int(2 * n + 4 * abs(u) ** 2 + 8))[: 2 * n]
        out = np.kron(out, w[:, :n] @ thermal_matrix(s, n) @ w[:, :n].conj().T)
    return out


def test_structured_route_matches_dense_reference():
    # the partial sum over the kept eigenvalues against the joint-space
    # eigenbases, found by eigh without the Weyl relation or the product
    # over modes: tr(rho^a sigma^(1-a)) = sum_ij p_i^a q_j^(1-a) |<p_i|q_j>|^2
    n = 12
    pairs = [
        (spec([0.8], [0.7]), spec([1.0], [0.0])),
        (spec([0.8], [0.5 + 0.3j]), spec([1.0], [-0.4j])),
        (spec([0.8, 1.0], [0.6, 0.0]), spec([0.9, 0.7], [0.0, 0.3j])),
        (spec([0.8, 1.0], [0.5, 0.2j]), spec([0.9, math.inf], [0.0, -0.3])),
    ]
    for rho, sigma in pairs:
        p, vp = _dense_spectrum(_dense_state(rho, n))
        q, vq = _dense_spectrum(_dense_state(sigma, n))
        overlap = np.abs(vq.conj().T @ vp) ** 2
        for alpha in (0.3, 0.7):
            expect = q ** (1.0 - alpha) @ overlap @ p**alpha
            tr = oracle_trace(rho, sigma, alpha, n)
            assert tr.value == pytest.approx(expect, rel=1e-12)
            assert tr.clamped == 0


def _entry_mp(el, k, x):
    # |<el|W(u)|k>|^2 for el >= k and x = |u|^2, by the binomial sum of
    # L_k^{(el-k)}(x) at a precision that absorbs its cancellation: the sum
    # of the terms' moduli is below 2^el e^x
    m = el - k
    with mp.workdps(60 + int((el * math.log(2) + x) / math.log(10))):
        xm = mp.mpf(x)
        lag = mp.fsum(
            (-1) ** i * mp.binomial(el, k - i) * xm**i / mp.factorial(i)
            for i in range(k + 1)
        )
        return +(mp.exp(-xm) * mp.factorial(k) / mp.factorial(el) * xm**m * lag**2)


def _entries_match(log_w2, x, picks):
    # relative error in the log domain, or absolute error on |W| <= 1 where
    # the entry sits at or near a zero of its Laguerre polynomial
    for el, k in picks:
        ref = _entry_mp(el, k, x)
        got = log_w2[k, 0, el - k]
        near_zero = abs(math.exp(0.5 * got) - float(mp.sqrt(ref))) < 1e-14
        assert near_zero or abs(got - float(mp.log(ref))) < 1e-12, (x, el, k)


def test_entries_match_mpmath():
    # x = 100 at n = 768 runs the exponent register; the others do not need it
    rng = np.random.default_rng(20261019)
    for x, n in ((0.01, 48), (1.0, 96), (4.7, 96), (25.0, 192), (100.0, 768)):
        u = math.sqrt(x)
        x = abs(u) ** 2  # the double the oracle squares
        picks = []
        for _ in range(30):
            k = int(rng.integers(0, n))
            picks.append((int(rng.integers(k, n)), k))
        _entries_match(_log_entries(np.array([complex(u)]), n), x, picks)


def test_entries_at_laguerre_zeros():
    # exact zeros: L_1(1) = 0 and L_1^{(1)}(2) = 0
    for x, el, k in ((1.0, 1, 1), (2.0, 2, 1)):
        assert _log_entries(np.array([complex(math.sqrt(x))]), 4)[k, 0, el - k] < -60.0
    # the double nearest a zero of L_10^{(3)} and of L_40^{(7)}
    for k, m, guess in ((10, 3, 5.0), (40, 7, 30.0)):
        with mp.workdps(60):
            root = float(mp.findroot(lambda t: mp.laguerre(k, m, t), guess))
        u = math.sqrt(root)
        x = abs(u) ** 2
        log_w2 = _log_entries(np.array([complex(u)]), k + m + 1)
        _entries_match(log_w2, x, [(k + m, k), (k + m, k - 1), (k + m - 1, k - 1)])


def test_exponent_register_leaves_entries_unchanged(monkeypatch):
    # a rescale threshold of 1e3 puts the register to work at every few steps
    u = np.array([1.0, 2.5 - 1j, 0.1j])
    plain = _log_entries(u, 64)
    monkeypatch.setattr(oracle, "_RESCALE", 1e3)
    rescaled = _log_entries(u, 64)
    finite = np.isfinite(plain)
    assert (finite == np.isfinite(rescaled)).all()
    assert np.abs(rescaled[finite] - plain[finite]).max() < 1e-11


def test_oracle_where_the_register_is_needed():
    # x = 100 at n = 768: without the register the recurrence overflows at
    # large k + m (outside the truncation, where the -inf mask then meets
    # +inf); with it the table holds no +inf and the sum below order one
    # has converged (above it, n = 768 is far from enough at |u| = 10)
    u = np.array([10.0 + 0j])
    assert not np.isposinf(_log_entries(u, 768)).any()
    rho, sigma = spec([1.0], [10.0]), spec([2.0])
    for alpha in (0.3, 0.7):
        expect = math.exp((alpha - 1.0) * d_alpha_displaced(rho, sigma, alpha).entropy.value)
        assert oracle_trace(rho, sigma, alpha, 768).value == pytest.approx(expect, rel=1e-12)


def test_partial_sums_rise_with_truncation():
    # every term is nonnegative, so T_N is nondecreasing in N, at either
    # side of order one and past the threshold too
    rng = np.random.default_rng(11)
    for _ in range(12):
        modes = int(rng.integers(1, 3))
        r = list(rng.uniform(0.2, 3.0, modes))
        s = list(rng.uniform(0.2, 3.0, modes))
        u = list(rng.uniform(-2, 2, modes) + 1j * rng.uniform(-2, 2, modes))
        alpha = float(rng.choice([0.3, 0.8, 1.2, 2.5]))
        values = [oracle_trace(spec(r, u), spec(s), alpha, n).value for n in (4, 8, 16, 32, 64)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo * (1 - 1e-13)


def test_modewise_rows_match_kronecker_below_one():
    # three modes, each displaced in rho only, in sigma only and in both:
    # the product over modes against one explicit np.kron of the overlaps
    # M_j = W(u_sigma)^dag W(u_rho), whose first n columns come from
    # displacement matrices built at 2n + 4|u|^2 + 8 levels
    r, s = (0.8, 1.0, 1.3), (0.9, 0.7, 1.6)
    u_rho, u_sigma = (0.6, 0.0, 0.4 + 0.2j), (0.0, 0.3j, -0.25)
    n = 12
    for alpha in (0.3, 0.8):
        m2 = np.ones((1, 1))
        w_rho, w_sigma = np.ones(1), np.ones(1)
        for rj, sj, u1, u2 in zip(r, s, u_rho, u_sigma):
            big = int(2 * n + 4 * max(abs(u1), abs(u2)) ** 2 + 8)
            w1, w2 = (np.eye(big) if u == 0 else displacement_matrix(u, big) for u in (u1, u2))
            m2 = np.kron(m2, np.abs(w2[:, :n].conj().T @ w1[:, :n]) ** 2)
            w_rho = np.kron(w_rho, np.diag(thermal_matrix(rj, n)).real ** alpha)
            w_sigma = np.kron(w_sigma, np.diag(thermal_matrix(sj, n)).real ** (1 - alpha))
        expect = w_sigma @ m2 @ w_rho
        tr = oracle_trace(spec(list(r), list(u_rho)), spec(list(s), list(u_sigma)), alpha, n)
        assert tr.value == pytest.approx(expect, rel=1e-12)
        assert tr.clamped == 0


def test_clamp_working_set_stays_small():
    # 8 displaced modes at n = 192: a joint space would hold 192^8 levels;
    # the oracle holds a few (k, m) tables of 8 x 192^2 doubles (2.25 MB)
    rho, sigma = spec([1.0] * 8, [1.5] * 8), spec([2.0] * 8)
    tracemalloc.start()
    try:
        tr = oracle_trace(rho, sigma, 1.5, 192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = oracle_trace(spec([1.0], [1.5]), spec([2.0]), 1.5, 192)
    assert tr.value == pytest.approx(one.value**8, rel=1e-14)
    assert tr.clamped == 0
    assert peak < 5 * 8 * 192**2 * 8


def test_oracle_all_clamped_is_zero():
    # |u| = 10 at n = 8: every kept entry is of order e^{-100} or less; the
    # partial sum, summed to 60 digits, is about 1.3e-25 and not 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = oracle_trace(spec([1.0], [10.0]), spec([2.0]), 1.5, 8)
    assert tr.value == pytest.approx(1.3072277816036716e-25, rel=1e-13)
    assert tr.clamped == 0


def test_oracle_tiny_displacement():
    # |u|^2 underflows to 0 for |u| = 1e-300: the entries take log|u| instead
    n = 24
    plain = oracle_trace(spec([1.0]), spec([2.0]), 1.5, n).value
    for u in (1e-300, 1e-300j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = oracle_trace(spec([1.0], [u]), spec([2.0]), 1.5, n)
        assert tr.value == pytest.approx(plain, rel=1e-12)
        assert tr.clamped == 0


def test_oracle_displaced_against_vacuum_below_one():
    rho = spec([1.0], [1.0])
    sigma = spec([math.inf])
    res = d_alpha_displaced(rho, sigma, 0.5)
    tr = oracle_trace(rho, sigma, 0.5, 48)
    assert tr.value == pytest.approx(math.exp((0.5 - 1.0) * res.entropy.value), rel=1e-6)
    assert tr.clamped == 0


def test_oracle_weights_where_sigma_eigenvalues_underflow():
    # e^{-15 l} underflows for l >= 50, but lam_sigma^{1-alpha} = e^{1.5 l}
    # stays finite: the weights are formed in the log domain
    rho = spec([10.0], [0.1])
    sigma = spec([15.0])
    res = d_alpha_displaced(rho, sigma, 1.1)
    tr = oracle_trace(rho, sigma, 1.1, 64)
    assert tr.value == pytest.approx(math.exp((1.1 - 1.0) * res.entropy.value), rel=1e-10)
