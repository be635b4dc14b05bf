"""Tests of the benchmark itself: reference, generator, classifier, output."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import classify
import generate
import run
import workloads
from reference import alpha_star, mode_log_trace, reference, values_match

ROOT = Path(__file__).resolve().parents[2]
INF = math.inf
mp.mp.dps = 30


# ------------------------------------------------------------ mpmath sums


def _double_sum(r, s, x, alpha, size):
    """sum_{k,l<size} lam_k(r)^alpha lam_l(s)^(1-alpha) |<l|W(u)|k>|^2, |u|^2 = x."""
    r, s, x, alpha = (mp.mpf(v) for v in (r, s, x, alpha))
    lag = []  # lag[m][n] = L_n^(m)(x)
    for m in range(size):
        col = [mp.mpf(1), 1 + m - x]
        for n in range(1, size):
            col.append(((2 * n + 1 + m - x) * col[n] - (n + m) * col[n - 1]) / (n + 1))
        lag.append(col)
    c = (1 - mp.exp(-r)) ** alpha * (1 - mp.exp(-s)) ** (1 - alpha)
    total = mp.mpf(0)
    for k in range(size):
        for el in range(size):
            n, m = min(k, el), abs(k - el)
            w2 = mp.factorial(n) / mp.factorial(n + m) * x**m * mp.exp(-x) * lag[m][n] ** 2
            total += mp.exp(-alpha * r * k + (alpha - 1) * s * el) * w2
    return c * total


def _row_sum(r, s, x, alpha, rows):
    """The double sum with each row summed exactly by the normal-ordered identity

    sum_l e^{beta l} |<l|W(u)|k>|^2 = e^{x (e^beta - 1)} e^{beta k} L_k(-y),
    y = 2 x (cosh beta - 1), leaving one series over k summed term by term.
    """
    r, s, x, alpha = (mp.mpf(v) for v in (r, s, x, alpha))
    beta = (alpha - 1) * s
    y = 2 * x * (mp.cosh(beta) - 1)
    t = alpha * r + (1 - alpha) * s
    prev, cur = mp.mpf(1), 1 + y
    total = prev + mp.exp(-t) * cur
    for k in range(1, rows):
        prev, cur = cur, ((2 * k + 1 + y) * cur - k * prev) / (k + 1)
        term = mp.exp(-t * (k + 1)) * cur
        total += term
    assert term < mp.mpf(10) ** -25 * total  # the truncated tail is negligible
    c = (1 - mp.exp(-r)) ** alpha * (1 - mp.exp(-s)) ** (1 - alpha)
    return c * mp.exp(x * (mp.exp(beta) - 1)) * total


def _poisson_sum(rate, x, terms=400):
    """sum_k e^{-rate k} e^{-x} x^k / k!."""
    rate, x = mp.mpf(rate), mp.mpf(x)
    return mp.fsum(mp.exp(-rate * k - x) * x**k / mp.factorial(k) for k in range(terms))


def _close(got, want, tol=1e-12):
    want = float(mp.log(want))
    assert abs(got - want) <= tol * (1.0 + abs(want)), (got, want)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.5])
def test_reference_matches_double_sum(alpha):
    _close(mode_log_trace(1.0, 2.0, 1.0, alpha), _double_sum(1.0, 2.0, 1.0, alpha, 200))


def test_reference_near_threshold():
    # alpha = alpha* (1 - 1e-3) with alpha* = 2: the series exponent is 0.002
    alpha = 2.0 * (1.0 - 1e-3)
    _close(mode_log_trace(1.0, 2.0, 1e-4, alpha), _row_sum(1.0, 2.0, 1e-4, alpha, 40000))


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_reference_large_displacement(alpha):
    x = 8.0**2
    _close(mode_log_trace(1.0, 2.0, x, alpha), _row_sum(1.0, 2.0, x, alpha, 3000))


def test_reference_vacuum_modes():
    s, x = 2.0, 4.0
    # rho vacuum: only its k=0 row survives, a Poisson sum over sigma's levels
    for alpha in (0.5, 1.5):
        want = (1 - mp.exp(-s)) ** (1 - alpha) * _poisson_sum(-(alpha - 1) * s, x)
        _close(mode_log_trace(INF, s, x, alpha), want)
    # sigma vacuum below order one: only its l=0 column survives
    r, alpha = 1.0, 0.5
    _close(mode_log_trace(r, INF, x, alpha), (1 - mp.exp(-r)) ** alpha * _poisson_sum(alpha * r, x))
    # both vacuum: the overlap of two coherent states
    _close(mode_log_trace(INF, INF, x, 0.5), mp.exp(-x))


def test_reference_verdicts():
    a_star, argmin = alpha_star([1.0, 3.0, INF], [2.0, 4.0, 5.0])
    assert (a_star, argmin) == (2.0, (1,))
    assert alpha_star([3.0], [2.0]) == (INF, ())
    assert not reference([1.0], [2.0], [0j], 2.0).finite  # at the threshold
    assert not reference([1.0], [2.0], [1j], 2.5).finite
    assert reference([1.0], [2.0], [1j], 1.999).finite
    assert not reference([1.0], [INF], [0j], 1.5).finite  # support violation
    assert not reference([INF], [INF], [0.5], 1.5).finite  # distinct pure states
    assert reference([INF], [INF], [0j], 1.5).value == 0.0
    assert reference([1.0], [INF], [0j], 0.5).finite  # orders below one: always finite


def test_reference_adds_over_modes():
    r, s, u, alpha = [1.0, 0.5, INF], [2.0, 0.6, 4.0], [1j, 2.0, 0.5], 1.5
    ref = reference(r, s, u, alpha)
    parts = [mode_log_trace(a, b, abs(z) ** 2, alpha) for a, b, z in zip(r, s, u)]
    assert ref.log_q == pytest.approx(sum(parts), rel=1e-15)
    assert ref.value == pytest.approx(ref.log_q / (alpha - 1.0), rel=1e-15)


def test_reference_overflow_input_and_range():
    case = generate.OVERFLOW_CASE
    ref = reference(case["r"], case["s"], case["u_rho"], case["alpha"])
    assert ref.finite and ref.alpha_star == INF
    assert ref.log_q == pytest.approx(58919.094, rel=1e-7)
    assert values_match(ref.value, ref, case["alpha"])
    # finite but beyond double range: no double can match it
    huge = reference([40.0], [30.0], [3.0], 40.0)
    assert huge.finite and not huge.in_range
    assert not values_match(1e308, huge, 40.0)


# ------------------------------------------------------------ generator


def test_grid_generator_is_deterministic():
    for index in (0, 5, 17):
        assert generate.grid_round(7, index) == generate.grid_round(7, index)
    assert generate.grid_round(7, 0) != generate.grid_round(8, 0)


def test_grid_round_holds_every_cell_once():
    for seed in (1, 2):
        cells = sorted(op.cell for op in generate.grid_round(seed, 3))
        assert cells == sorted(generate.CELLS)


def test_grid_strata():
    for seed in (1, 2):
        for index in range(generate.PER_EPOCH):
            for op in generate.grid_round(seed, index):
                n, order, disp = op.cell
                assert len(op.r) == len(op.s) == n
                assert all(0.0 < t <= generate.T_MAX or t == INF for t in op.r + op.s)
                a_star, _ = alpha_star(op.r, op.s)
                if order == "below1":
                    assert op.alpha < 1.0
                elif order == "between":
                    assert 1.0 < op.alpha < 0.9 * a_star
                elif order == "near":
                    assert a_star * (1 - 1e-1) <= op.alpha <= a_star * (1 - 1e-3)
                elif order == "above":
                    assert op.alpha >= a_star
                else:
                    assert a_star == INF and op.alpha >= 5.0
                    assert all(a > b for a, b in zip(op.r, op.s) if b != INF)
                size = [abs(z) for z in op.u_rel()]
                if disp == "zero":
                    assert not op.displaced
                elif disp == "typical":
                    assert all(0.0 < v <= 2.0 + 1e-12 for v in size)
                else:
                    assert all(2.0 < v <= 10.0 + 1e-12 for v in size)


def test_grid_epoch_is_a_latin_hypercube():
    # over one epoch, each cell's order position falls once in every stratum,
    # whatever the seed
    k = generate.PER_EPOCH
    for seed in (1, 2):
        seen = {}
        for index in range(k):
            for op in generate.grid_round(seed, index):
                if op.cell[1] == "below1":
                    seen.setdefault(op.cell, []).append(int((op.alpha - 0.05) / 0.9 * k))
        assert all(sorted(v) == list(range(k)) for v in seen.values())


def test_mix_does_not_depend_on_seed():
    assert sorted(c.label for c in generate.oracle_pass(1, 0)) == sorted(
        c.label for c in generate.oracle_pass(2, 0)
    )
    for block in range(3):
        a, b = generate.cli_block(1, block), generate.cli_block(2, block)
        assert a == generate.cli_block(1, block)
        assert sorted(c.kind for c in a) == sorted(c.kind for c in b) == sorted(generate.CLI_KINDS)


def test_oracle_cases_and_paths():
    paths = [c.path for c in generate.ORACLE_CASES]
    assert paths.count("spectral") == 4
    assert paths.count("structured") == 2
    assert paths.count("dense") == 4


# ------------------------------------------------------------ classifier


def test_classify_exceptions_and_processes():
    from petz_renyi.thermal import SupportViolation

    assert classify.from_exception(OverflowError("math range error")).kind == "exception"
    assert classify.from_exception(ValueError("bad order")).kind == "refusal"
    assert classify.from_exception(SupportViolation([1])).kind == "refusal"
    tb = "Traceback (most recent call last):\n  ...\nOverflowError: math range error\n"
    assert classify.from_process(0, 1, tb).kind == "traceback"
    assert classify.from_process(0, 2, "error: bad\n").kind == "exit_code"
    assert classify.from_process(2, 2, "error: bad\n") is None


def _overflow_op():
    case = generate.OVERFLOW_CASE
    return generate.GridOp((1, "unbounded", "typical"), case["r"], case["s"], case["u_rho"], (0j,), case["alpha"])


def _plain_op():
    return generate.GridOp((1, "below1", "typical"), (1.0,), (2.0,), (1 + 0j,), (0j,), 0.5)


def test_failed_operation_is_counted_and_the_run_goes_on(monkeypatch):
    real = workloads.d_alpha_displaced

    def fails_on_overflow_input(rho, sigma, alpha):
        if alpha == generate.OVERFLOW_CASE["alpha"]:
            raise OverflowError("math range error")
        return real(rho, sigma, alpha)

    monkeypatch.setattr(workloads, "d_alpha_displaced", fails_on_overflow_input)
    loop = workloads.Loop("grid")
    workloads.grid_ops([_overflow_op(), _plain_op()], loop)
    assert loop.failures.attempted == 2 and len(loop.latencies) == 2
    assert loop.failures.failed == 1
    assert loop.failures.counts["exception"] == 1
    assert loop.failures.by_type == {"OverflowError": 1}
    [record] = loop.failures.records
    assert record["inputs"]["alpha"] == generate.OVERFLOW_CASE["alpha"]


def test_overflow_input_is_one_operation_in_process_and_cli(tmp_path):
    loop = workloads.Loop("grid")
    workloads.grid_ops([_overflow_op(), _plain_op()], loop)
    assert loop.failures.attempted == 2
    assert loop.failures.failed <= 1
    assert all(r["inputs"]["alpha"] == generate.OVERFLOW_CASE["alpha"] for r in loop.failures.records)

    block = generate.cli_block(1, 0)
    calls = [c for c in block if c.kind in ("overflow", "threshold")]
    loop = workloads.Loop("cli")
    workloads.cli_calls(calls, loop, None, tmp_path)
    assert loop.failures.attempted == 2
    assert loop.failures.failed <= 1
    assert all(r["inputs"]["kind"] == "overflow" for r in loop.failures.records)


# ------------------------------------------------------------ output


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_result_prints_every_metric_with_its_unit(capsys):
    units = dict(run.PER_LAYER)
    metrics = {name: 1.5 for name in units}
    res = run.result("grid", metrics, units, [workloads.Loop("grid")])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    err = capsys.readouterr().err
    for name, unit in units.items():
        assert f"{name} " in err and err.count(f" {unit}\n") >= 1


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _bench("--workload", "oracle", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True and res["attempted"] >= 20
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in res["metrics"].values())
    for name, unit in run.END_TO_END:
        assert f"{name} " in proc.stderr


def test_traced_run_prints_every_per_layer_metric():
    proc = _bench("--workload", "cli", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(run.PER_LAYER)
    report = json.loads(proc.stdout.strip().splitlines()[-2][len("report "):])
    grid = report["failures"]["grid"]
    share = res["metrics"]["grid.fail_share"]["value"]
    assert share == grid["failed"] / grid["attempted"]
    assert grid["failed"] == sum(grid["by_kind"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
