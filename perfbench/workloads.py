"""The ``grid``, ``oracle`` and ``cli`` workloads.

Each workload is a closed loop with one caller: an operation starts when the
previous one has returned.  A workload runs in units (a grid round, an
oracle pass, a cli block) and only ever stops between units, so every run
holds the same mix.  Within a unit, inputs and reference values are prepared
first, then the calls are timed back to back, then every outcome is checked
and classified; only the calls fall inside the timed wall.

With a :class:`Trace`, each call into the program's modules also leaves a
span (name, start, end, operation id, attributes) in memory.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from classify import Failure, Failures, from_exception, from_process
from generate import SWEEP_ALPHAS, cli_block, grid_round, oracle_pass
from reference import alpha_star, fejer_indices, reference, values_match

from petz_renyi import (
    DisplacedThermalSpec,
    ModeVector,
    d_alpha_displaced,
    d_alpha_thermal,
    diagonal_divergence_witness,
    oracle_trace,
)

__all__ = [
    "ROOT", "Trace", "Loop", "run_loop", "run_unit", "grid_ops", "cli_calls", "cli_inproc",
    "WORKLOADS", "ladder_level", "tail_level", "program_env", "CLI_PROGRAM",
]

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter
# the oracle's own acceptance tolerances (relative, on the trace argument)
ORACLE_TOL = {"spectral": 1e-10, "structured": 1e-6, "dense": 1e-6}
# what the `petz-renyi` console script runs
CLI_PROGRAM = ("-c", "import sys; from petz_renyi.cli import main; sys.exit(main())")
CLI_TIMEOUT_S = 120.0


class Trace:
    """Spans around calls into the program, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []

    def add(self, name: str, t0: float, t1: float, op: int, **attrs) -> None:
        self.spans.append((name, t0, t1, op, attrs))

    def durations(self, name: str, **match) -> List[float]:
        return [
            t1 - t0
            for n, t0, t1, _, attrs in self.spans
            if n == name and all(attrs.get(k) == v for k, v in match.items())
        ]

    def attrs(self, name: str) -> List[dict]:
        return [attrs for n, _, _, _, attrs in self.spans if n == name]

    def dump(self) -> List[dict]:
        return [
            {"name": n, "start": t0, "end": t1, "op": op, **attrs}
            for n, t0, t1, op, attrs in self.spans
        ]


@dataclass
class Loop:
    """Outcome of running a workload: per-operation latencies and failures."""

    workload: str
    latencies: List[float] = field(default_factory=list)
    unit_medians: List[float] = field(default_factory=list)
    wall: float = 0.0
    units: int = 0
    failures: Failures = None

    def __post_init__(self):
        if self.failures is None:
            self.failures = Failures(self.workload)


def program_env(workdir: Optional[Path] = None) -> dict:
    """Environment for child processes: the package from source, temp files kept in the checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if workdir is not None:
        env["TMPDIR"] = str(workdir)
    return env


# ---------------------------------------------------------------- grid


@dataclass
class _GridOutcome:
    latency: float
    stage: str
    entropy: object = None
    series: object = None
    witness: object = None
    error: Optional[Failure] = None
    stamps: tuple = ()


def _grid_call(op) -> _GridOutcome:
    """One evaluation, dispatched as ``petz-renyi entropy`` dispatches it."""
    t0 = clock()
    stage = "states"
    stamps = [t0]
    try:
        r, s = ModeVector(op.r), ModeVector(op.s)
        rho = DisplacedThermalSpec(r, op.u_rho)
        sigma = DisplacedThermalSpec(s, op.u_sigma)
        stamps.append(clock())
        series = witness = None
        if op.displaced:
            stage = "displaced"
            res = d_alpha_displaced(rho, sigma, op.alpha)
            entropy, series = res.entropy, res.series
        else:
            stage = "thermal"
            entropy = d_alpha_thermal(r, s, op.alpha)
        stamps.append(clock())
        if not entropy.finite and op.alpha > 1.0 and rho.faithful and sigma.faithful:
            stage = "witness"
            witness = diagonal_divergence_witness(r, s, op.u_rel(), op.alpha)
            stamps.append(clock())
    except Exception as exc:  # every failure is counted, none ends the run
        t1 = clock()
        # keep the classification, not the exception: its traceback would
        # hold the failed call's arrays alive
        failure = from_exception(exc)
        return _GridOutcome(t1 - t0, stage, error=failure, stamps=tuple(stamps) + (t1,))
    return _GridOutcome(clock() - t0, stage, entropy, series, witness, stamps=tuple(stamps))


def _check_grid(op, ref, out: _GridOutcome) -> Optional[Failure]:
    if out.error is not None:
        return out.error
    if out.series is not None and not out.series.converged:
        return Failure("unconverged", f"tail bound {out.series.tail_bound}")
    ent = out.entropy
    if ent.finite != ref.finite:
        return Failure("verdict", f"finite={ent.finite}, expected {ref.finite}")
    if not ref.finite:
        if ent.witness is None:
            return Failure("witness", "infinite value without a witness")
        faithful = not any(math.isinf(t) for t in op.r + op.s)
        w = out.witness
        if faithful and (w is None or not w.sample_indices or not (w.exponent <= 0.0)):
            return Failure("witness", f"diagonal-subseries witness samples nothing: {w}")
        return None
    if not values_match(ent.value, ref, op.alpha):
        return Failure("mismatch", f"value {ent.value!r}, reference {ref.value!r}")
    return None


def _grid_unit(seed: int, index: int, loop: Loop, trace: Optional[Trace]) -> None:
    grid_ops(grid_round(seed, index), loop, trace)


def grid_ops(ops, loop: Loop, trace: Optional[Trace] = None) -> None:
    """Time the evaluations back to back, then check and count each one."""
    refs = [reference(op.r, op.s, op.u_rel(), op.alpha) for op in ops]
    t0 = clock()
    outs = [_grid_call(op) for op in ops]
    loop.wall += clock() - t0
    for op, ref, out in zip(ops, refs, outs):
        failure = _check_grid(op, ref, out)
        loop.latencies.append(out.latency)
        loop.failures.add(failure, op.record())
        if trace is not None:
            _trace_grid(trace, len(loop.latencies), op, out, failure)


def _trace_grid(trace: Trace, op_id: int, op, out: _GridOutcome, failure) -> None:
    st = out.stamps
    trace.add("grid.op", st[0], st[0] + out.latency, op_id, kind=failure and failure.kind)
    if len(st) > 1:
        trace.add("states.build", st[0], st[1], op_id)
    if len(st) > 2:
        call = "displaced.call" if op.displaced else "thermal.call"
        series = out.series
        trace.add(
            call,
            st[1],
            st[2],
            op_id,
            order=op.cell[1],
            error=out.error is not None and out.stage != "witness",
            terms=series.terms_used if series is not None else 0,
            converged=series is None or series.converged,
            kind=failure and failure.kind,
        )
    if len(st) > 3:
        trace.add("displaced.witness", st[2], st[3], op_id)


# ---------------------------------------------------------------- oracle


def _oracle_unit(seed: int, index: int, loop: Loop, trace: Optional[Trace]) -> None:
    cases = oracle_pass(seed, index)
    specs = [
        (DisplacedThermalSpec(c.r, c.u_rho), DisplacedThermalSpec(c.s, c.u_sigma)) for c in cases
    ]
    refs = [
        reference(c.r, c.s, [a - b for a, b in zip(c.u_rho, c.u_sigma)], c.alpha) for c in cases
    ]
    outs = []
    t_unit = clock()
    for c, (rho, sigma) in zip(cases, specs):
        t0 = clock()
        try:
            value = oracle_trace(rho, sigma, c.alpha, c.dim)
        except Exception as exc:  # counted, never fatal
            value = from_exception(exc)
        outs.append((value, t0, clock()))
    loop.wall += clock() - t_unit
    for c, ref, (value, t0, t1) in zip(cases, refs, outs):
        dev = None
        if isinstance(value, Failure):
            failure = value
        else:
            exact = math.exp(ref.log_q)
            dev = abs(value.value - exact) / exact
            failure = None
            if not (dev <= ORACLE_TOL[c.path]):
                failure = Failure("mismatch", f"rel deviation {dev:.3g} on the {c.path} path")
        loop.latencies.append(t1 - t0)
        loop.failures.add(failure, c.record())
        if trace is not None:
            n_total = c.dim ** len(c.r)
            trace.add(
                "oracle.call",
                t0,
                t1,
                len(loop.latencies),
                path=c.path,
                rel_dev=dev,
                clamped=0 if isinstance(value, Failure) else value.clamped,
                # one dense complex128 operator on the full truncated space
                dense_bytes=16 * n_total * n_total if c.path != "spectral" else 0,
            )


# ---------------------------------------------------------------- cli


def _cli_command(call, calldir: Path) -> List[str]:
    if call.kind == "sweep":
        return [sys.executable, str(ROOT / "scripts" / "sweep_demo.py")]
    names = dict(call.files)
    argv = [str(calldir / a) if a in names else a for a in call.argv]
    return [sys.executable, *CLI_PROGRAM, *argv]


def _as_float(v) -> float:
    return math.inf if v == "inf" else float(v)


def _check_entropy(r, s, u_rel, alpha, finite, value, witness, converged=True) -> Optional[Failure]:
    """Check one printed entropy (``value`` as printed: a number or ``"inf"``)."""
    if not converged:
        return Failure("unconverged", "series reported converged=false")
    ref = reference(r, s, u_rel, alpha)
    if finite != ref.finite:
        return Failure("verdict", f"finite={finite}, expected {ref.finite}")
    if not ref.finite:
        return None if witness else Failure("witness", "infinite value without a witness")
    value = _as_float(value)
    if not values_match(value, ref, alpha):
        return Failure("mismatch", f"value {value!r}, reference {ref.value!r}")
    return None


def _check_threshold_record(call, rec) -> Optional[Failure]:
    a_star, argmin = alpha_star(call.r, call.s)
    ratios = {
        str(j + 1): sj / (sj - rj)
        for j, (rj, sj) in enumerate(zip(call.r, call.s))
        if not (math.isinf(rj) or math.isinf(sj) or rj >= sj)
    }
    got = {k: _as_float(v) for k, v in rec["ratios"].items()}
    if _as_float(rec["alpha_star"]) != a_star or tuple(rec["argmin_modes"]) != argmin:
        return Failure("mismatch", f"alpha* {rec['alpha_star']} {rec['argmin_modes']}, expected {a_star} {argmin}")
    if got != ratios:
        return Failure("mismatch", f"ratios {got}, expected {ratios}")
    return None


def _check_sweep(call, out: str) -> Optional[Failure]:
    lines = out.splitlines()
    if not lines or lines[0] != "alpha,finite,d_alpha,tail_bound,terms":
        return Failure("mismatch", "missing CSV header")
    expected = [a for a in SWEEP_ALPHAS if a != 1.0]
    if len(lines) - 1 != len(expected):
        return Failure("mismatch", f"{len(lines) - 1} rows, expected {len(expected)}")
    for line, alpha in zip(lines[1:], expected):
        a, finite, value = line.split(",")[:3]
        if abs(float(a) - alpha) > 1e-12:
            return Failure("mismatch", f"row alpha {a}, expected {alpha}")
        # the CSV has no witness column; infinite rows are judged by verdict alone
        failure = _check_entropy(call.r, call.s, call.u_rel, alpha, finite == "true", value, True)
        if failure is not None:
            return failure
    return None


@functools.lru_cache(maxsize=1)
def _fejer_reference() -> tuple:
    return tuple(fejer_indices(1.0, 20000))


def _check_weyl(rec) -> Optional[Failure]:
    want = list(_fejer_reference())
    const = math.exp(0.5) / (2.0 * math.sqrt(2.0 * math.pi))
    if rec["count"] != len(want) or rec["qualifying_head"] != want[:50]:
        return Failure("mismatch", f"count {rec['count']}, expected {len(want)}")
    if abs(rec["constant"] - const) > 1e-15 * const:
        return Failure("mismatch", f"constant {rec['constant']}, expected {const}")
    return None


def _check_cli(call, proc) -> Optional[Failure]:
    if isinstance(proc, Exception):
        return from_exception(proc)
    failure = from_process(call.expect_code, proc.returncode, proc.stderr)
    if failure is not None or call.kind == "malformed":
        if failure is None and "error:" not in proc.stderr:
            return Failure("exit_code", "exit 2 without an error message")
        return failure
    try:
        if call.kind == "sweep":
            return _check_sweep(call, proc.stdout)
        rec = json.loads(proc.stdout)
        if call.kind == "weyl-scan":
            return _check_weyl(rec)
        if call.kind == "threshold":
            return _check_threshold_record(call, rec)
        converged = rec.get("series", {}).get("converged", True)
        return _check_entropy(
            call.r, call.s, call.u_rel, call.alpha,
            rec["finite"], rec["value"], "witness" in rec, converged,
        )
    except (ValueError, KeyError, TypeError) as exc:
        return Failure("mismatch", f"unreadable output: {type(exc).__name__}: {exc}")


def _cli_unit(seed: int, index: int, loop: Loop, trace: Optional[Trace], workdir: Path) -> None:
    cli_calls(cli_block(seed, index), loop, trace, workdir)


def cli_calls(calls, loop: Loop, trace: Optional[Trace], workdir: Path) -> None:
    """Run the calls as processes one at a time, then check and count each one."""
    env = program_env(workdir)
    commands = []
    for k, call in enumerate(calls):
        calldir = workdir / f"call{k}"
        calldir.mkdir(parents=True, exist_ok=True)
        for name, text in call.files:
            (calldir / name).write_text(text)
        commands.append(_cli_command(call, calldir))
    outs = []
    t_unit = clock()
    for cmd in commands:
        t0 = clock()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
            )
        except (OSError, subprocess.SubprocessError) as exc:
            proc = exc
        outs.append((proc, t0, clock()))
    loop.wall += clock() - t_unit
    for calldir in workdir.glob("call*"):
        shutil.rmtree(calldir, ignore_errors=True)
    for call, (proc, t0, t1) in zip(calls, outs):
        failure = _check_cli(call, proc)
        loop.latencies.append(t1 - t0)
        loop.failures.add(failure, call.record())
        if trace is not None:
            code = proc.returncode if not isinstance(proc, Exception) else None
            trace.add(
                "cli.call",
                t0,
                t1,
                len(loop.latencies),
                cmd=call.kind,
                unexpected_nonzero=bool(code) and call.expect_code == 0,
                traceback=failure is not None and failure.kind == "traceback",
            )


def cli_inproc(workdir: Path, repeats: int) -> dict:
    """Median ms of ``cli.main(argv)`` per command, in this process after a warm import."""
    from petz_renyi.cli import main

    one = workdir / "inproc"
    one.mkdir(parents=True, exist_ok=True)
    files = {
        "rho.json": '{"temps": [1.0, 0.5, "inf"]}',
        "sigma.json": '{"temps": [2.0, 3.0, 4.0]}',
        "rho1.json": '{"temps": [1.0], "displacement": [[1.0, 0.0]]}',
        "sigma1.json": '{"temps": [2.0]}',
    }
    for name, text in files.items():
        (one / name).write_text(text)
    p = lambda name: str(one / name)  # noqa: E731
    argvs = {
        "threshold": ["threshold", p("rho.json"), p("sigma.json")],
        "entropy": ["entropy", p("rho1.json"), p("sigma1.json"), "--alpha", "1.5"],
        "sweep": [
            "sweep", p("rho1.json"), p("sigma1.json"),
            "--alpha-min", "0.25", "--alpha-max", "2.75", "--steps", "11",
        ],
        "weyl-scan": ["weyl-scan", "--u-re", "1", "--j-max", "20000"],
    }
    out = {}
    for cmd, argv in argvs.items():
        times = []
        for _ in range(repeats):
            sink = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                main(argv)
            times.append(clock() - t0)
        times.sort()
        out[cmd] = 1e3 * times[len(times) // 2]
    return out


# ---------------------------------------------------------------- driver

# workload -> (unit runner, minimum operations per run, stride).  The tail
# is reported at the highest percentile with ten samples beyond it at the
# minimum count.  A run stops only after a whole number of strides: 8 grid
# rounds are half an epoch's design, and 6 cli blocks cycle every malformed
# file and both order ranges, so every run holds the same mix.  A stride is
# also the run's granularity: it ends at the stride boundary nearest
# ``seconds``.  The oracle's minimum keeps its tail at p50: its pool is 4-5
# passes of the same ten cases, so its p75 is always the 2-mode n=48 case
# alone, whose latency swung by a quarter with the shared machine's memory
# traffic (IQR/median 0.27 over ten runs).
WORKLOADS = {
    "grid": (_grid_unit, 200, 8),
    "oracle": (_oracle_unit, 20, 1),
    "cli": (_cli_unit, 40, 6),
}
LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


def ladder_level(n: int) -> float:
    """Highest percentile on the ladder with at least ten of ``n`` samples beyond it."""
    fit = [p for p in LADDER if n * (1.0 - p) >= 10.0]
    return fit[-1] if fit else 0.5


def tail_level(workload: str) -> float:
    """The percentile at which a workload reports its tail."""
    return ladder_level(WORKLOADS[workload][1])


def run_unit(
    workload: str, seed: int, index: int, loop: Loop, trace: Optional[Trace], workdir: Path
) -> None:
    """Run unit ``index`` of a workload into ``loop``."""
    unit = WORKLOADS[workload][0]
    first = len(loop.latencies)
    if workload == "cli":
        unit(seed, index, loop, trace, workdir)
    else:
        unit(seed, index, loop, trace)
    loop.units += 1
    loop.unit_medians.append(statistics.median(loop.latencies[first:]))


def run_loop(
    workload: str,
    seed: int,
    workdir: Path,
    trace: Optional[Trace] = None,
    seconds: Optional[float] = None,
    units: Optional[int] = None,
) -> Loop:
    """Run exactly ``units`` units, or whole strides of units until the
    workload's minimum operation count is reached and the timed wall is
    closer to ``seconds`` than another stride would bring it."""
    _, min_ops, stride = WORKLOADS[workload]
    loop = Loop(workload)
    if units is not None:
        while loop.units < units:
            run_unit(workload, seed, loop.units, loop, trace, workdir)
        return loop
    while True:
        before = loop.wall
        for _ in range(stride):
            run_unit(workload, seed, loop.units, loop, trace, workdir)
        last = loop.wall - before
        if len(loop.latencies) >= min_ops and loop.wall >= seconds - last / 2:
            return loop
