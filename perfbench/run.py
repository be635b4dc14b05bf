"""Benchmark of petz-renyi: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``grid``   -- in-process evaluations from a seeded stratified stream;
* ``oracle`` -- the fixed brute-force oracle case set, in-process;
* ``cli``    -- one CLI process per call, from a seeded mix of commands;
* ``all``    -- the three above, one after another, each in its own process.

Untraced (``--trace 0``) runs print the end-to-end metrics.  Traced runs
(``--trace 1``) run every workload for a fixed number of units with spans
around each call into the program, add fresh-process and single-call layer
probes, and print the per-layer metrics; the named workload also runs the
same units untraced, and the difference is reported as tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when the
program returned a wrong value or verdict as if it were right; failures it
reported itself (exceptions, refusals, ``converged=False``, exit codes,
tracebacks) are counted in ``failed``.  Every failed operation's inputs go
to standard error, one JSON line each.
"""

from __future__ import annotations

import os

# fixed before numpy loads, and inherited by every child process
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
try:
    import petz_renyi as pr
    import workloads
except ModuleNotFoundError as exc:
    if exc.name != "petz_renyi":
        raise
    pr = workloads = None  # no program in this checkout: main() refuses to run
WORKLOAD_NAMES = ("grid", "oracle", "cli")
SETUP_PROCESSES = 7
PROBE_PROCESSES = 3
# units per workload in a traced run: fixed, so per-layer counts repeat
# exactly for a given seed
TRACE_UNITS = {"grid": 3, "oracle": 1, "cli": 2}

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
FAIL_KINDS = (
    "exception", "refusal", "unconverged", "exit_code", "traceback", "witness", "verdict", "mismatch",
)
CLI_COMMANDS = ("threshold", "entropy", "sweep", "weyl-scan")
PER_LAYER = (
    ("import.python_ms", "ms"),
    ("import.petz_renyi_ms", "ms"),
    ("import.scipy_special_ms", "ms"),
    ("states.spec_build_us", "us"),
    ("thermal.calls", "count"),
    ("thermal.busy_ms", "ms"),
    ("displaced.calls", "count"),
    ("displaced.busy_s", "s"),
    ("displaced.p50_ms", "ms"),
    ("displaced.tail_ms", "ms"),
    ("displaced.terms", "count"),
    ("displaced.near_busy_s", "s"),
    ("displaced.witness_ms", "ms"),
    ("displaced.errors", "count"),
    ("displaced.unconverged", "count"),
    ("displaced.mismatch", "count"),
    ("displaced.useful_ratio", "share"),
    ("weyl.fejer_scan_ms", "ms"),
    ("weyl.sine_interval_us", "us"),
    ("oracle.calls", "count"),
    ("oracle.busy_s", "s"),
    ("oracle.spectral_ms", "ms"),
    ("oracle.structured_s", "s"),
    ("oracle.dense_s", "s"),
    ("oracle.displacement_matrix_ms", "ms"),
    ("oracle.first_call_ms", "ms"),
    ("oracle.bytes_computed", "B"),
    ("oracle.clamped", "count"),
    ("oracle.max_rel_dev_thermal", "ratio"),
    ("oracle.max_rel_dev_displaced", "ratio"),
    *((f"cli.{c}.p50_ms", "ms") for c in CLI_COMMANDS),
    *((f"cli.{c}.inproc_ms", "ms") for c in CLI_COMMANDS),
    ("cli.exit_nonzero", "count"),
    ("cli.traceback", "count"),
    *((f"{w}.fail_share", "share") for w in WORKLOAD_NAMES),
    *((f"fail.{k}", "count") for k in FAIL_KINDS),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
)


def quantile(xs, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(xs) -> float:
    return quantile(xs, 0.5)


def _fresh(target: str, extra=()) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "fresh.py"), target, *extra],
        cwd=ROOT, env=workloads.program_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _bare_python_ms() -> float:
    times = []
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1e3 * median(times)


def _state_files(workdir: Path):
    rho, sigma = workdir / "setup_rho.json", workdir / "setup_sigma.json"
    rho.write_text('{"temps": [1.0, 0.5, "inf"]}')
    sigma.write_text('{"temps": [2.0, 3.0, 4.0]}')
    return str(rho), str(sigma)


def setup_seconds(workload: str, workdir: Path) -> float:
    """Median over fresh processes of package import plus the workload's first call."""
    extra = _state_files(workdir) if workload == "cli" else ()
    _fresh(workload, extra)  # compiles bytecode; not counted
    runs = [_fresh(workload, extra) for _ in range(SETUP_PROCESSES)]
    return median([r["import_s"] + r["first_call_s"] for r in runs])


def warm_up(workload: str) -> None:
    """Untimed calls that let lazy set-up in the process finish (BLAS, allocator)."""
    if workload == "grid":
        rho = pr.DisplacedThermalSpec(pr.ModeVector([0.5, 1.0]), [2.0, 1.0])
        sigma = pr.DisplacedThermalSpec(pr.ModeVector([1.0, 2.0]), [0j, 0j])
        for alpha in (0.5, 1.5):
            pr.d_alpha_displaced(rho, sigma, alpha)
    elif workload == "oracle":
        rho = pr.DisplacedThermalSpec(pr.ModeVector([0.8, 1.2]), [0.6, 0])
        sigma = pr.DisplacedThermalSpec(pr.ModeVector([1.5, 2.0]), [0, 0.3j])
        pr.oracle_trace(rho, sigma, 0.5, 16)
        pr.oracle_trace(rho, sigma, 1.5, 16)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "machine": platform.machine(),
    }


def end_to_end(workload: str, loop, setup_s: float) -> dict:
    level = workloads.tail_level(workload)
    if workload == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(loop.latencies)
    p50 = median(loop.unit_medians)
    return {
        "ops_per_s": n / loop.wall,
        "p50_ms": 1e3 * p50,
        # a tail at p50 is the median itself
        "tail_ms": 1e3 * (p50 if level == 0.5 else quantile(loop.latencies, level)),
        "ok_share": 1.0 - loop.failures.failed / n,
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(trace, loops: dict, home: str, home_untraced, probes: dict) -> dict:
    m = {}
    m["import.python_ms"] = probes["python_ms"]
    m["import.petz_renyi_ms"] = probes["petz_renyi_ms"]
    m["import.scipy_special_ms"] = probes["scipy_ms"]
    build = trace.durations("states.build")
    m["states.spec_build_us"] = 1e6 * median(build)
    thermal = trace.durations("thermal.call")
    m["thermal.calls"] = len(thermal)
    m["thermal.busy_ms"] = 1e3 * sum(thermal)
    calls = trace.attrs("displaced.call")
    disp = trace.durations("displaced.call")
    m["displaced.calls"] = len(disp)
    m["displaced.busy_s"] = sum(disp)
    m["displaced.p50_ms"] = 1e3 * median(disp)
    m["displaced.tail_ms"] = 1e3 * quantile(disp, workloads.ladder_level(len(disp)))
    m["displaced.terms"] = sum(a["terms"] for a in calls)
    m["displaced.near_busy_s"] = sum(trace.durations("displaced.call", order="near"))
    m["displaced.witness_ms"] = 1e3 * sum(trace.durations("displaced.witness"))
    m["displaced.errors"] = sum(1 for a in calls if a["error"])
    m["displaced.unconverged"] = sum(1 for a in calls if a["kind"] == "unconverged")
    m["displaced.mismatch"] = sum(1 for a in calls if a["kind"] == "mismatch")
    m["displaced.useful_ratio"] = sum(1 for a in calls if a["kind"] is None) / len(calls)
    m["weyl.fejer_scan_ms"] = probes["fejer_ms"]
    m["weyl.sine_interval_us"] = probes["sine_us"]
    oracle = trace.attrs("oracle.call")
    m["oracle.calls"] = len(oracle)
    m["oracle.busy_s"] = sum(trace.durations("oracle.call"))
    m["oracle.spectral_ms"] = 1e3 * sum(trace.durations("oracle.call", path="spectral"))
    m["oracle.structured_s"] = sum(trace.durations("oracle.call", path="structured"))
    m["oracle.dense_s"] = sum(trace.durations("oracle.call", path="dense"))
    m["oracle.displacement_matrix_ms"] = probes["displacement_matrix_ms"]
    m["oracle.first_call_ms"] = probes["oracle_first_call_ms"]
    m["oracle.bytes_computed"] = max(a["dense_bytes"] for a in oracle)
    m["oracle.clamped"] = sum(a["clamped"] for a in oracle)
    devs = {p: [a["rel_dev"] for a in oracle if a["path"] == p and a["rel_dev"] is not None]
            for p in ("spectral", "structured", "dense")}
    m["oracle.max_rel_dev_thermal"] = max(devs["spectral"], default=0.0)
    m["oracle.max_rel_dev_displaced"] = max(devs["structured"] + devs["dense"], default=0.0)
    for cmd in CLI_COMMANDS:
        kinds = ("entropy-thermal", "entropy-displaced") if cmd == "entropy" else (cmd,)
        lat = [d for k in kinds for d in trace.durations("cli.call", cmd=k)]
        m[f"cli.{cmd}.p50_ms"] = 1e3 * median(lat)
        m[f"cli.{cmd}.inproc_ms"] = probes["inproc_ms"][cmd]
    cli = trace.attrs("cli.call")
    m["cli.exit_nonzero"] = sum(1 for a in cli if a["unexpected_nonzero"])
    m["cli.traceback"] = sum(1 for a in cli if a["traceback"])
    for w, lp in loops.items():
        m[f"{w}.fail_share"] = lp.failures.failed / len(lp.latencies)
    for k in FAIL_KINDS:
        m[f"fail.{k}"] = sum(lp.failures.counts[k] for lp in loops.values())
    traced = loops[home]
    m["trace.untraced_ops_per_s"] = len(home_untraced.latencies) / home_untraced.wall
    m["trace.traced_ops_per_s"] = len(traced.latencies) / traced.wall
    m["trace.overhead_pct"] = 100.0 * (traced.wall / home_untraced.wall - 1.0)
    return m


def layer_probes(workdir: Path) -> dict:
    """Fresh-process and single-call timings of layers no workload loop isolates."""
    oracle_fresh = [_fresh("oracle") for _ in range(PROBE_PROCESSES)]
    scipy_fresh = [_fresh("scipy") for _ in range(PROBE_PROCESSES)]

    def median_time(fn, repeats):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return median(times)

    return {
        "python_ms": _bare_python_ms(),
        "petz_renyi_ms": 1e3 * median([r["import_s"] for r in oracle_fresh]),
        "oracle_first_call_ms": 1e3 * median([r["first_call_s"] for r in oracle_fresh]),
        "scipy_ms": 1e3 * median([r["import_s"] for r in scipy_fresh]),
        "fejer_ms": 1e3 * median_time(lambda: pr.fejer_scan(1.0, 20000), 5),
        "sine_us": 1e6 * median_time(lambda: pr.sine_interval_indices(1.0, 10), 201),
        "displacement_matrix_ms": 1e3 * median_time(lambda: pr.displacement_matrix(1.0, 96), 5),
        "inproc_ms": workloads.cli_inproc(workdir, 3),
    }


def paired_overhead_units(workload: str, seed: int, trace, workdir: Path):
    """The workload's traced units, each also run untraced right beside it
    (alternating which goes first), so both see the same machine."""
    untraced, traced = workloads.Loop(workload), workloads.Loop(workload)
    for i in range(TRACE_UNITS[workload]):
        pair = [(untraced, None), (traced, trace)]
        for lp, tr in pair[:: 1 if i % 2 == 0 else -1]:
            workloads.run_unit(workload, seed, i, lp, tr, workdir)
    return untraced, traced


def run_one(workload: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    run_loop = workloads.run_loop
    if traced:
        trace = workloads.Trace()
        for w in WORKLOAD_NAMES:
            warm_up(w)
        untraced, home = paired_overhead_units(workload, seed, trace, workdir)
        loops = {workload: home}
        for w in WORKLOAD_NAMES:
            if w != workload:
                loops[w] = run_loop(w, seed, workdir, trace=trace, units=TRACE_UNITS[w])
        metrics = per_layer(trace, loops, workload, untraced, layer_probes(workdir))
        units = dict(PER_LAYER)
        loops["untraced"] = untraced
        detail = {"trace_units": TRACE_UNITS, "spans": len(trace.spans)}
        (workdir.parent / f"trace-{workload}-s{seed}.json").write_text(json.dumps(trace.dump()))
    else:
        setup_s = setup_seconds(workload, workdir)
        warm_up(workload)
        loop = run_loop(workload, seed, workdir, seconds=seconds)
        metrics = end_to_end(workload, loop, setup_s)
        units = dict(END_TO_END)
        loops = {workload: loop}
        detail = {
            "tail_percentile": 100 * workloads.tail_level(workload),
            "samples": len(loop.latencies),
            "units": loop.units,
            "timed_wall_s": loop.wall,
        }
    for lp in loops.values():
        lp.failures.write()
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "environment": environment(),
        **detail,
        "failures": {name: lp.failures.summary() for name, lp in loops.items()},
    }
    print("report " + json.dumps(report))
    return result(workload, metrics, units, loops.values())


def result(workload: str, metrics: dict, units: dict, loops) -> dict:
    """The result object; also prints every metric with its unit to standard error."""
    for name, value in metrics.items():
        sys.stderr.write(f"{workload:>6}  {name:<32} {value:>14.6g} {units[name]}\n")
    return {
        "correct": all(lp.failures.silent == 0 for lp in loops),
        "attempted": sum(len(lp.latencies) for lp in loops),
        "failed": sum(lp.failures.failed for lp in loops),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {w} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    return combined


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM unwind normally: a running child is killed and waited for,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if workloads is None:
        sys.stderr.write(f"error: no program to benchmark: {ROOT / 'src' / 'petz_renyi'} is missing\n")
        return 2
    if not (args.seconds > 0):
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
