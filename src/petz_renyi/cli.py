"""Command-line front end.

State specs are JSON documents with a ``temps`` list (positive numbers or the
literal string ``"inf"`` for vacuum modes) and an optional ``displacement``
list of ``[re, im]`` pairs.  Machine-readable output goes to stdout with fixed
17-significant-digit float formatting (infinities as lowercase ``"inf"``);
human-readable summaries go to stderr.  Exit codes: 0 success, 1 validation
failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from .displaced import DisplacedThermalSpec, d_alpha_displaced
from .states import ModeVector
from .thermal import _threshold_scan, _violating_modes, alpha_threshold

__all__ = ["main"]


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + _to_json(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _to_json(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit(obj) -> None:
    sys.stdout.write(_to_json(obj) + "\n")


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def load_state_spec(path: str) -> DisplacedThermalSpec:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"cannot parse state file {path}: {e}")
    return _spec_from_doc(doc, path)


def _number(v, what: str, path: str) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        raise CliError(f"{what} must be a number in {path}, got {v!r}")


def _spec_from_doc(doc, path: str) -> DisplacedThermalSpec:
    if not isinstance(doc, dict) or not isinstance(doc.get("temps"), list):
        raise CliError(f"state file {path} must be an object with a 'temps' list")
    temps = []
    for t in doc["temps"]:
        if isinstance(t, str):
            if t.lower() != "inf":
                raise CliError(f"bad temperature literal {t!r} in {path}")
            temps.append(math.inf)
        else:
            temps.append(_number(t, "temperature", path))
    disp = None
    if doc.get("displacement") is not None:
        if not isinstance(doc["displacement"], list):
            raise CliError(f"displacement must be a list of [re, im] pairs in {path}")
        disp = []
        for pair in doc["displacement"]:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise CliError(f"displacement entries must be [re, im] pairs in {path}")
            parts = [_number(v, "displacement", path) for v in pair]
            disp.append(complex(*parts))
    try:
        return DisplacedThermalSpec(ModeVector(temps), disp)
    except ValueError as e:
        raise CliError(f"invalid state spec in {path}: {e}")


def cmd_threshold(args) -> int:
    rho = load_state_spec(args.rho)
    sigma = load_state_spec(args.sigma)
    if rho.n_modes != sigma.n_modes:
        raise CliError("states have different mode counts")
    thr = _threshold_scan(rho.temps, sigma.temps)
    violating = list(_violating_modes(rho.temps, sigma.temps))
    argmin = list(thr.argmin_modes)
    record = {
        "alpha_star": thr.alpha_star,
        "argmin_modes": argmin,
        "ratios": {str(j): ratio for j, ratio in thr.ratios.items()},
    }
    if violating:
        record["warning"] = (
            f"support violation on modes {violating}: entropy is infinite for "
            "every order above one"
        )
    _emit(record)
    _note(f"alpha* = {_fmt(thr.alpha_star)}  argmin modes {argmin}")
    return 0


def _witness_record(w) -> dict:
    rec = {"kind": w.kind, "mode": w.mode, "detail": w.detail}
    if w.exponent is not None:
        rec["exponent"] = w.exponent
    if w.sample_indices:
        rec["sample_indices"] = list(w.sample_indices)
    return rec


def cmd_entropy(args) -> int:
    rho = load_state_spec(args.rho)
    sigma = load_state_spec(args.sigma)
    alpha = args.alpha
    ent = d_alpha_displaced(rho, sigma, alpha).entropy
    record = {"alpha": alpha, "finite": ent.finite, "value": ent.value}
    if ent.witness is not None:
        record["witness"] = _witness_record(ent.witness)
    _emit(record)
    _note(f"D_{_fmt(alpha)} = {_fmt(record['value'])}")
    return 0


def cmd_sweep(args) -> int:
    rho = load_state_spec(args.rho)
    sigma = load_state_spec(args.sigma)
    for name, bound in (("alpha-min", args.alpha_min), ("alpha-max", args.alpha_max)):
        if not math.isfinite(bound):
            raise CliError(f"{name} must be finite, got {_fmt(bound)}")
    if not (0.0 < args.alpha_min < args.alpha_max) and args.steps != 1:
        raise CliError("need 0 < alpha-min < alpha-max")
    if args.steps < 1:
        raise CliError("steps must be >= 1")
    if args.steps == 1:
        grid = [args.alpha_min]
    else:
        step = (args.alpha_max - args.alpha_min) / (args.steps - 1)
        grid = [args.alpha_min + i * step for i in range(args.steps)]
    rows = []
    for alpha in grid:
        if alpha == 1.0:
            _note("skipping grid point alpha = 1 (order one is excluded)")
            continue
        ent = d_alpha_displaced(rho, sigma, alpha).entropy
        rows.append((alpha, ent.finite, ent.value, 0.0, 0))
    if args.out == "csv":
        sys.stdout.write("alpha,finite,d_alpha,tail_bound,terms\n")
        for alpha, finite, val, tail, terms in rows:
            finite_s = "true" if finite else "false"
            sys.stdout.write(
                f"{_fmt(alpha)},{finite_s},{_fmt(val)},{_fmt(tail)},{terms}\n"
            )
    else:
        _emit(
            [
                {
                    "alpha": alpha,
                    "finite": finite,
                    "d_alpha": val,
                    "tail_bound": tail,
                    "terms": terms,
                }
                for alpha, finite, val, tail, terms in rows
            ]
        )
    return 0


_VALIDATE_THERMAL_TOL = 1e-10
_VALIDATE_DISPLACED_TOL = 1e-6


def _default_validation_cases():
    r = ModeVector([1.0])
    s = ModeVector([2.0])
    thermal = (DisplacedThermalSpec(r), DisplacedThermalSpec(s), [0.3, 0.5, 0.9, 1.5])
    displaced = (
        DisplacedThermalSpec(r, [1.0 + 0j]),
        DisplacedThermalSpec(s, [0j]),
        [0.3, 0.7, 1.5],
    )
    return thermal, displaced


def cmd_validate(args) -> int:
    from .oracle import oracle_trace  # imported here: only this command needs numpy

    if args.case == "default":
        thermal_case, displaced_case = _default_validation_cases()
        cases = [("thermal", *thermal_case), ("displaced", *displaced_case)]
    else:
        try:
            with open(args.case) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise CliError(f"cannot parse case file {args.case}: {e}")
        if not isinstance(doc, dict):
            raise CliError(f"case file {args.case} must be an object")
        rho = _spec_from_doc(doc.get("rho"), args.case)
        sigma = _spec_from_doc(doc.get("sigma"), args.case)
        alphas = doc.get("alphas", [0.5])
        if not isinstance(alphas, list) or not alphas:
            raise CliError(f"'alphas' must be a non-empty list of orders in {args.case}")
        undisplaced = all(z == 0 for z in rho.displacement) and all(
            z == 0 for z in sigma.displacement
        )
        kind = "thermal" if undisplaced else "displaced"
        cases = [(kind, rho, sigma, [_number(a, "order", args.case) for a in alphas])]
    # the trace argument must be a normal double for the comparison to mean anything
    log_lo, log_hi = math.log(sys.float_info.min), math.log(sys.float_info.max)
    results = []
    worst = {"thermal": 0.0, "displaced": 0.0}
    clamped = 0
    for kind, rho, sigma, alphas in cases:
        for alpha in alphas:
            ent = d_alpha_displaced(rho, sigma, alpha).entropy
            if not ent.finite:
                # a support violation makes every order above one infinite
                star = 1.0
                if ent.witness.kind != "support":
                    star = alpha_threshold(rho.temps, sigma.temps).alpha_star
                raise CliError(
                    f"D_alpha is infinite at alpha = {_fmt(alpha)} "
                    f"(alpha* = {_fmt(star)}, {ent.witness.kind} witness): "
                    "the oracle checks finite values only"
                )
            log_q = (alpha - 1.0) * ent.value
            if not (log_lo <= log_q <= log_hi):
                raise CliError(
                    f"trace argument exp({_fmt(log_q)}) at alpha = {_fmt(alpha)} "
                    "lies beyond double range: the oracle cannot check it"
                )
            oracle = oracle_trace(rho, sigma, alpha, args.dim)
            # |oracle / e^{log q} - 1|, infinite when the oracle is not positive
            dev = math.inf
            if 0.0 < oracle.value < math.inf:
                dev = abs(math.expm1(math.log(oracle.value) - log_q))
            worst[kind] = max(worst[kind], dev)
            clamped += oracle.clamped
            results.append(
                {
                    "kind": kind,
                    "alpha": alpha,
                    "trace_argument": math.exp(log_q),
                    "oracle": oracle.value,
                    "rel_deviation": dev,
                    "clamped": oracle.clamped,
                }
            )
    ok = (
        worst["thermal"] <= _VALIDATE_THERMAL_TOL
        and worst["displaced"] <= _VALIDATE_DISPLACED_TOL
    )
    _emit(
        {
            "dim": args.dim,
            "cases": results,
            "max_rel_dev_thermal": worst["thermal"],
            "max_rel_dev_displaced": worst["displaced"],
            "clamped": clamped,
            "pass": ok,
        }
    )
    _note(
        f"max deviation thermal {_fmt(worst['thermal'])} "
        f"displaced {_fmt(worst['displaced'])}, {clamped} entries clamped: "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def cmd_weyl_scan(args) -> int:
    # imported here: weyl needs numpy, which no other command but validate loads
    from .weyl import default_fejer_constant, fejer_scan, sine_interval_indices

    u = complex(args.u_re, args.u_im)
    witnesses = sine_interval_indices(u, args.m_max)
    c = args.c if args.c is not None else default_fejer_constant(u)
    qualifying = fejer_scan(u, args.j_max, c)
    wit_records = []
    for w in witnesses:
        sine = abs(math.sin(2.0 * math.sqrt(w.j) * abs(u) + math.pi / 4.0))
        wit_records.append(
            {
                "m": w.m,
                "interval": [w.lo, w.hi],
                "j": w.j,
                "sine": sine,
                "sine_ok": sine >= 1.0 / math.sqrt(2.0),
            }
        )
    _emit(
        {
            "u": [u.real, u.imag],
            "constant": c,
            "j_max": args.j_max,
            "count": len(qualifying),
            "qualifying_head": qualifying[:50],
            "witnesses": wit_records,
        }
    )
    _note(f"{len(qualifying)} qualifying indices up to {args.j_max}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="petz-renyi",
        description="Petz-Renyi relative entropy of displaced thermal states",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("threshold", help="finiteness threshold alpha*")
    t.add_argument("rho")
    t.add_argument("sigma")
    t.set_defaults(func=cmd_threshold)

    e = sub.add_parser("entropy", help="entropy at a single order")
    e.add_argument("rho")
    e.add_argument("sigma")
    e.add_argument("--alpha", type=float, required=True)
    e.set_defaults(func=cmd_entropy)

    w = sub.add_parser("sweep", help="entropy over a grid of orders")
    w.add_argument("rho")
    w.add_argument("sigma")
    w.add_argument("--alpha-min", type=float, required=True)
    w.add_argument("--alpha-max", type=float, required=True)
    w.add_argument("--steps", type=int, default=50)
    w.add_argument("--out", choices=["csv", "json"], default="csv")
    w.set_defaults(func=cmd_sweep)

    v = sub.add_parser("validate", help="closed forms vs the brute-force oracle")
    v.add_argument("--case", default="default")
    v.add_argument("--dim", type=int, default=96)
    v.set_defaults(func=cmd_validate)

    f = sub.add_parser("weyl-scan", help="sine-interval witnesses and decay scan")
    f.add_argument("--u-re", type=float, default=0.0)
    f.add_argument("--u-im", type=float, default=0.0)
    f.add_argument("--j-max", type=int, default=1000)
    f.add_argument("--c", type=float, default=None)
    f.add_argument("--m-max", type=int, default=10)
    f.set_defaults(func=cmd_weyl_scan)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        _note(f"error: {e}")
        return e.code
    except ValueError as e:
        _note(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
