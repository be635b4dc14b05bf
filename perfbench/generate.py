"""Seeded inputs for the three workloads.

The ``grid`` stream is stratified: every epoch holds the same number of
evaluations in each cell (mode count x order stratum x displacement class),
and inside a cell each drawn quantity is Latin-hypercube sampled, so a new
seed changes the values but neither the mix nor the spread of values.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from reference import alpha_star

__all__ = [
    "CELLS",
    "GridOp",
    "grid_round",
    "ORACLE_CASES",
    "OracleCase",
    "oracle_pass",
    "CLI_KINDS",
    "CliCall",
    "OVERFLOW_CASE",
    "SWEEP_ALPHAS",
    "cli_block",
]

MODES = (1, 3, 8)
# below1: alpha < 1; between: 1 < alpha < 0.9 alpha*; near: alpha*(1-eps),
# eps in [1e-3, 1e-1]; above: alpha >= alpha*; unbounded: every r_j > s_j
# (alpha* = inf) with large alpha
ORDERS = ("below1", "between", "near", "above", "unbounded")
DISPLACEMENTS = ("zero", "typical", "large")
CELLS = tuple((m, o, d) for m in MODES for o in ORDERS for d in DISPLACEMENTS)
PER_EPOCH = 16
T_MIN, T_MAX = 0.01, 50.0
INF = math.inf


@dataclass(frozen=True)
class GridOp:
    cell: Tuple[int, str, str]
    r: Tuple[float, ...]
    s: Tuple[float, ...]
    u_rho: Tuple[complex, ...]
    u_sigma: Tuple[complex, ...]
    alpha: float

    @property
    def displaced(self) -> bool:
        return any(z != 0 for z in self.u_rho + self.u_sigma)

    def u_rel(self) -> Tuple[complex, ...]:
        return tuple(a - b for a, b in zip(self.u_rho, self.u_sigma))

    def record(self) -> dict:
        """JSON-ready inputs, enough to reproduce the call."""
        return {
            "cell": list(self.cell),
            "rho": _state_doc(self.r, self.u_rho),
            "sigma": _state_doc(self.s, self.u_sigma),
            "alpha": self.alpha,
        }


def _state_doc(temps, displacement=None) -> dict:
    """A state in the CLI's JSON state-file format."""
    doc = {"temps": ["inf" if math.isinf(t) else t for t in temps]}
    if displacement is not None:
        doc["displacement"] = [[z.real, z.imag] for z in displacement]
    return doc


def _strata(design: random.Random, k: int) -> List[int]:
    """A random ordering of ``k`` equal strata of [0, 1)."""
    out = list(range(k))
    design.shuffle(out)
    return out


def _log_uniform(v: float, lo: float = T_MIN, hi: float = T_MAX) -> float:
    return lo * (hi / lo) ** v


def _cell_op(
    design: random.Random, jitter: random.Random, cell: Tuple[int, str, str], k: int, i: int
) -> GridOp:
    """Evaluation ``i`` of a ``k``-point Latin-hypercube sample of one cell."""
    n, order, disp = cell
    strata = {
        name: _strata(design, k)
        for name in ["alpha", "star"] + [f"{q}{j}" for q in "sru" for j in range(n)]
    }
    pivots = [design.randrange(n) for _ in range(k)]
    # one evaluation per cell and epoch carries a vacuum mode, away from the
    # mode that sets alpha*
    vacuum_op = design.randrange(k) if n > 1 else -1
    both_vacuum = design.random() < 0.5
    pos = {name: (st[i] + jitter.random()) / k for name, st in strata.items()}

    pivot = pivots[i]
    target = _log_uniform(pos["star"], 1.25, 20.0)
    r, s = [], []
    for j in range(n):
        sj = _log_uniform(pos[f"s{j}"])
        other = _log_uniform(pos[f"r{j}"])
        if order == "below1":
            rj = other
        elif order == "unbounded":
            sj, rj = min(sj, other), max(sj, other)
            if rj == sj:
                rj = min(T_MAX, sj * 1.5)
        elif j == pivot:
            rj = sj * (1.0 - 1.0 / target)
        elif pos[f"r{j}"] < 0.5:
            rj = min(T_MAX, max(sj, other) * (1.0 + 1e-3))
        else:
            rj = sj * (1.0 - 1.0 / (target * (1.0 + 4.0 * pos[f"r{j}"])))
        r.append(rj)
        s.append(sj)
    if i == vacuum_op:
        j = (pivot + 1) % n
        r[j] = INF
        if both_vacuum:
            s[j] = INF
    a_star, _ = alpha_star(r, s)
    v = pos["alpha"]
    if order == "below1":
        alpha = 0.05 + 0.9 * v
    elif order == "between":
        alpha = 1.0 + (0.9 * a_star - 1.0) * (0.02 + 0.98 * v)
    elif order == "near":
        alpha = a_star * (1.0 - 10.0 ** (-3.0 + 2.0 * v))
    elif order == "above":
        alpha = a_star * (1.0 + v)
    else:
        alpha = 5.0 * 10.0**v
    if disp == "zero":
        u_rho = u_sigma = (0j,) * n
    else:
        lo, hi = (0.0, 2.0) if disp == "typical" else (2.0, 10.0)
        rel = [
            (lo + (hi - lo) * (1.0 - pos[f"u{j}"])) * cmath.exp(1j * jitter.uniform(0, 2 * math.pi))
            for j in range(n)
        ]
        u_sigma = tuple(
            jitter.random() * cmath.exp(1j * jitter.uniform(0, 2 * math.pi)) for _ in range(n)
        )
        u_rho = tuple(c + z for c, z in zip(u_sigma, rel))
    return GridOp(cell, tuple(r), tuple(s), tuple(u_rho), tuple(u_sigma), alpha)


def grid_round(seed: int, index: int) -> List[GridOp]:
    """Round ``index`` of the ``grid`` stream: one evaluation from every cell, shuffled.

    Every ``PER_EPOCH`` consecutive rounds form an epoch, which holds a
    Latin-hypercube sample of each cell.  The design (which stratum each
    round takes) depends on the epoch number only; the seed places every
    value inside its stratum and sets phases, shifts and order.  So any
    whole number of rounds has the same mix for every seed.
    """
    epoch, i = divmod(index, PER_EPOCH)
    design = random.Random(f"grid-design:{epoch}")
    jitter = random.Random(f"grid:{seed}:{index}")
    ops = [_cell_op(design, jitter, cell, PER_EPOCH, i) for cell in CELLS]
    jitter.shuffle(ops)
    return ops


@dataclass(frozen=True)
class OracleCase:
    label: str
    r: Tuple[float, ...]
    u_rho: Tuple[complex, ...]
    s: Tuple[float, ...]
    u_sigma: Tuple[complex, ...]
    alpha: float
    dim: int

    @property
    def path(self) -> str:
        """Which oracle route the case takes, by the rule ``oracle_trace`` documents."""
        if all(z == 0 for z in self.u_rho + self.u_sigma):
            return "spectral"
        return "structured" if self.alpha > 1.0 else "dense"

    def record(self) -> dict:
        return {
            "label": self.label,
            "rho": _state_doc(self.r, self.u_rho),
            "sigma": _state_doc(self.s, self.u_sigma),
            "alpha": self.alpha,
            "dim": self.dim,
        }


def _oracle_cases() -> Tuple[OracleCase, ...]:
    # the `validate` defaults at n=96, then the 2-mode pair of the oracle
    # tests on its structured (alpha > 1) and dense (alpha < 1) routes
    cases = [
        OracleCase(f"thermal-{a}", (1.0,), (0j,), (2.0,), (0j,), a, 96)
        for a in (0.3, 0.5, 0.9, 1.5)
    ]
    cases += [
        OracleCase(f"displaced-{a}", (1.0,), (1 + 0j,), (2.0,), (0j,), a, 96)
        for a in (0.3, 0.7, 1.5)
    ]
    two = dict(r=(0.8, 1.2), u_rho=(0.6 + 0j, 0j), s=(1.5, 2.0), u_sigma=(0j, 0.3j))
    cases.append(OracleCase("two-mode-1.5-n48", alpha=1.5, dim=48, **two))
    cases += [OracleCase(f"two-mode-0.5-n{n}", alpha=0.5, dim=n, **two) for n in (24, 32)]
    return tuple(cases)


ORACLE_CASES = _oracle_cases()


def oracle_pass(seed: int, index: int) -> List[OracleCase]:
    """Pass ``index`` over the fixed oracle case set, in a seeded order."""
    cases = list(ORACLE_CASES)
    random.Random(f"oracle:{seed}:{index}").shuffle(cases)
    return cases


@dataclass(frozen=True)
class CliCall:
    """One CLI invocation: ``argv`` after the program, the state files it reads, what to expect.

    ``r``, ``s``, ``u_rel`` and ``alpha`` carry the inputs the check needs.
    """

    kind: str
    argv: Tuple[str, ...]
    files: Tuple[Tuple[str, str], ...]
    expect_code: int = 0
    r: Tuple[float, ...] = ()
    s: Tuple[float, ...] = ()
    u_rel: Tuple[complex, ...] = ()
    alpha: float = 0.0

    def record(self) -> dict:
        return {"kind": self.kind, "argv": list(self.argv), "files": dict(self.files)}


def _state(temps, displacement=None) -> str:
    return json.dumps(_state_doc(temps, displacement))


CLI_KINDS = (
    "threshold",
    "entropy-thermal",
    "entropy-displaced",
    "sweep",
    "weyl-scan",
    "malformed",
    "overflow",
)
# an input on which the displaced series overflows although the exact value
# is finite
OVERFLOW_CASE = dict(
    r=(4.9834453035406066,), u_rho=(0.547426234 + 0j,), s=(2.514274904578052,), alpha=5.847908385841311
)
# malformed state files, cycled by block number so every run sees the same set
MALFORMED = (
    '{"temps": [1.0, 2.0',
    '{"displacement": [[1.0, 0.0]]}',
    '{"temps": [1.0, "hot"]}',
    '{"temps": [-1.0]}',
    '{"temps": [1.0], "displacement": [[1.0]]}',
    '{"temps": [null]}',
)
WEYL_ARGS = ("weyl-scan", "--u-re", "1", "--j-max", "20000")
SWEEP_STATES = dict(r=(1.0,), u_rel=(1 + 0j,), s=(2.0,))
SWEEP_ALPHAS = tuple(0.25 + 0.25 * i for i in range(11))


def _cli_order(rng: random.Random, block: int, a_star: float, share: float, cap: float) -> float:
    """An order below one on odd blocks, else between 1 and ``min(share alpha*, cap)``."""
    hi = min(share * a_star, cap)
    if block % 2 or hi < 1.1:
        return 0.2 + 0.7 * rng.random()
    return 1.0 + (hi - 1.0) * (0.05 + 0.95 * rng.random())


def _cli_call(kind: str, rng: random.Random, block: int) -> CliCall:
    if kind == "threshold":
        r = [_log_uniform(rng.random(), 0.1, 10.0) for _ in range(2)] + [INF]
        s = [_log_uniform(rng.random(), 0.1, 10.0) for _ in range(3)]
        if block % 2:
            s[2] = INF
        files = (("rho.json", _state(r)), ("sigma.json", _state(s)))
        return CliCall(kind, ("threshold", "rho.json", "sigma.json"), files, r=tuple(r), s=tuple(s))
    if kind == "entropy-thermal":
        r = [_log_uniform(rng.random(), 0.1, 10.0) for _ in range(2)]
        s = [_log_uniform(rng.random(), 0.1, 10.0) for _ in range(2)]
        a_star, _ = alpha_star(r, s)
        alpha = _cli_order(rng, block, a_star, 0.9, 5.0)
        u = (0j, 0j)
    elif kind == "entropy-displaced":
        r = [_log_uniform(rng.random(), 0.5, 5.0)]
        s = [_log_uniform(rng.random(), 0.5, 5.0)]
        a_star, _ = alpha_star(r, s)
        alpha = _cli_order(rng, block, a_star, 0.8, 3.0)
        u = (1.5 * rng.random() * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),)
    elif kind == "overflow":
        r, s, u, alpha = (
            OVERFLOW_CASE["r"], OVERFLOW_CASE["s"], OVERFLOW_CASE["u_rho"], OVERFLOW_CASE["alpha"]
        )
    elif kind == "sweep":
        return CliCall(kind, (), (), **SWEEP_STATES)
    elif kind == "weyl-scan":
        return CliCall(kind, WEYL_ARGS, ())
    elif kind == "malformed":
        files = (("bad.json", MALFORMED[block % len(MALFORMED)]), ("sigma.json", _state([2.0])))
        return CliCall(kind, ("entropy", "bad.json", "sigma.json", "--alpha", "0.5"), files, 2)
    else:
        raise ValueError(f"unknown CLI call kind {kind!r}")
    files = (("rho.json", _state(r, u)), ("sigma.json", _state(s)))
    argv = ("entropy", "rho.json", "sigma.json", "--alpha", repr(alpha))
    return CliCall(kind, argv, files, r=tuple(r), s=tuple(s), u_rel=tuple(u), alpha=alpha)


def cli_block(seed: int, block: int) -> List[CliCall]:
    """Block ``block`` of the ``cli`` mix: one call of every kind, in a seeded order."""
    rng = random.Random(f"cli:{seed}:{block}")
    calls = [_cli_call(kind, rng, block) for kind in CLI_KINDS]
    rng.shuffle(calls)
    return calls
