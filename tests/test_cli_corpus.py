"""A seeded corpus of command-line inputs, each run in process through ``cli.main``.

The corpus pins the outcome class only, not the bytes: every call exits 0, 1
or 2, and a refusal (exit 2) prints exactly one ``error:`` line, no traceback
and nothing on stdout.  Its inputs mix valid values with edge numbers (signed
zeros, subnormals, ``1e308``, integers beyond double range, the ``NaN`` and
``Infinity`` literals, numeric strings), wrong types (booleans, ``null``,
nested lists), wrong lengths and missing keys, and every size argument just
above its cap next to small valid sizes.  No call runs a size at its cap.
"""

import contextlib
import io
import json
import math
import random
import time

from petz_renyi import cli, oracle, weyl
from petz_renyi.cli import main

SEED = 20261021
CALLS = 2000
CALL_BUDGET_S = 0.5

# numbers that make valid states and orders, so that some calls succeed
MODES = [1, 1, 2, 3]
GOOD_TEMPS = [0.5, 1.0, 1.3, 2.0, 3.0, "inf"]
GOOD_PARTS = [0.0, 0.5, -0.3, 1.0]
GOOD_ORDERS = [0.3, 0.5, 0.9, 1.5, 2.5]
# JSON values that stand where a number is expected
EDGE_NUMBERS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1, 2, 37.0, 1e308, -1e308, -1.0,
    10**400, -(10**400), math.nan, math.inf, -math.inf,
]
NUMERIC_STRINGS = ["1.5", "0", "inf", "INF", "Infinity", "nan", "-1", "1e400"]
WRONG_TYPES = [True, False, None, [1.0], [[0.5]], {}, {"re": 1.0}]
# files that are no JSON document
BROKEN = [b"{not json", b"", b"[1", b'\xff{"temps": [1.0]}']

# command-line values as (valid, odd) pools, passed as --flag=value so that a
# leading minus is read as a value; each size has small valid values and the
# value just above its cap, never the cap itself
ALPHAS = (
    ["0.3", "0.5", "0.7", "1.5", "2.5"],
    ["1", "0", "-1", "nan", "inf", "-inf", "1e400", "5e-324", "1e300"],
)
BOUNDS = (["0.25", "0.5", "2", "2.75"], ["1", "0", "-1", "nan", "inf", "5e-324"])
STEPS = (["1", "2", "5", "11"], ["0", "-1", str(cli._MAX_STEPS + 1)])
DIMS = (["2", "3", "8", "16"], ["0", "1", str(oracle.MAX_DIM + 1)])
U_PARTS = (["0", "1", "-1", "0.5", "2"], ["-0", "1e-170", "40", "1e200", "nan", "inf"])
J_MAX = (["1", "5", "60", "300"], ["0", "-1", str(weyl._J_MAX_CAP + 1)])
M_MAX = (["1", "3", "10"], ["0", "-1", str(weyl._M_MAX_CAP + 1)])
CONSTANTS = (["0.5", "1e-3"], ["0", "-1", "nan", "inf", "1e300"])


def odd_value(rng):
    return rng.choice(rng.choice([EDGE_NUMBERS, EDGE_NUMBERS, NUMERIC_STRINGS, WRONG_TYPES]))


def arg(rng, pools):
    good, odd = pools
    return rng.choice(good if rng.random() < 0.8 else odd)


def state_doc(rng, modes):
    """A valid state of ``modes`` modes, or one with a single defect."""
    doc = {"temps": [rng.choice(GOOD_TEMPS) for _ in range(modes)]}
    if rng.random() < 0.5:
        doc["displacement"] = [[rng.choice(GOOD_PARTS) for _ in "ri"] for _ in range(modes)]
    if rng.random() < 0.65:
        return doc
    disp = doc.setdefault("displacement", [[0.0, 0.0] for _ in range(modes)])
    defect = rng.randrange(7)
    if defect == 0:  # an odd temperature
        doc["temps"][rng.randrange(modes)] = odd_value(rng)
    elif defect == 1:  # an odd displacement component
        rng.choice(disp)[rng.randrange(2)] = odd_value(rng)
    elif defect == 2:  # a pair of the wrong length or type
        disp[rng.randrange(modes)] = rng.choice([[], [0.5], [0.5, 0.0, 1.0], odd_value(rng)])
    elif defect == 3:  # lengths that differ, or no modes at all
        doc["temps"], doc["displacement"] = rng.choice(
            [([], []), (doc["temps"], disp + [[0.5, 0.0]]), (doc["temps"], disp[1:])]
        )
    elif defect == 4:  # a list replaced by another type
        doc[rng.choice(["temps", "displacement"])] = odd_value(rng)
    elif defect == 5:  # a missing or misspelt key
        doc = rng.choice([{}, {"displacement": disp}, {"temp": doc["temps"]}])
    else:  # no object at all
        doc = rng.choice([[1.0], "state", None, 3])
    return doc


def case_doc(rng):
    """A valid case document, or one with a single defect."""
    modes = rng.choice(MODES)
    doc = {"rho": state_doc(rng, modes), "sigma": state_doc(rng, modes)}
    if rng.random() < 0.7:
        doc["alphas"] = [rng.choice(GOOD_ORDERS) for _ in range(rng.choice([1, 2, 3]))]
    if rng.random() < 0.65:
        return doc
    defect = rng.randrange(4)
    if defect == 0:  # an odd order
        doc["alphas"] = [*doc.get("alphas", []), odd_value(rng)]
    elif defect == 1:  # orders that are no list, or none
        doc["alphas"] = rng.choice([[], None, 0.5, "0.5", {}])
    elif defect == 2:  # a missing state
        del doc[rng.choice(["rho", "sigma"])]
    else:
        doc = rng.choice([[1], None, "case", 2.0])
    return doc


def write(path, data):
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return str(path)


def file_pool(tmp_path, name, docs):
    paths = [write(tmp_path / f"{name}{i}.json", json.dumps(doc)) for i, doc in enumerate(docs)]
    paths += [write(tmp_path / f"{name}-broken{i}.json", t) for i, t in enumerate(BROKEN)]
    return paths + [str(tmp_path / f"{name}-missing.json")]


def table_case(tmp_path, rng):
    # three displaced modes at the largest truncation: above the oracle's table
    # bound, refused before the table is built (one or two such modes at this
    # truncation would run a table of up to 1.3 GB: never generated)
    rho = {"temps": [1.0] * 3, "displacement": [[rng.choice([0.5, 1.0]), 0.0]] * 3}
    doc = {"rho": rho, "sigma": {"temps": [2.0] * 3}, "alphas": [rng.choice(GOOD_ORDERS[:4])]}
    return write(tmp_path / "three-modes.json", json.dumps(doc))


def calls(tmp_path):
    rng = random.Random(SEED)
    # states by mode count, so that most pairs agree in it
    states = {
        m: file_pool(tmp_path, f"state{m}-", [state_doc(rng, m) for _ in range(100)])
        for m in (1, 2, 3)
    }
    cases = file_pool(tmp_path, "case", [case_doc(rng) for _ in range(150)])
    table = table_case(tmp_path, rng)
    for _ in range(CALLS):
        command = rng.choice(["threshold", "entropy", "sweep", "validate", "weyl-scan"])
        if rng.random() < 0.1:
            pair = [rng.choice(states[rng.choice(MODES)]) for _ in range(2)]
        else:
            pair = rng.choices(states[rng.choice(MODES)], k=2)
        if command == "threshold":
            yield [command, *pair]
        elif command == "entropy":
            yield [command, *pair, f"--alpha={arg(rng, ALPHAS)}"]
        elif command == "sweep":
            yield [
                command, *pair, f"--alpha-min={arg(rng, BOUNDS)}",
                f"--alpha-max={arg(rng, BOUNDS)}", f"--steps={arg(rng, STEPS)}",
                f"--out={rng.choice(['csv', 'json'])}",
            ]
        elif command == "validate":
            roll = rng.random()
            if roll < 0.03:
                yield [command, f"--case={table}", f"--dim={oracle.MAX_DIM}"]
            else:
                case = "default" if roll < 0.15 else rng.choice(cases)
                yield [command, f"--case={case}", f"--dim={arg(rng, DIMS)}"]
        else:
            argv = [
                command, f"--u-re={arg(rng, U_PARTS)}", f"--u-im={arg(rng, U_PARTS)}",
                f"--j-max={arg(rng, J_MAX)}", f"--m-max={arg(rng, M_MAX)}",
            ]
            yield argv if rng.random() < 0.5 else [*argv, f"--c={arg(rng, CONSTANTS)}"]


def outcome(argv):
    """The exit code of one call, and what is wrong with its outcome, if anything."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as e:  # SystemExit: argparse refused the call
        return None, f"raised {type(e).__name__}: {e}"
    out, err = out.getvalue(), err.getvalue()
    errors = sum(line.startswith("error:") for line in err.splitlines())
    if code not in (0, 1, 2) or "Traceback" in err:
        return code, "an exit code outside 0, 1, 2, or a traceback"
    if (errors, bool(out)) != ((1, False) if code == 2 else (0, True)):
        return code, f"{errors} error lines and {len(out)} bytes on stdout"
    return code, None


def test_cli_outcome_corpus(tmp_path):
    codes, problems, slowest = {}, [], (0.0, None)
    for argv in calls(tmp_path):
        start = time.perf_counter()
        code, problem = outcome(argv)
        slowest = max(slowest, (time.perf_counter() - start, argv))
        codes[code] = codes.get(code, 0) + 1
        if problem:
            problems.append((argv, problem))
    assert not problems, f"{len(problems)} calls out of class: {problems[:5]}"
    assert set(codes) == {0, 1, 2}, codes  # the corpus reaches every outcome
    # the whole corpus takes about 2 s on two cores; one call near a second
    # would be a size run at its cap, which the corpus never means to do
    assert slowest[0] < CALL_BUDGET_S, slowest
