"""Command-line contract: subcommands, formats, exit codes."""

import json
import math

import pytest

from petz_renyi.cli import main
from petz_renyi.displaced import DisplacedThermalSpec, d_alpha_displaced
from petz_renyi.states import ModeVector
from petz_renyi.thermal import d_alpha_thermal


def write_state(tmp_path, name, temps, displacement=None):
    doc = {"temps": temps}
    if displacement is not None:
        doc["displacement"] = displacement
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def states(tmp_path):
    return {
        "rho": write_state(tmp_path, "rho.json", [1.0]),
        "sigma": write_state(tmp_path, "sigma.json", [2.0]),
        "rho_disp": write_state(tmp_path, "rho_disp.json", [1.0], [[1.0, 0.0]]),
        "sigma_disp": write_state(tmp_path, "sigma_disp.json", [2.0], [[0.0, 0.0]]),
        "vacuum": write_state(tmp_path, "vacuum.json", ["inf"]),
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_threshold_output(states, capsys):
    code, out, err = run(capsys, ["threshold", states["rho"], states["sigma"]])
    assert code == 0
    rec = json.loads(out)
    assert rec["alpha_star"] == 2.0
    assert rec["argmin_modes"] == [1]
    assert rec["ratios"] == {"1": 2.0}
    assert "alpha*" in err


def test_threshold_no_crossing_is_inf(states, tmp_path, capsys):
    hot = write_state(tmp_path, "hot.json", [5.0])
    code, out, _ = run(capsys, ["threshold", hot, states["sigma"]])
    assert code == 0
    assert json.loads(out)["alpha_star"] == "inf"


def test_threshold_support_warning(states, tmp_path, capsys):
    code, out, _ = run(capsys, ["threshold", states["rho"], states["vacuum"]])
    assert code == 0
    assert "support violation" in json.loads(out)["warning"]
    # the warning record still carries the scan over the other modes
    rho = write_state(tmp_path, "rho3.json", [1.0, 3.0, 2.0])
    sigma = write_state(tmp_path, "sigma3.json", [2.0, 2.0, "inf"])
    code, out, err = run(capsys, ["threshold", rho, sigma])
    assert code == 0
    assert json.loads(out) == {
        "alpha_star": 2.0,
        "argmin_modes": [1],
        "ratios": {"1": 2.0},
        "warning": "support violation on modes [3]: entropy is infinite for "
        "every order above one",
    }
    assert err == "alpha* = 2  argmin modes [1]\n"


def test_entropy_thermal(states, capsys):
    code, out, _ = run(
        capsys, ["entropy", states["rho"], states["sigma"], "--alpha", "1.5"]
    )
    assert code == 0
    rec = json.loads(out)
    ref = d_alpha_thermal(ModeVector([1.0]), ModeVector([2.0]), 1.5)
    assert rec["finite"] is True
    assert float(rec["value"]) == pytest.approx(ref.value, rel=1e-15)
    assert "series" not in rec


def test_entropy_thermal_divergent(states, capsys):
    code, out, _ = run(
        capsys, ["entropy", states["rho"], states["sigma"], "--alpha", "2.5"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["finite"] is False
    assert rec["value"] == "inf"
    assert rec["witness"]["kind"] == "threshold"


def test_entropy_displaced(states, capsys):
    code, out, _ = run(
        capsys,
        ["entropy", states["rho_disp"], states["sigma_disp"], "--alpha", "0.7"],
    )
    assert code == 0
    rec = json.loads(out)
    ref = d_alpha_displaced(
        DisplacedThermalSpec(ModeVector([1.0]), [1.0]),
        DisplacedThermalSpec(ModeVector([2.0]), [0.0]),
        0.7,
    )
    assert float(rec["value"]) == pytest.approx(ref.entropy.value, rel=1e-12)
    # same record shape as the thermal path: the closed form has no series
    assert set(rec) == {"alpha", "finite", "value"}


def test_entropy_rejects_order_one(states, capsys):
    code, _, err = run(
        capsys, ["entropy", states["rho"], states["sigma"], "--alpha", "1.0"]
    )
    assert code == 2
    assert "error" in err


def test_entropy_displaced_vacuum_above_one_decided(states, tmp_path, capsys):
    vac_disp = write_state(tmp_path, "vd.json", ["inf"], [[1.0, 0.0]])
    code, out, _ = run(
        capsys, ["entropy", vac_disp, states["sigma_disp"], "--alpha", "1.5"]
    )
    assert code == 0
    assert float(json.loads(out)["value"]) == pytest.approx(3.58197711478695, rel=1e-12)
    code, out, _ = run(
        capsys, ["entropy", states["rho_disp"], vac_disp, "--alpha", "1.5"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == "inf"
    assert rec["witness"]["kind"] == "support"


def test_entropy_large_finite_value(tmp_path, capsys):
    # the former double series overflowed here and exited 1 with a traceback
    rho = write_state(tmp_path, "r.json", [4.9834453035406066], [[0.547426234, 0]])
    sigma = write_state(tmp_path, "s.json", [2.514274904578052])
    code, out, _ = run(capsys, ["entropy", rho, sigma, "--alpha", "5.847908385841311"])
    assert code == 0
    assert float(json.loads(out)["value"]) == pytest.approx(12153.508146104568, rel=1e-12)


def test_overflowing_exponent_products_decided(tmp_path, capsys):
    # alpha r overflows; these used to end in an OverflowError traceback
    big = write_state(tmp_path, "big.json", [1e300])
    tiny = write_state(tmp_path, "tiny.json", [1e-300])
    code, out, _ = run(capsys, ["entropy", big, tiny, "--alpha", "1e10"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(300.0 * math.log(10.0), rel=1e-15)
    code, out, _ = run(capsys, ["entropy", big, big, "--alpha", "1e10"])
    assert code == 0
    assert json.loads(out)["value"] == 0
    code, out, _ = run(capsys, ["entropy", tiny, big, "--alpha", "1e10"])
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == "inf" and rec["witness"]["kind"] == "threshold"
    for pair in ((big, tiny), (tiny, big)):
        argv = ["sweep", *pair, "--alpha-min", "0.5", "--alpha-max", "1e10", "--steps", "5"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert len(out.splitlines()) == 6


def test_entropy_beyond_double_range_exits_two(tmp_path, capsys):
    rho = write_state(tmp_path, "r.json", [50.0], [[1.0, 0.0]])
    sigma = write_state(tmp_path, "s.json", [20.0])
    code, out, err = run(capsys, ["entropy", rho, sigma, "--alpha", "40"])
    assert code == 2
    assert out == ""
    assert "error:" in err and "beyond double range" in err


def test_sweep_csv_contract(states, capsys):
    code, out, _ = run(
        capsys,
        [
            "sweep", states["rho"], states["sigma"],
            "--alpha-min", "0.3", "--alpha-max", "2.7", "--steps", "5",
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,finite,d_alpha,tail_bound,terms"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    finite_flags = [row[1] for row in rows]
    assert finite_flags == ["true", "true", "true", "false", "false"]
    assert rows[3][2] == "inf"


def test_sweep_skips_order_one(states, capsys):
    code, out, err = run(
        capsys,
        [
            "sweep", states["rho"], states["sigma"],
            "--alpha-min", "0.5", "--alpha-max", "1.5", "--steps", "3",
        ],
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 3  # header + 2 rows, 1.0 skipped
    assert "alpha = 1" in err


def test_sweep_single_step(states, capsys):
    code, out, _ = run(
        capsys,
        [
            "sweep", states["rho"], states["sigma"],
            "--alpha-min", "0.5", "--alpha-max", "0.5", "--steps", "1",
        ],
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_sweep_identical_states_all_zero(states, capsys):
    code, out, _ = run(
        capsys,
        [
            "sweep", states["rho"], states["rho"],
            "--alpha-min", "0.4", "--alpha-max", "1.6", "--steps", "4",
        ],
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        assert float(line.split(",")[2]) == pytest.approx(0.0, abs=1e-12)


def test_sweep_json_output(states, capsys):
    code, out, _ = run(
        capsys,
        [
            "sweep", states["rho"], states["sigma"],
            "--alpha-min", "0.4", "--alpha-max", "0.6", "--steps", "2",
            "--out", "json",
        ],
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert set(rows[0]) == {"alpha", "finite", "d_alpha", "tail_bound", "terms"}


def test_byte_determinism(states, capsys):
    argv = ["entropy", states["rho_disp"], states["sigma_disp"], "--alpha", "1.5"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_validate_default_passes(states, capsys):
    code, out, err = run(capsys, ["validate"])
    assert code == 0
    rec = json.loads(out)
    assert rec["pass"] is True
    assert float(rec["max_rel_dev_thermal"]) <= 1e-10
    assert float(rec["max_rel_dev_displaced"]) <= 1e-6
    assert "PASS" in err
    # clamping happens above order one only
    assert all("clamped" in case for case in rec["cases"])
    assert all(case["clamped"] == 0 for case in rec["cases"] if case["alpha"] < 1.0)
    assert rec["clamped"] == sum(case["clamped"] for case in rec["cases"])
    assert f"{rec['clamped']} entries clamped" in err


def test_validate_custom_case(states, tmp_path, capsys):
    case = tmp_path / "case.json"
    case.write_text(
        json.dumps(
            {
                "rho": {"temps": [1.0]},
                "sigma": {"temps": [2.0]},
                "alphas": [0.5, 1.5],
            }
        )
    )
    code, out, _ = run(capsys, ["validate", "--case", str(case), "--dim", "48"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_validate_divergent_case_exits_two(tmp_path, capsys):
    # alpha = 2.5 lies above alpha* = 2: the verdict is inf, never a pass
    case = tmp_path / "case.json"
    case.write_text(
        json.dumps({"rho": {"temps": [1]}, "sigma": {"temps": [2]}, "alphas": [2.5]})
    )
    code, out, err = run(capsys, ["validate", "--case", str(case), "--dim", "24"])
    assert code == 2
    assert '"pass": true' not in out
    assert "error:" in err
    assert "alpha* = 2" in err and "threshold" in err


def test_validate_empty_orders_exit_two(tmp_path, capsys):
    # an empty order list would check nothing, so it must not read as a pass
    case = tmp_path / "case.json"
    for alphas in ([], 0.5):
        doc = {"rho": {"temps": [1]}, "sigma": {"temps": [2]}, "alphas": alphas}
        case.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", "--case", str(case), "--dim", "24"])
        assert (code, out) == (2, "")
        assert "error:" in err and "non-empty list of orders" in err


def test_validate_vacuum_sigma_above_one_exits_two(tmp_path, capsys):
    case = tmp_path / "case.json"
    case.write_text(
        json.dumps(
            {
                "rho": {"temps": [1], "displacement": [[1, 0]]},
                "sigma": {"temps": ["inf"]},
                "alphas": [1.5],
            }
        )
    )
    code, out, err = run(capsys, ["validate", "--case", str(case), "--dim", "24"])
    assert code == 2
    assert out == ""
    assert "error:" in err and "support" in err


def test_validate_beyond_double_range_exits_two(tmp_path, capsys):
    # finite D = 12153.5..., but log q = (alpha-1) D is about 58919
    case = tmp_path / "case.json"
    case.write_text(
        json.dumps(
            {
                "rho": {"temps": [4.9834453035406066], "displacement": [[0.547426234, 0]]},
                "sigma": {"temps": [2.514274904578052]},
                "alphas": [5.847908385841311],
            }
        )
    )
    code, out, err = run(capsys, ["validate", "--case", str(case), "--dim", "24"])
    assert code == 2
    assert out == ""
    assert "error:" in err and "beyond double range" in err


def test_weyl_scan(states, capsys):
    code, out, _ = run(capsys, ["weyl-scan", "--u-re", "1", "--j-max", "1000"])
    assert code == 0
    rec = json.loads(out)
    assert rec["count"] >= 100
    assert rec["witnesses"]
    assert all(w["sine_ok"] for w in rec["witnesses"])


def test_weyl_scan_zero_displacement(states, capsys):
    code, out, err = run(capsys, ["weyl-scan", "--j-max", "100"])
    assert code == 2
    assert out == ""
    assert err == "error: displacement must be nonzero with |u|^2 finite, got u = 0j\n"
    code, out, err = run(capsys, ["weyl-scan", "--u-re", "1", "--c", "0", "--j-max", "0"])
    assert code == 2
    assert out == ""
    assert err == "error: constant must be positive, got 0.0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--u-re", "40", "--j-max", "2000"],
        ["--u-re", "1e200"],
        ["--u-re", "nan"],
        ["--u-re", "1", "--u-im", "inf"],
    ],
)
def test_weyl_scan_out_of_range_exits_two(argv, capsys):
    code, out, err = run(capsys, ["weyl-scan", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and ("double range" in err or "finite" in err)


def test_entropy_non_finite_displacement_exits_two(states, tmp_path, capsys):
    for k, part in enumerate(["nan", "inf", "-inf"]):
        rho = write_state(tmp_path, f"nf{k}.json", [1.0], [[part, 0]])
        code, out, err = run(capsys, ["entropy", rho, states["sigma"], "--alpha", "1.5"])
        assert code == 2
        assert out == ""
        assert "invalid state spec" in err and "finite" in err


def test_sweep_non_finite_bounds_exit_two(states, capsys):
    for lo, hi, name in (("0.5", "inf", "alpha-max"), ("-inf", "2", "alpha-min"), ("nan", "2", "alpha-min")):
        code, out, err = run(
            capsys,
            ["sweep", states["rho"], states["sigma"], f"--alpha-min={lo}", f"--alpha-max={hi}"],
        )
        assert code == 2
        assert out == ""
        assert f"error: {name} must be finite" in err


def test_parse_errors_exit_two(states, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, ["threshold", str(bad), states["sigma"]])
    assert code == 2
    weird = write_state(tmp_path, "weird.json", ["infinity"])
    code, _, _ = run(capsys, ["threshold", weird, states["sigma"]])
    assert code == 2
    negative = write_state(tmp_path, "neg.json", [-1.0])
    code, _, _ = run(capsys, ["threshold", negative, states["sigma"]])
    assert code == 2
    malformed = [
        {"temps": [None]},
        {"temps": 5},
        {"temps": [[1]]},
        {"temps": [1.0], "displacement": [[None, 0]]},
        {"temps": [1.0], "displacement": 5},
    ]
    for k, doc in enumerate(malformed):
        path = tmp_path / f"malformed{k}.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["threshold", str(path), states["sigma"]])
        assert code == 2, doc
        assert "error:" in err
    case = tmp_path / "case.json"
    case.write_text("[1]")
    code, _, err = run(capsys, ["validate", "--case", str(case)])
    assert code == 2
    assert "error:" in err


# runs the CLI, then reports on stderr whether numpy was loaded
FRESH_CLI = (
    "import sys; from petz_renyi.cli import main; code = main(sys.argv[1:]); "
    "print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr); sys.exit(code)"
)


@pytest.fixture
def run_fresh(fresh_python):
    """Exit code and whether numpy was loaded, for one CLI call in a new process."""

    def run(argv):
        proc = fresh_python(FRESH_CLI, *argv)
        last = proc.stderr.splitlines()[-1]
        assert last.startswith("numpy loaded: "), proc.stderr
        return proc.returncode, last == "numpy loaded: True"

    return run


def test_closed_form_commands_leave_numpy_unloaded(states, tmp_path, run_fresh):
    bad = tmp_path / "bad.json"
    bad.write_text('{"temps": [1.0, 2.0')
    rho, sigma, moved = states["rho"], states["sigma"], states["rho_disp"]
    calls = {
        "threshold": (["threshold", rho, sigma], 0),
        "entropy, finite": (["entropy", moved, sigma, "--alpha", "1.5"], 0),
        "entropy, threshold witness": (["entropy", rho, sigma, "--alpha", "2.5"], 0),
        "entropy, support witness": (["entropy", rho, states["vacuum"], "--alpha", "1.5"], 0),
        "sweep": (["sweep", moved, sigma, "--alpha-min", "0.5", "--alpha-max", "3"], 0),
        "malformed state file": (["entropy", str(bad), sigma, "--alpha", "0.5"], 2),
    }
    for what, (argv, expected) in calls.items():
        assert run_fresh(argv) == (expected, False), what


def test_numpy_commands_load_it_on_demand(run_fresh):
    # below the default dimension the truncation error fails the check (exit 1)
    assert run_fresh(["validate", "--dim", "96"]) == (0, True)
    assert run_fresh(["weyl-scan", "--u-re", "1", "--j-max", "200"]) == (0, True)


def test_closed_form_path_loads_neither_dataclasses_nor_inspect(states, fresh_python):
    report = "import sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    bare = fresh_python(report).stdout.strip()
    if bare != "[]":
        pytest.skip(f"a bare interpreter loads {bare}")
    cli = (
        "import sys\n"
        "from petz_renyi.cli import main\n"
        "assert main(['threshold', *sys.argv[1:]]) == 0\n"
        "assert main(['entropy', *sys.argv[1:], '--alpha', '1.5']) == 0\n"
    )
    proc = fresh_python(cli + report, states["rho_disp"], states["sigma"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    proc = fresh_python("import petz_renyi; petz_renyi.ModeVector\n" + report)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_weyl_scan_infinite_constant_exits_two(capsys):
    code, out, err = run(capsys, ["weyl-scan", "--u-re", "1", "--c", "inf"])
    assert code == 2
    assert out == ""
    assert err == "error: constant must be finite, got inf\n"
