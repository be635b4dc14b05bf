"""The public names and records of the package, pinned so a contract change is deliberate."""

import copy
import inspect
import math
import pickle

import pytest

import petz_renyi
from petz_renyi.states import Record

PUBLIC_NAMES = [
    "DisplacedEntropyResult",
    "DisplacedThermalSpec",
    "DivergenceWitness",
    "ExtendedEntropy",
    "ModeVector",
    "OracleTrace",
    "SeriesEstimate",
    "SineIntervalWitness",
    "SupportViolation",
    "ThresholdResult",
    "alpha_threshold",
    "annihilation_matrix",
    "covariance",
    "covariance_criterion",
    "covariance_equivalence",
    "d_alpha_displaced",
    "d_alpha_thermal",
    "default_fejer_constant",
    "diagonal_divergence_witness",
    "displacement_matrix",
    "fejer_scan",
    "laguerre",
    "log1mexp",
    "oracle_trace",
    "predict_finiteness",
    "relative_displacement",
    "sine_interval_indices",
    "support_contained",
    "thermal_matrix",
    "validate_order",
    "weyl_diag",
    "weyl_diag_sequence",
    "weyl_element",
]

# parameter names of every public function, in order
PUBLIC_SIGNATURES = {
    "alpha_threshold": ("r", "s"),
    "annihilation_matrix": ("n",),
    "covariance": ("s", "alpha"),
    "covariance_criterion": ("r", "s", "alpha"),
    "covariance_equivalence": ("rho", "sigma", "alpha"),
    "d_alpha_displaced": ("rho", "sigma", "alpha"),
    "d_alpha_thermal": ("r", "s", "alpha"),
    "default_fejer_constant": ("u",),
    "diagonal_divergence_witness": ("r", "s", "u", "alpha"),
    "displacement_matrix": ("u", "n"),
    "fejer_scan": ("u", "j_max", "c"),
    "laguerre": ("j", "x"),
    "log1mexp": ("x",),
    "oracle_trace": ("rho", "sigma", "alpha", "n"),
    "predict_finiteness": ("rho", "sigma", "alpha"),
    "relative_displacement": ("rho", "sigma"),
    "sine_interval_indices": ("u", "m_max"),
    "support_contained": ("r", "s"),
    "thermal_matrix": ("s", "n"),
    "validate_order": ("alpha",),
    "weyl_diag": ("j", "u"),
    "weyl_diag_sequence": ("jmax", "u"),
    "weyl_element": ("row", "col", "u"),
}


def test_public_names_are_pinned():
    # submodules are attributes of the package too, but not exports
    public = {
        name
        for name in dir(petz_renyi)
        if not name.startswith("_") and not inspect.ismodule(getattr(petz_renyi, name))
    }
    assert public == set(PUBLIC_NAMES)


def test_every_public_name_imports_from_the_package():
    for name in PUBLIC_NAMES:
        namespace = {}
        exec(f"from petz_renyi import {name}", namespace)
        assert namespace[name] is getattr(petz_renyi, name)


def test_public_signatures_are_pinned():
    functions = {
        name: tuple(inspect.signature(getattr(petz_renyi, name)).parameters)
        for name in PUBLIC_NAMES
        if inspect.isfunction(getattr(petz_renyi, name))
    }
    assert functions == PUBLIC_SIGNATURES


def test_all_lists_the_public_names():
    assert petz_renyi.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from petz_renyi import *", namespace)
    assert {name: namespace[name] for name in PUBLIC_NAMES} == {
        name: getattr(petz_renyi, name) for name in PUBLIC_NAMES
    }


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(petz_renyi, "no_such_name")
    assert not hasattr(petz_renyi, "no_such_name")


def test_package_import_loads_numpy_only_on_demand(fresh_python):
    program = (
        "import sys, petz_renyi\n"
        "assert 'numpy' not in sys.modules, 'import petz_renyi loaded numpy'\n"
        "petz_renyi.d_alpha_thermal\n"
        "assert 'numpy' not in sys.modules, 'the thermal closed form loaded numpy'\n"
        "petz_renyi.oracle_trace\n"
        "assert 'numpy' in sys.modules, 'the oracle did not load numpy'\n"
    )
    proc = fresh_python(program)
    assert proc.returncode == 0, proc.stderr


WITNESS = {"kind": "threshold", "mode": 1, "detail": "x"}

# every record, built by keyword, with the repr that dataclasses gave it
RECORDS = [
    ("ModeVector", {"temps": (1.0, 2.5)}, "ModeVector(temps=(1.0, 2.5))"),
    (
        "DivergenceWitness",
        WITNESS,
        "DivergenceWitness(kind='threshold', mode=1, detail='x', exponent=None, sample_indices=())",
    ),
    (
        "DivergenceWitness",
        {**WITNESS, "exponent": -0.5, "sample_indices": (3, 7)},
        "DivergenceWitness(kind='threshold', mode=1, detail='x', exponent=-0.5, sample_indices=(3, 7))",
    ),
    ("ExtendedEntropy", {"value": 0.25}, "ExtendedEntropy(value=0.25, witness=None)"),
    ("ThresholdResult", {"alpha_star": 2.0}, "ThresholdResult(alpha_star=2.0, argmin_modes=(), ratios={})"),
    (
        "ThresholdResult",
        {"alpha_star": 2.0, "argmin_modes": (1,), "ratios": {1: 2.0}},
        "ThresholdResult(alpha_star=2.0, argmin_modes=(1,), ratios={1: 2.0})",
    ),
    (
        "DisplacedThermalSpec",
        {"temps": [1.0, math.inf], "displacement": [1 + 2j, 0]},
        "DisplacedThermalSpec(temps=ModeVector(temps=(1.0, inf)), displacement=((1+2j), 0j))",
    ),
    (
        "SeriesEstimate",
        {"log_sum": -0.5, "tail_bound": 0.0, "terms_used": 0, "converged": True},
        "SeriesEstimate(log_sum=-0.5, tail_bound=0.0, terms_used=0, converged=True)",
    ),
    (
        "DisplacedEntropyResult",
        {"entropy": 0.25, "series": None},
        "DisplacedEntropyResult(entropy=0.25, series=None)",
    ),
    ("OracleTrace", {"value": 0.5, "clamped": 0, "dim": 96}, "OracleTrace(value=0.5, clamped=0, dim=96)"),
    (
        "SineIntervalWitness",
        {"m": 1, "lo": 2.5, "hi": 5.5, "j": 3},
        "SineIntervalWitness(m=1, lo=2.5, hi=5.5, j=3)",
    ),
]


def build(name, fields):
    return getattr(petz_renyi, name)(**fields)


@pytest.mark.parametrize("name, fields, text", RECORDS)
def test_record_repr_is_pinned(name, fields, text):
    assert repr(build(name, fields)) == text


@pytest.mark.parametrize("name, fields, text", RECORDS)
def test_record_value_semantics(name, fields, text):
    record = build(name, fields)
    again = build(name, fields)
    assert isinstance(record, Record)
    assert record == again and not record != again
    assert record == getattr(petz_renyi, name)(*(getattr(record, f) for f in record._fields))
    assert all(record != build(*other[:2]) for other in RECORDS if other[2] != text)
    if name == "ThresholdResult":
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)  # its ratios are a dict, as under dataclasses
    else:
        assert hash(record) == hash(again)


def test_records_of_different_classes_never_compare_equal():
    class Twin(Record):
        __slots__ = ("value", "witness")

    entropy = petz_renyi.ExtendedEntropy(0.25)
    assert Twin(0.25, None) != entropy and entropy != Twin(0.25, None)
    assert Twin(0.25, None) == Twin(value=0.25, witness=None)


@pytest.mark.parametrize("name, fields, text", RECORDS)
def test_records_are_frozen(name, fields, text):
    record = build(name, fields)
    for field in record._fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("name, fields, text", RECORDS)
def test_records_pickle_and_copy(name, fields, text):
    record = build(name, fields)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == text


def test_default_ratios_are_not_shared():
    first, second = petz_renyi.ThresholdResult(2.0), petz_renyi.ThresholdResult(2.0)
    first.ratios[1] = 2.0
    assert second.ratios == {} and petz_renyi.ThresholdResult(3.0).ratios == {}
    deep = copy.deepcopy(first)
    assert deep.ratios == {1: 2.0} and deep.ratios is not first.ratios
