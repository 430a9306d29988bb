"""Value semantics of the nine record types (the library's eight and the
tests' reference ``SubsetRates``): immutable fields, equality and hashing
by value within one class, the field-by-field ``repr``, the constructors'
keywords and defaults, and their validation; and the package's public
names, outside of which the library defines no public function or class."""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import gmacwt
from gmacwt import (
    ChannelParams,
    GridSpec,
    JammingSolution,
    RateRegion,
    StandardChannel,
    SumRateSolution,
    TwoUserChannel,
    ValidationError,
)
from gmacwt.region import InfeasibilityWitness

from helpers import SubsetRates

#: (class, field values in order, the exact repr).
RECORDS = [
    (ChannelParams, ((1.0, 2.0), (0.5, 0.25), 2.0, 1.0, (5.0, 10.0)),
     "ChannelParams(gains_to_receiver=(1.0, 2.0), gains_to_eavesdropper=(0.5, 0.25), "
     "noise_var_receiver=2.0, noise_var_eavesdropper=1.0, power_limits=(5.0, 10.0))"),
    (StandardChannel, ((0.1, 0.2), (10.0, 10.0), "nats"),
     "StandardChannel(h=(0.1, 0.2), p_max=(10.0, 10.0), rate_unit='nats')"),
    (SubsetRates, (1.0, 0.5, 0.75, 0.25),
     "SubsetRates(main=1.0, tap=0.5, main_intf=0.75, tap_intf=0.25)"),
    (InfeasibilityWitness, ("subset", (0, 1)),
     "InfeasibilityWitness(kind='subset', users=(0, 1))"),
    (RateRegion, ((1.0, 0.5, 1.25), True, "bits"),
     "RateRegion(bounds=(1.0, 0.5, 1.25), feasible=True, rate_unit='bits')"),
    (GridSpec, (7,), "GridSpec(steps_per_axis=7)"),
    (SumRateSolution, ((10.0, 0.0), 1, 1.5, 0.25, "nats"),
     "SumRateSolution(powers=(10.0, 0.0), limiting_user=1, sum_rate=1.5, "
     "snr_ratio=0.25, rate_unit='nats')"),
    (TwoUserChannel, (0.4, 1.4, 10.0, 10.0),
     "TwoUserChannel(h1=0.4, h2=1.4, p1_max=10.0, p2_max=10.0)"),
    (JammingSolution, (10.0, 0.49, 0.59, "InteriorRoot", "A", "bits"),
     "JammingSolution(p1=10.0, p2=0.49, secrecy_rate=0.59, branch='InteriorRoot', "
     "case_tag='A', rate_unit='bits')"),
]

FIELDS = {
    ChannelParams: ("gains_to_receiver", "gains_to_eavesdropper", "noise_var_receiver",
                    "noise_var_eavesdropper", "power_limits"),
    StandardChannel: ("h", "p_max", "rate_unit"),
    SubsetRates: ("main", "tap", "main_intf", "tap_intf"),
    InfeasibilityWitness: ("kind", "users"),
    RateRegion: ("bounds", "feasible", "rate_unit"),
    GridSpec: ("steps_per_axis",),
    SumRateSolution: ("powers", "limiting_user", "sum_rate", "snr_ratio", "rate_unit"),
    TwoUserChannel: ("h1", "h2", "p1_max", "p2_max"),
    JammingSolution: ("p1", "p2", "secrecy_rate", "branch", "case_tag", "rate_unit"),
}

IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,values,text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, values, text):
    fields = FIELDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_position, f) for f in fields) == values
    assert repr(by_position) == repr(by_keyword) == text


@pytest.mark.parametrize("cls,values,text", RECORDS, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, values, text):
    record = cls(*values)
    for field in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, field, values[0])
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == values[FIELDS[cls].index(field)]
    assert repr(record) == text


@pytest.mark.parametrize("cls,values,text", RECORDS, ids=IDS)
def test_equality_and_hash_go_by_value_within_one_class(cls, values, text):
    record, twin = cls(*values), cls(*values)
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1

    other = cls(*[v for v in values[:-1]], _changed(values[-1]))
    assert record != other

    subclass = type("Twin", (cls,), {})
    assert record != subclass(*values) and subclass(*values) != record
    assert record != values
    assert record != text


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return {"bits": "nats", "nats": "bits"}.get(value, value + "x")
    if isinstance(value, tuple):
        return value[:-1] + (value[-1] + 1,)
    return value + 1


@pytest.mark.parametrize("cls,values,text", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal(cls, values, text):
    record = cls(*values)
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is cls and repr(clone) == text


def test_defaults():
    assert StandardChannel((0.5,), (1.0,)).rate_unit == "bits"
    assert StandardChannel(h=(0.5,), p_max=(1.0,)) == StandardChannel((0.5,), (1.0,), "bits")
    assert GridSpec().steps_per_axis == 11
    assert GridSpec() == GridSpec(11) == GridSpec(steps_per_axis=11)


def test_fields_are_normalized_on_construction():
    ch = StandardChannel([1, 2], [3, 4], "nats")
    assert ch.h == (1.0, 2.0) and ch.p_max == (3.0, 4.0)
    assert all(type(x) is float for x in ch.h + ch.p_max)
    assert repr(ch) == "StandardChannel(h=(1.0, 2.0), p_max=(3.0, 4.0), rate_unit='nats')"
    raw = ChannelParams([4], [1], 2, 1, [5])
    assert raw == ChannelParams((4.0,), (1.0,), 2.0, 1.0, (5.0,))
    assert TwoUserChannel(0, 1, 2, 3) == TwoUserChannel(0.0, 1.0, 2.0, 3.0)


@pytest.mark.parametrize("build,match", [
    (lambda: ChannelParams((1.0,), (0.5, 0.5), 1.0, 1.0, (1.0,)), "gains_to_eavesdropper: length"),
    (lambda: ChannelParams((0.0,), (0.5,), 1.0, 1.0, (1.0,)), r"gains_to_receiver\[0\]"),
    (lambda: ChannelParams((1.0,), (0.5,), 0.0, 1.0, (1.0,)), "noise_var_receiver"),
    (lambda: ChannelParams((), (), 1.0, 1.0, ()), "users: must have between 1 and 16"),
    (lambda: StandardChannel((0.1, 0.2), (1.0,)), "p_max: length 1"),
    (lambda: StandardChannel((-0.1,), (1.0,)), r"h\[0\]: must be finite and >= 0"),
    (lambda: StandardChannel((0.1,), (1.0,), "dB"), "rate_unit"),
    (lambda: StandardChannel((1e300, 1e300), (1e300, 1e300)), "overflows"),
    (lambda: StandardChannel((0.1,) * 17, (1.0,) * 17), "users: must have between 1 and 16"),
    (lambda: GridSpec(1), r"steps_per_axis: must be >= 2 \(got 1\)"),
    (lambda: GridSpec(steps_per_axis=-3), r"steps_per_axis: must be >= 2 \(got -3\)"),
    (lambda: GridSpec(2.5), r"steps_per_axis: must be an integer \(got 2.5\)"),
    (lambda: GridSpec("x"), r"steps_per_axis: must be an integer \(got 'x'\)"),
    (lambda: GridSpec(None), r"steps_per_axis: must be an integer \(got None\)"),
    (lambda: TwoUserChannel(1.5, 0.5, 1.0, 1.0), "h1: must be <= h2"),
    (lambda: TwoUserChannel(0.1, 0.5, -1.0, 1.0), "p1_max"),
    (lambda: TwoUserChannel(0.1, float("nan"), 1.0, 1.0), "h2"),
])
def test_construction_validates(build, match):
    with pytest.raises(ValidationError, match=match):
        build()


def test_grid_spec_takes_numpy_integers_as_ints():
    import numpy as np
    spec = GridSpec(np.int64(7))
    assert spec == GridSpec(7)
    assert type(spec.steps_per_axis) is int


def test_every_public_name_resolves():
    assert set(gmacwt.__all__) <= set(dir(gmacwt))
    for name in gmacwt.__all__:
        assert getattr(gmacwt, name) is not None
    namespace = {}
    exec("from gmacwt import *", namespace)
    assert set(gmacwt.__all__) <= set(namespace)
    from gmacwt import oracle, region
    assert namespace["grid_max_sum_rate"] is oracle.grid_max_sum_rate
    assert namespace["RateRegion"] is region.RateRegion
    with pytest.raises(AttributeError):
        gmacwt.no_such_name


#: Public names outside ``__all__`` that the library keeps: a record that
#: ``is_feasible`` returns, ``silence_threshold``, which ``solve_jamming``
#: calls, and ``sum_secrecy_rate``, which nothing in the library calls: it
#: is the checked public entry to the objective the sum-rate scan
#: maximizes, and the fuzz suite holds it to the entry rule.
KEPT = {"InfeasibilityWitness", "sum_secrecy_rate", "silence_threshold"}


@pytest.mark.parametrize("module", ["channel", "region", "sumrate", "jamming", "oracle"])
def test_the_library_defines_no_public_name_outside_the_api(module):
    """A function or class that no command and no public name runs belongs
    in ``tests/helpers.py``, not on the import path of every process."""
    mod = import_module(f"gmacwt.{module}")
    defined = {name for name, value in vars(mod).items()
               if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == mod.__name__}
    assert defined - {*gmacwt.__all__, *KEPT} == set()


def test_star_import_in_a_fresh_interpreter():
    """``import *`` loads every module the public names live in."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("from gmacwt import *; import gmacwt, json, sys; print(json.dumps(["
             "[n for n in gmacwt.__all__ if n not in globals()], sorted(sys.modules)]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    missing, modules = json.loads(proc.stdout)
    assert missing == []
    assert {f"gmacwt.{m}" for m in ("channel", "jamming", "oracle", "region", "sumrate")} <= set(modules)
