"""Every public library entry at magnitudes up to the float maximum.

Each call either returns a value whose floats are all finite, or raises
``ValidationError`` whose message starts with the name of one of the
call's arguments, or of a field of a record it builds; ``verify_*`` may
also raise ``InternalError``, their answer to a disagreement.  No call may
warn.  This is ``tests/test_cli_fuzz.py``'s rule brought into the library.

Every entry gets its arguments from raw draws and builds its channel
itself, so an entry whose channel is refused is a refusal too.  The
draws mix ordinary values with 0, subnormals, gains within 1e-12 of 1
and powers up to 1.7976931348623157e308; grids stay small.  One domain
rule decides every overflow: the users' total of the powers and of the
gain-weighted powers must be finite (``channel._check_totals``).
"""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gmacwt
from gmacwt import (
    ChannelParams,
    GridSpec,
    InternalError,
    StandardChannel,
    TwoUserChannel,
    ValidationError,
    build_region,
    channel_from_json,
    channel_to_json,
    grid_max_jamming,
    grid_max_sum_rate,
    is_feasible,
    jam_objective,
    load_channel,
    max_sum_rate,
    solve_jamming,
    standardize,
    union_sweep,
    verify_jamming,
    verify_sum_rate,
)
from gmacwt.channel import _Record
from gmacwt.sumrate import sum_secrecy_rate

MAX = 1.7976931348623157e308
EXTREMES = [0.0, 5e-324, 1e-310, 1e150, 1e200, 1e300, MAX]
NEAR_ONE = st.one_of(st.sampled_from([1.0 - 1e-12, 1.0, 1.0 + 1e-12]),
                     st.floats(1.0 - 1e-12, 1.0 + 1e-12))
ORDINARY = st.sampled_from([0.1, 0.5, 2.0, 10.0])
#: A gain or a power: extreme one time in two, else ordinary or next to 1.
NUMBERS = st.one_of(st.sampled_from(EXTREMES), st.one_of(ORDINARY, NEAR_ONE))
SIGNED = st.builds(lambda x, sign: sign * x, NUMBERS, st.sampled_from([1.0, -1.0]))
UNITS = st.sampled_from(["bits", "nats"])
STEPS = st.integers(2, 4)
#: A grid count, as ``GridSpec``'s entry draws it, with a bool, strings and 0.
COUNTS = st.one_of(STEPS, NUMBERS, st.sampled_from([True, "3", "x", 0]))


def _vector(k, values=NUMBERS):
    return st.lists(values, min_size=k, max_size=k)


@st.composite
def _standard(draw, users=st.integers(1, 3)):
    """Keyword arguments of a ``StandardChannel``."""
    k = draw(users)
    return {"h": draw(_vector(k)), "p_max": draw(_vector(k)), "rate_unit": draw(UNITS)}


@st.composite
def _two(draw):
    """Arguments of a ``TwoUserChannel``, gains sorted seven times in eight."""
    h = draw(_vector(2))
    if draw(st.integers(0, 7)):
        h.sort()
    return (*h, draw(NUMBERS), draw(NUMBERS))


def _raw_doc(draw):
    k = draw(st.integers(1, 3))
    users = [{"gain_receiver": draw(NUMBERS), "gain_eavesdropper": draw(NUMBERS),
              "power_max": draw(NUMBERS)} for _ in range(k)]
    return {"users": users, "noise_var_receiver": draw(NUMBERS),
            "noise_var_eavesdropper": draw(NUMBERS), "rate_unit": draw(UNITS)}


def _document(draw):
    if draw(st.booleans()):
        return _raw_doc(draw)
    std = draw(_standard())
    return {"standard": True, "rate_unit": std["rate_unit"],
            "users": [{"h": h, "power_max": p} for h, p in zip(std["h"], std["p_max"])]}


STANDARD = ("h", "p_max", "rate_unit")
TWO = ("h1", "h2", "p1_max", "p2_max")
RAW = ("gains_to_receiver", "gains_to_eavesdropper", "noise_var_receiver",
       "noise_var_eavesdropper", "power_limits")
DOCUMENT = ("users", *RAW, *STANDARD)


def _standardize(draw):
    doc = _raw_doc(draw)
    users = doc["users"]
    raw = ChannelParams([u["gain_receiver"] for u in users],
                        [u["gain_eavesdropper"] for u in users],
                        doc["noise_var_receiver"], doc["noise_var_eavesdropper"],
                        [u["power_max"] for u in users])
    return standardize(raw, doc["rate_unit"])


def _build_region(draw):
    std = draw(_standard())
    return build_region(draw(_vector(len(std["h"]))), StandardChannel(**std))


def _sum_secrecy_rate(draw):
    std = draw(_standard())
    return sum_secrecy_rate(draw(_vector(len(std["h"]))), StandardChannel(**std))


def _is_feasible(draw):
    std = draw(_standard())
    return is_feasible(draw(_vector(len(std["h"]), SIGNED)), StandardChannel(**std))


def _rate_region(draw):
    std = draw(_standard())
    region = build_region(draw(_vector(len(std["h"]))), StandardChannel(**std))
    return region.contains(draw(_vector(len(std["h"]), SIGNED))), region.to_json_dict()


def _grid_max_sum_rate(draw):
    return grid_max_sum_rate(StandardChannel(**draw(_standard())), GridSpec(draw(STEPS)))


def _verify_sum_rate(draw):
    ch = StandardChannel(**draw(_standard()))
    return verify_sum_rate(ch, max_sum_rate(ch), draw(COUNTS))


def _verify_jamming(draw):
    ch = StandardChannel(**draw(_standard(st.just(2))))
    two, _ = TwoUserChannel.from_standard(ch)
    # never None: on these caps the default is a 10^7-point axis per example
    return verify_jamming(ch, solve_jamming(two, ch.rate_unit), draw(COUNTS))


#: Each public entry (and ``sum_secrecy_rate``): a call built from draws,
#: and the names its refusals may start with.  The two exception types
#: are the rule's answers and take no numbers: building one is the call.
ENTRIES = {
    "ChannelParams": (lambda draw: ChannelParams(*draw(st.tuples(
        _vector(2), _vector(2), NUMBERS, NUMBERS, _vector(2)))), RAW),
    "GridSpec": (lambda draw: GridSpec(draw(st.one_of(STEPS, NUMBERS))), ("steps_per_axis",)),
    "InternalError": (lambda draw: InternalError(draw(NUMBERS)), ()),
    "JammingSolution": (lambda draw: solve_jamming(TwoUserChannel(*draw(_two())),
                                                   draw(UNITS)).to_json_dict(), TWO),
    "RateRegion": (_rate_region, ("powers", "rates", *STANDARD)),
    "StandardChannel": (lambda draw: StandardChannel(**draw(_standard())), STANDARD),
    "SumRateSolution": (lambda draw: max_sum_rate(StandardChannel(**draw(_standard())))
                        .to_json_dict(), STANDARD),
    "TwoUserChannel": (lambda draw: TwoUserChannel(*draw(_two())), TWO),
    "ValidationError": (lambda draw: ValidationError(draw(NUMBERS)), ()),
    "build_region": (_build_region, ("powers", *STANDARD)),
    "channel_from_json": (lambda draw: channel_from_json(_document(draw)), DOCUMENT),
    "channel_to_json": (lambda draw: channel_to_json(StandardChannel(**draw(_standard()))),
                        STANDARD),
    "grid_max_jamming": (lambda draw: grid_max_jamming(
        TwoUserChannel(*draw(_two())), GridSpec(draw(STEPS)), draw(UNITS)), TWO),
    "grid_max_sum_rate": (_grid_max_sum_rate, STANDARD),
    "is_feasible": (_is_feasible, ("powers", *STANDARD)),
    "jam_objective": (lambda draw: jam_objective(draw(NUMBERS), draw(NUMBERS), TwoUserChannel(
        *draw(_two())), draw(UNITS)), ("p1", "p2", *TWO)),
    "load_channel": (None, ("input", *DOCUMENT)),  # a file: see the test
    "max_sum_rate": (lambda draw: max_sum_rate(StandardChannel(**draw(_standard()))), STANDARD),
    "solve_jamming": (lambda draw: solve_jamming(TwoUserChannel(*draw(_two())), draw(UNITS)),
                      TWO),
    "standardize": (_standardize, (*RAW, *STANDARD)),
    "union_sweep": (lambda draw: union_sweep(StandardChannel(**draw(_standard(st.just(2)))),
                                             draw(STEPS)), ("grid_steps", *STANDARD)),
    "verify_jamming": (_verify_jamming, ("p2_steps", *STANDARD)),
    "verify_sum_rate": (_verify_sum_rate, ("steps", *STANDARD)),
    "sum_secrecy_rate": (_sum_secrecy_rate, ("powers", *STANDARD)),
}


def _floats(value):
    """Every float inside a result: records, containers and arrays are
    walked."""
    if isinstance(value, (float, np.floating)):
        return [float(value)]
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    if isinstance(value, _Record):
        value = value._values()
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _floats(item)]
    return []


def _check(name, call):
    """Run ``call`` with every warning an error, and hold it to the rule."""
    names = ENTRIES[name][1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call()
        except ValidationError as exc:
            first = re.match(r"[A-Za-z_]\w*", str(exc))
            assert first and first.group() in names, (name, str(exc))
            return
        except InternalError:
            assert name.startswith("verify_"), name
            return
    assert all(map(math.isfinite, _floats(out))), (name, out)


def test_every_public_entry_is_covered():
    assert set(ENTRIES) == {*gmacwt.__all__, "sum_secrecy_rate"}


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("name", sorted(set(ENTRIES) - {"load_channel"}))
@FUZZ
@given(data=st.data())
def test_every_entry_returns_finite_values_or_refuses_by_name(name, data):
    _check(name, lambda: ENTRIES[name][0](data.draw))


@FUZZ
@given(data=st.data())
def test_load_channel_returns_finite_values_or_refuses_by_name(tmp_path, data):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(_document(data.draw)))
    _check("load_channel", lambda: load_channel(path))


@pytest.mark.parametrize("call, first", [
    (lambda: build_region((1e308, 1e308), StandardChannel(h=(1, 1), p_max=(1, 1))), "powers"),
    (lambda: sum_secrecy_rate((1e308, 1e308), StandardChannel(h=(1, 1), p_max=(1, 1))),
     "powers"),
    (lambda: jam_objective(1e200, 1e200, TwoUserChannel(1e200, 1e200, 1, 1)), "p1"),
    (lambda: TwoUserChannel(1e200, 2e200, 1e200, 1e200), "p1_max"),
    (lambda: TwoUserChannel(0.5, 1e200, 1e200, 1e200), "p1_max"),
])
def test_an_overflowing_total_is_refused_by_the_callers_name(call, first):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=rf"^{first}\b.*the users' total overflows"):
            call()


CAPS = st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(5e-324, 1e308))
GAINS = st.one_of(st.sampled_from(EXTREMES), NEAR_ONE, st.floats(0.0, MAX))


@settings(max_examples=500, deadline=None)
@given(st.lists(GAINS, min_size=2, max_size=2).map(sorted), CAPS, CAPS)
def test_two_user_channel_admits_what_a_standard_channel_admits(h, p1, p2):
    def refused(build):
        try:
            build()
        except ValidationError:
            return True
        return False

    assert refused(lambda: TwoUserChannel(*h, p1, p2)) == refused(
        lambda: StandardChannel(h, (p1, p2)))
