import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gmacwt import (
    ChannelParams,
    StandardChannel,
    ValidationError,
    channel_from_json,
    channel_to_json,
    standardize,
)
from gmacwt.channel import MAX_DOCUMENT_BYTES, MAX_USERS, _MAX_NUMBER_CHARS, load_channel

from helpers import rng


def test_standardize_two_user_exact():
    # Closed-form values are exact rationals, representable in binary.
    raw = ChannelParams(
        gains_to_receiver=(4, 1),
        gains_to_eavesdropper=(1, 2),
        noise_var_receiver=2,
        noise_var_eavesdropper=1,
        power_limits=(5, 10))
    assert raw.num_users == 2
    ch = standardize(raw)
    assert ch.h == (0.5, 4.0)
    assert ch.p_max == (10.0, 5.0)
    assert ch.rate_unit == "bits"


def test_standardize_identity_case():
    raw = ChannelParams((1,), (0.7,), 1, 1, (3.5,))
    ch = standardize(raw)
    assert ch.h == (0.7,)
    assert ch.p_max == (3.5,)


def test_standardize_eavesdropper_scale_cancels():
    c = 0.3
    raw = ChannelParams((1, 1), (c, c), 1, c, (3, 7))
    ch = standardize(raw)
    assert ch.h == (1.0, 1.0)
    assert ch.p_max == (3.0, 7.0)


def test_standardize_idempotent_on_standard_channels():
    gen = rng(11)
    for _ in range(20):
        k = int(gen.integers(1, 6))
        h = tuple(gen.uniform(0, 2, k))
        p = tuple(gen.uniform(0, 20, k))
        raw = ChannelParams((1.0,) * k, h, 1.0, 1.0, p)
        ch = standardize(raw)
        assert ch.h == h
        assert ch.p_max == p


def test_standardize_preserves_both_snrs():
    gen = rng(12)
    for _ in range(100):
        k = int(gen.integers(1, 8))
        raw = ChannelParams(
            gains_to_receiver=tuple(gen.uniform(0.1, 5, k)),
            gains_to_eavesdropper=tuple(gen.uniform(0, 5, k)),
            noise_var_receiver=gen.uniform(0.1, 4),
            noise_var_eavesdropper=gen.uniform(0.1, 4),
            power_limits=tuple(gen.uniform(0, 20, k)))
        ch = standardize(raw)
        for i in range(k):
            rx_snr = raw.gains_to_receiver[i] * raw.power_limits[i] / raw.noise_var_receiver
            tap_snr = raw.gains_to_eavesdropper[i] * raw.power_limits[i] / raw.noise_var_eavesdropper
            assert ch.p_max[i] == pytest.approx(rx_snr, rel=1e-12)
            assert ch.h[i] * ch.p_max[i] == pytest.approx(tap_snr, rel=1e-12)


#: Magnitudes far apart, and values within 1e-9 of 1 (standardized gains
#: near 1 when receiver and eavesdropper are nearly alike).
MAGNITUDES = st.one_of(st.floats(1e-60, 1e60), st.floats(1.0 - 1e-9, 1.0 + 1e-9))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.lists(MAGNITUDES, min_size=k, max_size=k),
    st.lists(st.one_of(st.just(0.0), MAGNITUDES), min_size=k, max_size=k),
    MAGNITUDES, MAGNITUDES,
    st.lists(st.one_of(st.just(0.0), MAGNITUDES), min_size=k, max_size=k))))
def test_standardize_preserves_both_snrs_to_a_few_ulps(case):
    """Both per-user SNRs survive standardization to a few ulps, against
    exact rational arithmetic; no product here leaves [1e-300, 1e300], so
    nothing underflows."""
    gm, gw, nr, ne, power = case
    ch = standardize(ChannelParams(gm, gw, nr, ne, power))
    for k in range(len(gm)):
        rx = Fraction(gm[k]) * Fraction(power[k]) / Fraction(nr)
        tap = Fraction(gw[k]) * Fraction(power[k]) / Fraction(ne)
        for got, exact in ((ch.p_max[k], rx), (ch.h[k] * ch.p_max[k], tap)):
            assert abs(Fraction(got) - exact) <= 8 * 2.0 ** -53 * exact


@pytest.mark.parametrize("field,kwargs", [
    ("gains_to_receiver", dict(gains_to_receiver=(0.0, 1))),
    ("gains_to_receiver", dict(gains_to_receiver=(-1, 1))),
    ("gains_to_eavesdropper", dict(gains_to_eavesdropper=(1, -0.1))),
    ("noise_var_receiver", dict(noise_var_receiver=0)),
    ("noise_var_eavesdropper", dict(noise_var_eavesdropper=-2)),
    ("power_limits", dict(power_limits=(5, -1))),
    ("gains_to_receiver", dict(gains_to_receiver=(math.nan, 1))),
    ("noise_var_eavesdropper", dict(noise_var_eavesdropper=math.inf)),
    ("power_limits", dict(power_limits=(5, -math.inf))),
])
def test_raw_channel_validation_names_field(field, kwargs):
    base = dict(
        gains_to_receiver=(4, 1),
        gains_to_eavesdropper=(1, 2),
        noise_var_receiver=2,
        noise_var_eavesdropper=1,
        power_limits=(5, 10))
    base.update(kwargs)
    with pytest.raises(ValidationError, match=field):
        ChannelParams(**base)


def test_user_count_cap():
    with pytest.raises(ValidationError, match="users"):
        StandardChannel(h=(0.5,) * 17, p_max=(1.0,) * 17)
    with pytest.raises(ValidationError, match="users"):
        StandardChannel(h=(), p_max=())


@pytest.mark.parametrize("kwargs,match", [
    (dict(h=(math.nan, 0.5), p_max=(1.0, 1.0)), r"h\[0\]: must be finite"),
    (dict(h=(0.5, 0.5), p_max=(1.0, math.inf)), r"p_max\[1\]: must be finite"),
    (dict(h=(0.5, 0.7), p_max=(1e308, 1e308)), "p_max: the users' total overflows"),
    (dict(h=(1e10, 0.7), p_max=(1e300, 1.0)), r"h\*p_max: the users' total overflows"),
    (dict(h=5, p_max=(1.0,)), "h: must be a sequence of numbers"),
])
def test_non_finite_and_overflowing_channels_rejected(kwargs, match):
    with pytest.raises(ValidationError, match=match):
        StandardChannel(**kwargs)


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError, match="p_max"):
        StandardChannel(h=(0.5, 0.5), p_max=(1.0,))


def test_bad_rate_unit_rejected():
    with pytest.raises(ValidationError, match="rate_unit"):
        StandardChannel(h=(0.5,), p_max=(1.0,), rate_unit="decibels")


def test_channel_from_json_raw():
    doc = {
        "users": [
            {"gain_receiver": 4, "gain_eavesdropper": 1, "power_max": 5},
            {"gain_receiver": 1, "gain_eavesdropper": 2, "power_max": 10},
        ],
        "noise_var_receiver": 2,
        "noise_var_eavesdropper": 1,
    }
    ch = channel_from_json(doc)
    assert ch.h == (0.5, 4.0)
    assert ch.p_max == (10.0, 5.0)
    assert ch.rate_unit == "bits"


def test_channel_from_json_standard_and_roundtrip():
    ch = StandardChannel(h=(0.1, 0.2), p_max=(10, 10), rate_unit="nats")
    doc = channel_to_json(ch)
    assert doc["standard"] is True
    assert channel_from_json(doc) == ch


@pytest.mark.parametrize("doc,field", [
    ({}, "users"),
    ({"users": []}, "users"),
    ({"users": [{"gain_receiver": 1}], "noise_var_receiver": 1,
      "noise_var_eavesdropper": 1}, r"users\[0\].gain_eavesdropper"),
    ({"users": [{"gain_receiver": 1, "gain_eavesdropper": 1, "power_max": 1}],
      "noise_var_eavesdropper": 1}, "noise_var_receiver"),
    ({"standard": True, "users": [{"power_max": 1}]}, r"users\[0\].h"),
    ({"standard": True, "users": [{"h": 1, "power_max": 1}],
      "rate_unit": "dB"}, "rate_unit"),
    ({"standard": True, "users": [{"h": math.nan, "power_max": 1}]},
     r"h\[0\]: must be finite"),
    ({"users": [{"gain_receiver": 1, "gain_eavesdropper": 1, "power_max": 10 ** 400}],
      "noise_var_receiver": 1, "noise_var_eavesdropper": 1},
     r"power_limits\[0\]: must be a finite number"),
    ({"users": [1], "noise_var_receiver": 1, "noise_var_eavesdropper": 1},
     r"users\[0\]: must be an object"),
    ({"users": [{"gain_receiver": 1, "gain_eavesdropper": 1, "power_max": 1}],
      "noise_var_receiver": "2", "noise_var_eavesdropper": 1},
     "noise_var_receiver: must be a number"),
    ({"users": [{"gain_receiver": 1e-300, "gain_eavesdropper": 1, "power_max": 1}],
      "noise_var_receiver": 1, "noise_var_eavesdropper": 1e-300},
     "h: gain_receiver \\* noise_var_eavesdropper underflows to 0"),
])
def test_channel_from_json_validation(doc, field):
    with pytest.raises(ValidationError, match=field):
        channel_from_json(doc)


RAW_DOC_FOR_FLAG = {
    "users": [{"gain_receiver": 1, "gain_eavesdropper": 0.5, "power_max": 1}],
    "noise_var_receiver": 1, "noise_var_eavesdropper": 1,
}


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, 1.0, None, [], {}])
def test_channel_from_json_refuses_a_standard_flag_that_is_not_a_boolean(flag):
    """``"standard"`` is read as a JSON boolean, not by truthiness: a raw
    document marked ``"false"`` is not taken for a standard one, nor a
    standard document marked ``0`` for a raw one."""
    raw = {**RAW_DOC_FOR_FLAG, "standard": flag}
    standard = {"standard": flag, "users": [{"h": 0.5, "power_max": 1.0}]}
    for doc in (raw, standard):
        with pytest.raises(ValidationError) as info:
            channel_from_json(doc)
        assert str(info.value) == f"standard: must be true or false (got {flag!r})"


def test_channel_from_json_reads_a_boolean_standard_flag():
    assert channel_from_json({**RAW_DOC_FOR_FLAG, "standard": False}) \
        == channel_from_json(RAW_DOC_FOR_FLAG)
    assert channel_from_json({"standard": True, "users": [{"h": 0.5, "power_max": 1.0}]}) \
        == channel_from_json(RAW_DOC_FOR_FLAG)


def test_the_largest_legitimate_document_fits_the_byte_cap(tmp_path):
    """A raw document of ``MAX_USERS`` users, indented four spaces a level,
    whose every number is written with the most characters a double's full
    decimal expansion takes: ``load_channel`` reads it within the cap, as the
    same channel as the numbers written short."""
    doc = {"users": [{"gain_receiver": 4 + k, "gain_eavesdropper": 1, "power_max": 5}
                     for k in range(MAX_USERS)],
           "noise_var_receiver": 2, "noise_var_eavesdropper": 1}
    text = re.sub(r"(?<=: )(\d+)", lambda m: (m[1] + ".").ljust(_MAX_NUMBER_CHARS, "0"),
                  json.dumps(doc, indent=4))
    assert text.count("0" * 1000) == 3 * MAX_USERS + 2
    assert len(text.encode()) <= MAX_DOCUMENT_BYTES
    path = tmp_path / "longest.json"
    path.write_text(text)
    assert load_channel(path) == channel_from_json(doc)
