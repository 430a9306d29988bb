"""Exit codes of the CLI on mangled input.

Every input maps to exit code 0 (success) or 1 (bad input), with one
``error:`` line on stderr and nothing on stdout when the code is not 0, no
traceback and no warning, and no ``NaN`` or ``Infinity`` in the output.
Exit code 2 marks an internal inconsistency, which no input may reach,
``--verify`` on a coarse grid included.  Documents are drawn as raw and
standard channels with 0 to 17 users, some of them then mangled: fields
dropped or added, values of the wrong type, negative, tiny, huge or not
finite, the document truncated or not an object.  Flags are drawn per
subcommand, valid or not; grids stay small or are refused by the caps.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gmacwt.cli as cli

#: Valid values, some at the edges of what a channel admits.
GAINS = st.one_of(st.floats(0.05, 3.0), st.sampled_from([1.0, 1e-3, 1e3]))
CAPS = st.one_of(st.floats(0.0, 20.0), st.sampled_from([0.0, 5e-324, 1e300]))
#: Values that may break a document: wrong types, negative, tiny, huge,
#: not finite or past the float range.
BAD = st.sampled_from([-1, -0.0, 0, 5e-324, 1e-310, 1e300, 1.7976931348623157e308, 10 ** 400,
                       float("nan"), float("inf"), float("-inf"), "1", None, True, [], {}])


def _sometimes(draw, usual, rare):
    """``rare`` in one draw of eight, else ``usual``: hypothesis would
    otherwise spoil almost every input in one of many ways at once."""
    return draw(rare if draw(st.integers(0, 7)) == 5 else usual)


@st.composite
def documents(draw):
    """The text of a channel file: a raw or standard document with up to
    three mangling steps, something that is not a channel document at all,
    or None for no file."""
    kind = draw(st.sampled_from(["standard", "raw"]))
    other = st.sampled_from(
        [None, "", "{", "[1, 2]", "42", "null", '"users"', '{"users": {}}',
         '{"users": "ab"}', "[" * 5000, '{"users": [1, 2]}', "\udcff"])
    if _sometimes(draw, st.just(False), st.just(True)):
        return draw(other)
    k = _sometimes(draw, st.sampled_from([2, 1, 2, 3]), st.integers(0, 17))
    if kind == "standard":
        users = [{"h": draw(GAINS), "power_max": draw(CAPS)} for _ in range(k)]
        doc = {"standard": True, "users": users}
    else:
        users = [{"gain_receiver": draw(GAINS), "gain_eavesdropper": draw(GAINS),
                  "power_max": draw(CAPS)} for _ in range(k)]
        doc = {"users": users, "noise_var_receiver": draw(st.floats(0.1, 4.0)),
               "noise_var_eavesdropper": draw(st.floats(0.1, 4.0))}
    if draw(st.booleans()):
        doc["rate_unit"] = _sometimes(draw, st.sampled_from(["bits", "nats"]),
                                      st.sampled_from(["bit", 2, None]))
    steps = _sometimes(draw, st.just([]), st.lists(
        st.sampled_from(["value", "drop", "add"]), min_size=1, max_size=3))
    for step in steps:
        owner = draw(st.sampled_from([doc, *users]))
        if step == "add":
            owner[draw(st.sampled_from(["extra", "h", "standard", "users"]))] = draw(BAD)
        elif owner:
            field = draw(st.sampled_from(sorted(owner)))
            if step == "drop":
                del owner[field]
            else:
                owner[field] = draw(BAD)
    text = json.dumps(doc)  # NaN and Infinity as Python's json writes them
    if _sometimes(draw, st.just(False), st.just(True)):
        text = text[:draw(st.integers(0, len(text)))]
    return text


POWER_LISTS = st.sampled_from([2, 1, 2, 3]).flatmap(lambda k: st.lists(
    st.sampled_from(["0", "1", "2.5", "0.1", "1e308", "1.7976931348623157e308"]),
    min_size=k, max_size=k))
BAD_POWER_LISTS = st.lists(st.sampled_from(
    ["-1", "1e400", "nan", "inf", "5e-324", "x", ""]), min_size=1, max_size=3)


@st.composite
def command_lines(draw):
    """A subcommand and its flags, the channel file as ``{doc}``."""
    command = _sometimes(draw, st.sampled_from(
        ["standardize", "feasible", "region", "maxsum", "jam", "sweep"]), st.just("frobnicate"))
    argv = [command, "{doc}"]
    if draw(st.booleans()):
        argv += ["--unit", _sometimes(draw, st.sampled_from(["bits", "nats"]), st.just("furlongs"))]
    if command in ("feasible", "region") and _sometimes(draw, st.just(True), st.just(False)):
        argv += ["--power", ",".join(_sometimes(draw, POWER_LISTS, BAD_POWER_LISTS))]
    if command == "region" and draw(st.booleans()):
        argv += ["--format", _sometimes(draw, st.sampled_from(["json", "csv"]), st.just("xml"))]
    if command in ("maxsum", "jam") and draw(st.booleans()):
        argv.append("--verify")
    if command == "maxsum" and draw(st.booleans()):
        argv += ["--grid-steps", _sometimes(draw, st.sampled_from(["2", "3", "5"]),
                                            st.sampled_from(["-1", "0", "1", "99999", "x"]))]
    if command == "sweep":
        argv += ["--kind", _sometimes(draw, st.sampled_from(["region", "jam"]), st.just("both"))]
        if draw(st.booleans()):
            argv += ["--grid-steps", _sometimes(draw, st.sampled_from(["2", "7"]),
                                                st.sampled_from(["-3", "0", "1", "1001"]))]
        if draw(st.booleans()):
            argv += ["--p1", _sometimes(draw, st.sampled_from(["0", "2"]),
                                        st.sampled_from(["-1", "nan", "inf", "y", "1e308"]))]
    if command in ("jam", "sweep") and draw(st.booleans()):
        argv += ["--p2-step", _sometimes(draw, st.sampled_from(["0.5", "0.01"]), st.sampled_from(
            ["0", "-1", "nan", "inf", "1e-300", "5e-324", "z"]))]
    if _sometimes(draw, st.just(False), st.just(True)):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "-x"])))
    return argv


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), command_lines())
def test_every_input_maps_to_an_exit_code(doc_dir, text, argv):
    path = doc_dir / ("missing.json" if text is None else "channel.json")
    if text is not None:
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(path) if a == "{doc}" else a for a in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1)
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err
    assert "NaN" not in out and "Infinity" not in out
    if code:
        assert out == ""
        assert err.startswith(("error: ", "internal error: ")) and len(err.splitlines()) == 1
    else:
        assert out and all(line.startswith("# ") for line in err.splitlines())
