import json
import math
import os
import pickle
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import gmacwt.cli as cli
from gmacwt import (RateRegion, StandardChannel, TwoUserChannel, ValidationError, build_region,
                    channel, channel_from_json, oracle, region)

from helpers import tampered

RAW_DOC = {
    "users": [
        {"gain_receiver": 4, "gain_eavesdropper": 1, "power_max": 5},
        {"gain_receiver": 1, "gain_eavesdropper": 2, "power_max": 10},
    ],
    "noise_var_receiver": 2,
    "noise_var_eavesdropper": 1,
}

GOOD_DOC = {
    "standard": True,
    "users": [{"h": 0.1, "power_max": 10}, {"h": 0.2, "power_max": 10}],
}

CASE_A_DOC = {
    "standard": True,
    "users": [{"h": 0.4, "power_max": 10}, {"h": 1.4, "power_max": 10}],
}

BAD_DOC = {
    "standard": True,
    "users": [{"h": 2.0, "power_max": 5}, {"h": 2.0, "power_max": 5}],
}


def write(tmp_path, doc, name="channel.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_standardize_raw_document(tmp_path, capsys):
    code, out, _ = run(capsys, "standardize", write(tmp_path, RAW_DOC))
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "standard": True,
        "rate_unit": "bits",
        "users": [
            {"h": 0.5, "power_max": 10.0},
            {"h": 4.0, "power_max": 5.0},
        ],
    }


def test_standardize_roundtrip_matches_raw_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "standardize", write(tmp_path, RAW_DOC))
    assert code == 0
    std_path = tmp_path / "std.json"
    std_path.write_text(out)
    _, from_raw, _ = run(capsys, "maxsum", write(tmp_path, RAW_DOC))
    _, from_std, _ = run(capsys, "maxsum", str(std_path))
    assert from_raw == from_std


def test_feasible_true(tmp_path, capsys):
    code, out, _ = run(capsys, "feasible", write(tmp_path, GOOD_DOC),
                       "--power", "10,10")
    assert code == 0
    assert json.loads(out) == {
        "feasible": True, "rate_unit": "bits", "witness": None}


def test_feasible_false_with_subset_witness(tmp_path, capsys):
    code, out, _ = run(capsys, "feasible", write(tmp_path, BAD_DOC),
                       "--power", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["witness"] == {"kind": "subset", "users": [1, 2]}


def test_region_json(tmp_path, capsys):
    code, out, _ = run(capsys, "region", write(tmp_path, GOOD_DOC),
                       "--power", "10,10")
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert [h["subset"] for h in doc["halfspaces"]] == [[1], [2], [1, 2]]
    assert doc["halfspaces"][2]["bound"] == pytest.approx(1.1961587113893801)
    assert len(doc["vertices"]) == 3


@pytest.mark.parametrize("users", [
    [(0.3, 2.0)],                   # one user, two vertices
    [(1.5, 2.0)],                   # one user, infeasible: no vertices
    [(0.1, 10.0), (0.2, 10.0)],
    [(2.0, 5.0), (2.0, 5.0)],       # infeasible: negative bounds, no vertices
    [(0.1, 1.0), (0.5, 2.0), (0.9, 0.5)],
    [(0.1, 1.0), (1.5, 2.0), (3.0, 0.5)],
    [(0.05 * (k + 1), 0.5 + k) for k in range(12)],
    [(0.3 * (k + 1), 0.5 + k) for k in range(12)],
    [(0.1 * (k + 1), 0.5 + k) for k in range(16)],  # the size the CLI's template is for
])
@pytest.mark.parametrize("unit", ["bits", "nats"])
def test_region_json_equals_the_generic_encoder(tmp_path, capsys, users, unit):
    doc = {"standard": True, "rate_unit": unit,
           "users": [{"h": h, "power_max": p} for h, p in users]}
    ch = channel_from_json(doc)
    code, out, err = run(capsys, "region", write(tmp_path, doc))
    assert (code, err) == (0, "")
    assert out == json.dumps(build_region(ch.p_max, ch).to_json_dict(), indent=2) + "\n"


def test_non_finite_region_bound_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("gmacwt.region.build_region",
                        lambda powers, ch: RateRegion((1.0, math.nan, 2.0), True, "bits"))
    code, out, err = run(capsys, "region", write(tmp_path, GOOD_DOC))
    assert code == 2
    assert out == ""
    assert err.startswith("internal error: ") and "Traceback" not in err


def test_region_defaults_to_full_power(tmp_path, capsys):
    _, explicit, _ = run(capsys, "region", write(tmp_path, GOOD_DOC),
                         "--power", "10,10")
    _, default, _ = run(capsys, "region", write(tmp_path, GOOD_DOC))
    assert explicit == default


def test_region_refuses_an_empty_power_vector_as_feasible_does(tmp_path, capsys):
    """An empty ``--power`` is a vector with one empty part, not "no
    powers given": both commands refuse it in the same words."""
    path = write(tmp_path, GOOD_DOC)
    for command in ("region", "feasible"):
        code, out, err = run(capsys, command, path, "--power", "")
        assert (code, out) == (1, "")
        assert err == "error: powers[0]: must be a finite number\n"


@pytest.mark.parametrize("doc", [
    {**RAW_DOC, "standard": "false"},
    {**GOOD_DOC, "standard": 0},
    {**GOOD_DOC, "standard": None},
])
def test_a_standard_flag_that_is_not_a_boolean_exits_1(tmp_path, capsys, doc):
    code, out, err = run(capsys, "maxsum", write(tmp_path, doc))
    assert (code, out) == (1, "")
    assert err == f"error: standard: must be true or false (got {doc['standard']!r})\n"


def test_region_csv_vertices(tmp_path, capsys):
    code, out, _ = run(capsys, "region", write(tmp_path, GOOD_DOC),
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R1,R2"
    assert len(lines) == 4
    assert lines[1] == "0.0,0.0"


def test_region_csv_rejected_for_three_users(tmp_path, capsys):
    doc = {"standard": True,
           "users": [{"h": 0.1, "power_max": 1}] * 3}
    code, _, err = run(capsys, "region", write(tmp_path, doc), "--format", "csv")
    assert code == 1
    assert "error:" in err


def test_maxsum_golden(tmp_path, capsys):
    code, out, _ = run(capsys, "maxsum", write(tmp_path, GOOD_DOC))
    assert code == 0
    doc = json.loads(out)
    assert doc["p_star"] == [10.0, 0.0]
    assert doc["limiting_user"] == [1]
    assert doc["sum_rate"] == pytest.approx(1.2297158093186486)
    assert doc["rho_star"] == pytest.approx(2 / 11)
    assert doc["rate_unit"] == "bits"


def test_maxsum_verify_reports_small_gap(tmp_path, capsys):
    code, out, _ = run(capsys, "maxsum", write(tmp_path, GOOD_DOC), "--verify")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["oracle"]["gap"]) <= 1e-9
    assert doc["oracle"]["p_star"] == [10.0, 0.0]


def test_maxsum_verify_mismatch_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "grid_max_sum_rate", lambda ch, spec: ((0.0, 0.0), 99.0))
    code, _, err = run(capsys, "maxsum", write(tmp_path, GOOD_DOC), "--verify")
    assert code == 2
    assert "internal error:" in err


@pytest.mark.parametrize("steps", ["0", "1", "-1"])
def test_maxsum_verify_grid_steps_below_2_exits_1(tmp_path, capsys, steps):
    code, out, err = run(capsys, "maxsum", write(tmp_path, GOOD_DOC), "--verify",
                         "--grid-steps", steps)
    assert code == 1
    assert out == ""
    assert err == f"error: grid_steps: must be >= 2 (got {steps})\n"


def test_maxsum_verify_oversized_grid_exits_1(tmp_path, capsys):
    code, out, err = run(capsys, "maxsum", write(tmp_path, GOOD_DOC), "--verify",
                         "--grid-steps", "3163")
    assert code == 1
    assert out == ""
    assert err == "error: grid_steps: grid would have 10004569 points (cap 10000000)\n"


def test_jam_golden(tmp_path, capsys):
    code, out, _ = run(capsys, "jam", write(tmp_path, CASE_A_DOC))
    assert code == 0
    doc = json.loads(out)
    assert doc["powers"][0] == 10.0
    assert doc["powers"][1] == pytest.approx(0.49021623019079503, abs=1e-9)
    assert doc["secrecy_rate"] == pytest.approx(0.59659250286014471, abs=1e-9)
    assert doc["branch"] == "InteriorRoot"
    assert doc["case_tag"] == "A"
    assert doc["permutation"] == [1, 2]


def test_jam_relabels_swapped_users(tmp_path, capsys):
    swapped = {
        "standard": True,
        "users": [{"h": 1.4, "power_max": 10}, {"h": 0.4, "power_max": 10}],
    }
    code, out, _ = run(capsys, "jam", write(tmp_path, swapped))
    assert code == 0
    doc = json.loads(out)
    assert doc["permutation"] == [2, 1]
    assert doc["powers"][0] == 10.0


def test_jam_verify(tmp_path, capsys):
    code, out, _ = run(capsys, "jam", write(tmp_path, CASE_A_DOC), "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"]["kind"] == "jamming"
    assert abs(doc["oracle"]["gap"]) <= 1e-5


def test_jam_verify_delegates_to_sum_rate_oracle(tmp_path, capsys):
    code, out, _ = run(capsys, "jam", write(tmp_path, GOOD_DOC), "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "NoJam"
    assert doc["oracle"]["kind"] == "sum_rate"
    assert abs(doc["oracle"]["gap"]) <= 1e-9


def test_jam_requires_two_users(tmp_path, capsys):
    doc = {"standard": True, "users": [{"h": 0.4, "power_max": 10}]}
    code, _, err = run(capsys, "jam", write(tmp_path, doc))
    assert code == 1
    assert "error: users" in err


def test_sweep_region_csv(tmp_path, capsys):
    code, out, err = run(capsys, "sweep", write(tmp_path, GOOD_DOC),
                         "--kind", "region", "--grid-steps", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "P1,P2,b1,b2,b12"
    assert len(lines) == 10  # 3x3 grid, all feasible
    assert lines[1].startswith("0.0,0.0,")
    assert "union data" in err


def test_sweep_region_skips_infeasible(tmp_path, capsys):
    doc = {"standard": True,
           "users": [{"h": 0.1, "power_max": 10}, {"h": 1.4, "power_max": 10}]}
    code, out, _ = run(capsys, "sweep", write(tmp_path, doc),
                       "--kind", "region", "--grid-steps", "11")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    points = {(float(r[0]), float(r[1])) for r in rows}
    assert (3.0, 1.0) not in points
    assert (4.0, 1.0) in points


@pytest.mark.parametrize("doc", [GOOD_DOC, CASE_A_DOC, BAD_DOC, {
    "standard": True, "rate_unit": "nats",
    "users": [{"h": 0.3, "power_max": 1e-310}, {"h": 1.0 + 1e-10, "power_max": 7.3}]}])
@pytest.mark.parametrize("steps", [2, 3, 17, 60])
def test_sweep_region_csv_renders_union_sweep(tmp_path, capsys, doc, steps):
    """The CSV comes from the feasible points and their bound table; it
    is the rendering of ``union_sweep``'s regions."""
    code, out, _ = run(capsys, "sweep", write(tmp_path, doc),
                       "--kind", "region", "--grid-steps", str(steps))
    assert code == 0
    rows = region.union_sweep(channel_from_json(doc), steps)
    assert out == cli._csv("P1,P2,b1,b2,b12", [(*pt, *r.bounds) for pt, r in rows])


HUGE_CAP_DOC = {
    "standard": True,
    "users": [{"h": 0.5, "power_max": sys.float_info.max}, {"h": 0.25, "power_max": 0}],
}


@pytest.mark.parametrize("argv,err", [
    (["sweep", "{doc}", "--kind", "region", "--grid-steps", "4"],
     "# region sweep: bounds at every feasible grid point (union data), rate_unit=bits\n"),
    (["maxsum", "{doc}", "--verify", "--grid-steps", "4"], ""),
])
def test_grid_axis_at_the_float_maximum_warns_nothing(tmp_path, argv, err):
    """An axis ending at the largest float is built without forming
    ``(steps - 1) * step``, so numpy has no overflow to warn about (run
    with RuntimeWarnings as errors)."""
    doc = write(tmp_path, HUGE_CAP_DOC)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gmacwt.cli",
         *[a.format(doc=doc) for a in argv]], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, err)
    if argv[0] == "sweep":
        assert proc.stdout.splitlines()[-1].startswith(f"{sys.float_info.max!r},0.0,")
    else:
        assert json.loads(proc.stdout)["oracle"]["p_star"][1] == 0.0


def test_sweep_jam_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", write(tmp_path, CASE_A_DOC),
                       "--kind", "jam", "--p2-step", "0.1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p2,objective"
    assert len(lines) == 102  # header + 101 grid points
    rows = [(float(a), float(b)) for a, b in
            (line.split(",") for line in lines[1:])]
    best = max(rows, key=lambda r: r[1])
    assert best[0] == 0.5  # nearest grid point to the interior root


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = run(capsys, "maxsum", write(tmp_path, GOOD_DOC),
                       "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["p_star"] == [10.0, 0.0]


def test_unit_override(tmp_path, capsys):
    code, out, _ = run(capsys, "maxsum", write(tmp_path, GOOD_DOC),
                       "--unit", "nats")
    assert code == 0
    doc = json.loads(out)
    assert doc["rate_unit"] == "nats"
    assert doc["p_star"] == [10.0, 0.0]


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "maxsum", "/nonexistent/channel.json")
    assert code == 1
    assert "error:" in err


def test_invalid_power_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "feasible", write(tmp_path, GOOD_DOC),
                       "--power", "10;10")
    assert code == 1
    assert "error: power" in err


@pytest.mark.parametrize("users", [
    [{"h": math.nan, "power_max": 1.0}, {"h": 2.0, "power_max": 3.0}],
    [{"h": 0.5, "power_max": math.inf}, {"h": 2.0, "power_max": 3.0}],
    [{"h": 0.5, "power_max": 1e308}, {"h": 0.7, "power_max": 1e308}],
])
def test_non_finite_or_overflowing_channel_exits_1(tmp_path, capsys, users):
    path = write(tmp_path, {"standard": True, "users": users})
    for argv in (["maxsum", path], ["region", path], ["sweep", path, "--kind", "region"]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv,err", [
    (["region", "{doc}", "--power", "1e308,1e308"],
     "error: powers: the users' total overflows (got inf)\n"),
    (["sweep", "{doc}", "--kind", "jam", "--p1", "1e308"],
     "error: p1*h1 + p2*h2: the users' total overflows (got inf)\n"),
])
def test_powers_whose_totals_overflow_exit_1(tmp_path, argv, err):
    """Powers are held to the channel's totals rule: a refusal that names
    the powers, exit 1 and no numpy warning on stderr."""
    doc = write(tmp_path, {"standard": True, "users": [{"h": 2, "power_max": 1},
                                                       {"h": 3, "power_max": 1}]})
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "gmacwt.cli", *[a.format(doc=doc) for a in argv]],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


@pytest.mark.parametrize("argv", [
    ["feasible", "{doc}", "--power", "nan,0"],
    ["region", "{doc}", "--power", "0,inf"],
    ["sweep", "{doc}", "--kind", "jam", "--p1", "nan"],
])
def test_non_finite_power_exits_1(tmp_path, capsys, argv):
    doc = write(tmp_path, CASE_A_DOC)
    code, out, err = run(capsys, *(doc if a == "{doc}" else a for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "must be finite" in err


def test_integer_too_long_to_parse_exits_1(tmp_path, capsys):
    path = tmp_path / "channel.json"
    path.write_text('{"standard": true, "users": [{"h": 1' + "0" * 5000
                    + ', "power_max": 1}]}')
    code, out, err = run(capsys, "maxsum", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: input:")


def test_non_finite_output_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "channel_to_json", lambda ch: {"h": [math.nan]})
    code, out, err = run(capsys, "standardize", write(tmp_path, GOOD_DOC))
    assert code == 2
    assert out == ""
    assert err.startswith("internal error: ") and "Traceback" not in err


def test_non_finite_jam_sweep_exits_2(tmp_path, capsys, monkeypatch):
    from gmacwt import jamming
    monkeypatch.setattr(jamming, "jam_objective", lambda p1, p2, ch, unit: math.nan)
    code, out, err = run(capsys, "sweep", write(tmp_path, CASE_A_DOC), "--kind", "jam")
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("internal error: non-finite value nan")
    assert "Traceback" not in err


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    channel = write(tmp_path, CASE_A_DOC)
    for argv in (
        ["standardize", channel],
        ["maxsum", channel, "--verify"],
        ["region", channel, "--power", "10,0.5"],
        ["jam", channel, "--verify"],
        ["sweep", channel, "--kind", "jam", "--p2-step", "0.25"],
        ["sweep", channel, "--kind", "region", "--grid-steps", "5"],
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("argv", [["jam", "--verify"], ["sweep", "--kind", "jam"]])
def test_bad_p2_step_exits_1(tmp_path, capsys, argv, step):
    doc = write(tmp_path, CASE_A_DOC)
    code, out, err = run(capsys, argv[0], doc, *argv[1:], "--p2-step", step)
    assert code == 1
    assert out == ""
    assert err.startswith("error: p2-step: ") and len(err.splitlines()) == 1


def test_bad_p2_step_on_a_degenerate_channel_exits_1(tmp_path, capsys):
    # refused at the command line, though the sum-rate oracle that checks
    # the degenerate case does not use the jamming grid
    doc = write(tmp_path, GOOD_DOC)
    refused = (1, "", "error: p2-step: must be finite and > 0 (got 0.0)\n")
    assert run(capsys, "jam", doc, "--verify", "--p2-step", "0") == refused
    assert run(capsys, "sweep", doc, "--kind", "jam", "--p2-step", "0") == refused
    assert run(capsys, "jam", doc, "--p2-step", "0")[0] == 0  # unused without --verify


@pytest.mark.parametrize("users,argv", [
    ([{"h": 0.4, "power_max": 10}, {"h": 1.4, "power_max": 1e300}],
     ["jam", "--verify", "--p2-step", "1e-3"]),
    (GOOD_DOC["users"], ["sweep", "--kind", "region", "--grid-steps", "100000"]),
    (CASE_A_DOC["users"], ["sweep", "--kind", "jam", "--p2-step", "1e-9"]),
    # p2_max / step is inf, which int() cannot take
    ([{"h": 0.4, "power_max": 10}, {"h": 1.4, "power_max": 1e300}],
     ["jam", "--verify", "--p2-step", "5e-324"]),
    ([{"h": 0.4, "power_max": 10}, {"h": 1.4, "power_max": 1e300}],
     ["sweep", "--kind", "jam", "--p2-step", "5e-324"]),
])
def test_oversized_grid_exits_1(tmp_path, capsys, users, argv):
    doc = write(tmp_path, {"standard": True, "users": users})
    code, out, err = run(capsys, argv[0], doc, *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    if "region" in argv:
        assert f"(cap {region.MAX_SWEEP_POINTS})" in err
    else:
        assert f"more than {channel.MAX_GRID_POINTS} grid points" in err


def test_a_step_count_is_refused_exactly_past_the_cap():
    """``p2_max / step`` of 9999999.5 puts exactly 10^7 points on the axis,
    which the cap admits; 10^7 and an infinite ratio put more."""
    cap = channel.MAX_GRID_POINTS
    two, _ = TwoUserChannel.from_standard(StandardChannel((0.4, 1.4), (10, 9999999.5)))
    assert two.p2_max == 9999999.5
    assert channel._step_points(1.0, two.p2_max) == cap
    assert channel._p2_points(1.0, two.p2_max) == cap
    for step, p2_max in ((1.0, 1e7), (5e-324, 1e300)):
        assert channel._step_points(step, p2_max) == cap + 1
        with pytest.raises(ValidationError, match=f"more than {cap} grid points"):
            channel._p2_points(step, p2_max)


def test_jam_verify_refuses_a_step_too_fine_for_both_oracle_axes(tmp_path, capsys):
    # The jamming oracle evaluates one point (p1 = p1_max) per jamming
    # power, so 1e-3 on [0, 12000] needs 12,000,001 of them.
    doc = write(tmp_path, {"standard": True, "users": [
        {"h": 0.4, "power_max": 10}, {"h": 1.4, "power_max": 12000}]})
    code, out, err = run(capsys, "jam", doc, "--verify", "--p2-step", "0.001")
    assert code == 1
    assert out == ""
    assert err.startswith("error: p2-step: 0.001 ") and len(err.splitlines()) == 1
    assert f"more than {channel.MAX_GRID_POINTS} grid points" in err


@pytest.mark.parametrize("h,p_max", [
    ((0.4, 1.4), (10, 1.2e4)),
    ((0.4, 1.4), (10, 1e300)),
    ((0.5, 2.0), (2, 2e4)),
    ((0.5, 0.7), (2, 2e4)),  # degenerate: the sum-rate oracle checks it
])
def test_jam_verify_default_grid_is_never_refused(tmp_path, capsys, h, p_max):
    """Without --p2-step the oracle takes its own default, which fits the
    grid cap however large the jammer's cap."""
    doc = write(tmp_path, {"standard": True, "users": [
        {"h": g, "power_max": p} for g, p in zip(h, p_max)]})
    code, out, err = run(capsys, "jam", doc, "--verify")
    assert (code, err) == (0, "")
    assert json.loads(out)["oracle"]["gap"] >= -1e-9


def test_jam_sweep_and_oracle_count_the_same_points(tmp_path, capsys, monkeypatch):
    # 0.3 / 0.1 is 2.9999999999999996, yet both take 4 points; the sweep's
    # are the multiples i * step themselves
    doc = write(tmp_path, {"standard": True, "users": [
        {"h": 0.4, "power_max": 10}, {"h": 1.4, "power_max": 0.3}]})
    steps = []
    real = oracle.grid_max_jamming
    monkeypatch.setattr(oracle, "grid_max_jamming",
                        lambda two, spec, unit: steps.append(spec.steps_per_axis)
                        or real(two, spec, unit))
    assert run(capsys, "jam", doc, "--verify", "--p2-step", "0.1")[0] == 0
    assert steps == [4]
    code, out, _ = run(capsys, "sweep", doc, "--kind", "jam", "--p2-step", "0.1")
    assert code == 0
    assert [float(line.split(",")[0]) for line in out.splitlines()[1:]] == [
        i * 0.1 for i in range(4)]


def test_jam_verify_axis_ends_at_the_jammer_cap(tmp_path, capsys):
    # FullJam at p2 = 0.2005: the multiples of 1e-3 stop at 0.2, 3.0e-5
    # below the closed form, so the axis must end at the cap for the
    # oracle to reach the closed form's rate
    doc = write(tmp_path, {"standard": True, "users": [
        {"h": 0.4, "power_max": 10}, {"h": 1.4, "power_max": 0.2005}]})
    code, out, _ = run(capsys, "jam", doc, "--verify")
    assert code == 0
    result = json.loads(out)
    assert result["branch"] == "FullJam"
    assert result["oracle"]["powers"] == [10.0, 0.2005]


def test_jam_verify_passes_a_grid_that_falls_short(tmp_path, capsys):
    """A coarse jamming axis misses the interior root: the grid's best is
    3.8e-5 below the closed form, which is no inconsistency."""
    doc = write(tmp_path, {"standard": True, "rate_unit": "nats", "users": [
        {"h": 1.539, "power_max": 5.26}, {"h": 2.366, "power_max": 11.04}]})
    code, out, err = run(capsys, "jam", doc, "--verify", "--p2-step", "0.5")
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert (result["case_tag"], result["branch"]) == ("B", "InteriorRoot")
    assert result["oracle"]["gap"] == pytest.approx(3.806e-5, rel=1e-3)


@pytest.mark.parametrize("k", [9, 12, 16])
def test_maxsum_verify_default_grid_fits_the_cap(tmp_path, capsys, k):
    """Above 8 users the default grid takes fewer steps, as the grid cap
    allows; the optimum is a box corner, so every such grid holds it."""
    doc = write(tmp_path, {"standard": True, "users": [
        {"h": 0.5, "power_max": 1.0 + j} for j in range(k)]})
    code, out, err = run(capsys, "maxsum", doc, "--verify")
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert result["oracle"]["p_star"] == result["p_star"]


@pytest.mark.parametrize("argv,module,name,change", [
    (["maxsum", "{doc}", "--verify"], "sumrate", "max_sum_rate",
     lambda sol: {"sum_rate": sol.sum_rate + 2e-9}),
    (["maxsum", "{doc}", "--verify"], "sumrate", "max_sum_rate",
     lambda sol: {"powers": (0.0, 10.0)}),
    (["jam", "{doc}", "--verify"], "jamming", "solve_jamming",
     lambda sol: {"secrecy_rate": sol.secrecy_rate + 2e-9}),
    (["jam", "{doc}", "--verify"], "jamming", "solve_jamming", lambda sol: {"p2": 11.0}),
])
def test_verify_of_a_tampered_answer_exits_2(tmp_path, capsys, monkeypatch,
                                             argv, module, name, change):
    """A rate off the oracle's formula at its own powers, or powers outside
    the set searched."""
    solver = getattr(import_module(f"gmacwt.{module}"), name)

    def tampered_solver(*args):
        sol = solver(*args)
        return tampered(sol, **change(sol))
    monkeypatch.setattr(f"gmacwt.{module}.{name}", tampered_solver)
    doc = write(tmp_path, CASE_A_DOC)
    code, out, err = run(capsys, *(doc if a == "{doc}" else a for a in argv))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("internal error: ")


def test_region_sweep_row_cap(tmp_path, capsys):
    doc = write(tmp_path, GOOD_DOC)
    code, out, err = run(capsys, "sweep", doc, "--kind", "region", "--grid-steps", "1001")
    assert code == 1
    assert out == ""
    assert err == "error: grid_steps: grid would have 1002001 points (cap 1000000)\n"


@pytest.mark.parametrize("argv", [
    ["maxsum", "{doc}", "--grid-steps", "x"],
    ["frobnicate", "{doc}"],
    ["feasible", "{doc}"],
    [],
])
def test_usage_error_exits_1(tmp_path, capsys, argv):
    doc = write(tmp_path, GOOD_DOC)
    code, out, err = run(capsys, *(doc if a == "{doc}" else a for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["maxsum", "--help"])
    assert exc.value.code == 0
    assert "--grid-steps" in capsys.readouterr().out


def test_unwritable_output_file_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "result.json"
    code, out, err = run(capsys, "maxsum", write(tmp_path, GOOD_DOC),
                         "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: out: ") and len(err.splitlines()) == 1
    assert not target.exists()


_REGION_RUN = """
def region_run():
    # the module's own dict, read without the attribute access that runs it
    module = sys.modules["gmacwt.region"]
    return "build_region" in types.ModuleType.__getattribute__(module, "__dict__")
"""

_IMPORT_PROBE = """
import contextlib, io, json, sys, types
import gmacwt, gmacwt.cli as cli
""" + _REGION_RUN + """

def main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()

def loaded(*names):
    return [name for name in names if name in sys.modules]

case_a, good, bad, infeasible = sys.argv[1:]
seen = {"import": loaded("numpy", "dataclasses", "inspect"),
        "gmacwt.region": ["gmacwt.region" in sys.modules, region_run()]}
codes = [main("standardize", case_a)[0]]
feasible = [main("feasible", good, "--power", "10,10"),
            main("feasible", infeasible, "--power", "1,1")]
seen["standardize_feasible"] = loaded("gmacwt.sumrate", "gmacwt.jamming", "gmacwt.oracle")
codes.append(main("maxsum", case_a)[0])
seen["maxsum"] = loaded("gmacwt.sumrate", "gmacwt.jamming", "gmacwt.oracle")
codes += [main("jam", case_a)[0], main("sweep", case_a, "--kind", "jam")[0],
          main("maxsum", bad)[0]]
seen["closed_form"] = loaded("numpy", "dataclasses", "inspect")
codes.append(main("jam", case_a, "--verify")[0])
seen["verify"] = "numpy" in sys.modules
seen["numpy.ma"] = "numpy.ma" in sys.modules
print(json.dumps({"seen": seen, "codes": codes, "feasible": feasible}))
"""


_MODULES_PROBE = """
import contextlib, io, json, sys, types
import gmacwt.cli as cli
""" + _REGION_RUN + """
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("gmacwt.")),
                  region_run()]))
"""


def test_closed_form_commands_do_not_import_numpy(tmp_path, capsys):
    """numpy loads only where an array is built: never on import, nor for
    standardize, feasible, maxsum, jam, the jamming sweep or a rejected
    document.  Neither does ``dataclasses`` (nor ``inspect``, which it
    pulls in), and each command runs only the modules it needs: ``maxsum
    --verify`` loads no ``gmacwt.jamming``, and ``jam`` outside its
    degenerate case no ``gmacwt.sumrate``, and a refused document neither.
    ``gmacwt.region`` is in ``sys.modules`` from ``import gmacwt.cli`` on,
    because ``perfbench/spans.py``'s ``install``, called right after that
    import, reads ``sys.modules["gmacwt.region"]``; but it is registered
    lazily, and its code runs only in ``feasible``, ``region``, ``sweep
    --kind region`` and ``--verify``, the commands that call it."""
    paths = [write(tmp_path, CASE_A_DOC, "a.json"), write(tmp_path, GOOD_DOC, "g.json"),
             write(tmp_path, {"standard": True, "users": []}, "bad.json"),
             write(tmp_path, BAD_DOC, "infeasible.json")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *paths], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    report = json.loads(proc.stdout)
    assert report["seen"] == {"import": [], "gmacwt.region": [True, False],
                              "standardize_feasible": [], "maxsum": ["gmacwt.sumrate"],
                              "closed_form": [], "verify": True, "numpy.ma": False}
    assert report["codes"] == [0, 0, 0, 0, 1, 0]
    expected = [run(capsys, "feasible", paths[1], "--power", "10,10")[:2],
                run(capsys, "feasible", paths[3], "--power", "1,1")[:2]]
    assert report["feasible"] == [list(e) for e in expected]
    assert [json.loads(out)["feasible"] for _, out in expected] == [True, False]

    base = ["gmacwt.channel", "gmacwt.cli", "gmacwt.region"]
    for argv, code, modules, region_run in (
            (["standardize", paths[0]], 0, [], False),
            (["maxsum", paths[1]], 0, ["gmacwt.sumrate"], False),
            (["jam", paths[0]], 0, ["gmacwt.jamming"], False),
            (["sweep", paths[0], "--kind", "jam"], 0, ["gmacwt.jamming"], False),
            (["maxsum", paths[2], "--verify"], 1, [], False), (["jam", paths[2]], 1, [], False),
            (["feasible", paths[2], "--power", "1"], 1, [], False),
            (["feasible", paths[1], "--power", "1,1"], 0, [], True),
            (["region", paths[1]], 0, [], True),
            (["sweep", paths[1], "--kind", "region", "--grid-steps", "3"], 0, [], True),
            (["maxsum", paths[1], "--verify"], 0, ["gmacwt.oracle", "gmacwt.sumrate"], True),
            (["jam", paths[0], "--verify"], 0, ["gmacwt.jamming", "gmacwt.oracle"], True)):
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_PROBE, *argv], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        assert json.loads(proc.stdout) == [code, sorted(base + modules), region_run], argv


_FIRST_ACCESS_PROBE = """
import json, pickle, sys
import gmacwt.cli
from gmacwt.channel import StandardChannel
ch = StandardChannel((0.1, 0.2), (10, 10))
how = sys.argv[1]
if how == "import":
    import gmacwt.region
    found = gmacwt.region.build_region((10, 10), ch)
elif how == "from":
    from gmacwt import region
    found = region.build_region((10, 10), ch)
elif how == "package":
    found = gmacwt.build_region((10, 10), ch)
else:
    found = pickle.loads(bytes.fromhex(sys.argv[2]))
module = sys.modules["gmacwt.region"]
print(json.dumps([found.bounds, found == module.build_region((10, 10), ch),
                  type(found) is module.RateRegion, gmacwt.region is module,
                  gmacwt.build_region is module.build_region]))
"""


@pytest.mark.parametrize("how", ["import", "from", "package", "pickle"])
def test_the_lazily_registered_region_runs_on_any_first_use(how):
    """After ``import gmacwt.cli`` has registered ``gmacwt.region`` without
    running it, each way of reaching the module runs it once and gets the
    same module: ``import gmacwt.region``, ``from gmacwt import region``,
    the package's ``gmacwt.build_region`` and unpickling a ``RateRegion``."""
    expected = build_region((10, 10), StandardChannel((0.1, 0.2), (10, 10)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_ACCESS_PROBE, how, pickle.dumps(expected).hex()],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120, check=True)
    assert json.loads(proc.stdout) == [list(expected.bounds), True, True, True, True]


_CLOSED_FORMS_PROBE = """
import json, sys
import gmacwt.sumrate, gmacwt.jamming
from gmacwt.channel import StandardChannel
from gmacwt.jamming import TwoUserChannel, solve_jamming
from gmacwt.sumrate import max_sum_rate
rates = [max_sum_rate(StandardChannel((0.1, 0.2), (10, 10))).sum_rate,
         solve_jamming(TwoUserChannel(0.4, 1.4, 10, 10)).case_tag]
print(json.dumps([rates, sorted(m for m in sys.modules if m == "numpy" or m.startswith("gmacwt"))]))
"""


def test_the_closed_forms_load_neither_region_nor_numpy():
    """The sum-rate optimum and the jamming optimum are each a difference of
    two capacities: they take the rate kernel and the input rules from
    ``gmacwt.channel`` and load neither the subset table's ``gmacwt.region``
    nor numpy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CLOSED_FORMS_PROBE], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    (sum_rate, case), modules = json.loads(proc.stdout)
    assert sum_rate > 0 and case == "A"
    assert modules == ["gmacwt", "gmacwt.channel", "gmacwt.jamming", "gmacwt.sumrate"]
