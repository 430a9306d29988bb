"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Two sub-criteria are encoded as strict xfails because the stated constants
are inconsistent with the closed forms that the brute-force oracles
confirm; each xfail test is paired with a passing test asserting the
recomputed value or corrected law.  See the test docstrings.
"""

import itertools
import json
import time

import numpy as np
import pytest

import gmacwt.cli as cli
from gmacwt import (
    GridSpec,
    StandardChannel,
    TwoUserChannel,
    build_region,
    grid_max_jamming,
    is_feasible,
    max_sum_rate,
    solve_jamming,
    verify_jamming,
    verify_sum_rate,
)

from helpers import (
    awgn_capacity,
    classify_two_user_shape,
    jam_roots,
    prune_bad_users,
    random_box_powers,
    random_case_a,
    random_case_b,
    random_channel,
    random_feasible_powers,
    rng,
    snr_ratio,
)


def report(criterion, verdict, detail):
    print(f"\nacceptance criterion {criterion}: {verdict} — {detail}")


def test_criterion_1_sum_rate_oracle_equivalence():
    """Closed-form sum-rate optimum equals the grid oracle to 1e-9 on 100
    random channels (the optimum sits on a box corner, which the
    corner-including grid contains exactly); ``verify_sum_rate`` raises
    beyond its tolerance, on its default grid."""
    gen = rng(101)
    start = time.monotonic()
    worst = 0.0
    for i in range(100):
        k = (2, 3, 4, 5)[i % 4]
        ch = random_channel(gen, k, h_high=2.0, p_high=20.0)
        worst = max(worst, abs(verify_sum_rate(ch, max_sum_rate(ch))["gap"]))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(1, "PASS", f"100 channels, max |gap| = {worst:.3g}, {elapsed:.1f}s")


def test_criterion_2_jamming_oracle_equivalence():
    """Closed-form jamming optimum matches a 1e-3-step grid search within
    1e-5 on 200 random case-A and 200 case-B channels; ``verify_jamming``
    raises if the grid beats the closed form by more than its 1e-9, or if
    the claimed rate is not the objective at the claimed powers.  The
    returned jamming power is within one grid step of the oracle maximizer."""
    gen = rng(102)
    start = time.monotonic()
    worst_rate = 0.0
    worst_p2 = 0.0
    for i in range(400):
        ch = random_case_a(gen) if i < 200 else random_case_b(gen)
        sol = solve_jamming(ch)
        assert sol.case_tag == ("A" if i < 200 else "B")
        std = StandardChannel(h=(ch.h1, ch.h2), p_max=(ch.p1_max, ch.p2_max))
        oracle = verify_jamming(std, sol, int(ch.p2_max / 1e-3) + 1)
        assert oracle["kind"] == "jamming"
        step = ch.p2_max / max(1, int(ch.p2_max / 1e-3))
        p2_gap = abs(sol.p2 - oracle["powers"][1])
        assert abs(oracle["gap"]) <= 1e-5, (ch, sol, oracle)
        worst_rate = max(worst_rate, abs(oracle["gap"]))
        worst_p2 = max(worst_p2, p2_gap - step)
        assert p2_gap <= step + 1e-12, (ch, sol, oracle)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(2, "PASS",
           f"400 channels, max rate gap = {worst_rate:.3g}, {elapsed:.1f}s")


def test_criterion_3_golden_values():
    """Golden optima, recomputed by an independent 50-digit script from the
    closed forms and cross-checked here against the grid oracles."""
    sol = max_sum_rate(StandardChannel(h=(0.1, 0.2), p_max=(10, 10)))
    assert sol.powers == (10.0, 0.0)
    assert sol.sum_rate == pytest.approx(1.229716, abs=1e-6)  # as stated
    assert sol.sum_rate == pytest.approx(1.2297158093186486, abs=1e-9)

    case_a = TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=10)
    sol_a = solve_jamming(case_a)
    assert sol_a.p1 == 10.0
    assert sol_a.p2 == pytest.approx(0.490216, abs=1e-6)  # as stated
    assert sol_a.p2 == pytest.approx(0.49021623019079503, abs=1e-9)
    assert sol_a.secrecy_rate == pytest.approx(0.59659250286014471, abs=1e-9)
    _, _, rate_oracle = grid_max_jamming(case_a, GridSpec(steps_per_axis=10001))
    assert sol_a.secrecy_rate == pytest.approx(rate_oracle, abs=1e-5)

    case_b = TwoUserChannel(h1=1.2, h2=1.4, p1_max=10, p2_max=20)
    sol_b = solve_jamming(case_b)
    assert sol_b.p1 == 10.0
    assert sol_b.p2 == pytest.approx(5.5355736761107267, abs=1e-9)
    assert sol_b.secrecy_rate == pytest.approx(0.046706065296348544, abs=1e-9)
    _, _, rate_oracle = grid_max_jamming(case_b, GridSpec(steps_per_axis=20001))
    assert sol_b.secrecy_rate == pytest.approx(rate_oracle, abs=1e-5)

    report(3, "PASS", "recomputed golden optima match, oracle-confirmed")


@pytest.mark.xfail(
    strict=True,
    reason="the stated jamming golden constants (0.596578 bits; 5.535575, "
           "0.046705 bits) disagree with a 50-digit evaluation of the "
           "defining closed forms (0.59659250..., 5.53557368..., "
           "0.04670607...) by 1.5e-5 / 1.3e-6 / 1.1e-6, beyond the 1e-6 "
           "tolerance; the grid oracle confirms the recomputed values "
           "(see test_criterion_3_golden_values)")
def test_criterion_3_jamming_constants_as_stated():
    case_a = TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=10)
    sol_a = solve_jamming(case_a)
    case_b = TwoUserChannel(h1=1.2, h2=1.4, p1_max=10, p2_max=20)
    sol_b = solve_jamming(case_b)
    report("3 (jam constants as stated)", "FAIL",
           f"rate_A={sol_a.secrecy_rate!r} vs 0.596578, "
           f"p2_B={sol_b.p2!r} vs 5.535575, "
           f"rate_B={sol_b.secrecy_rate!r} vs 0.046705 at 1e-6")
    assert sol_a.secrecy_rate == pytest.approx(0.596578, abs=1e-6)
    assert sol_b.p2 == pytest.approx(5.535575, abs=1e-6)
    assert sol_b.secrecy_rate == pytest.approx(0.046705, abs=1e-6)


def test_criterion_4_threshold_laws():
    """Case A: the positive stationarity root vanishes exactly at
    p1_max = (1 - h1*h2) / (h1 * (h2 - 1)); case B: everyone stays silent
    exactly up to p2_max = (h1 - 1) / (h2 - h1), tested 1e-6 on both
    sides of the boundary."""
    gen = rng(104)
    for _ in range(50):
        h1 = float(gen.uniform(0.05, 0.95))
        h2 = float(gen.uniform(1.0001, min(2.0, 0.999 / h1)))
        threshold = (1.0 - h1 * h2) / (h1 * (h2 - 1.0))
        ch = TwoUserChannel(h1=h1, h2=h2, p1_max=threshold, p2_max=10.0)
        _, _, p_hi = jam_roots(threshold, ch)
        assert abs(p_hi) <= 1e-9, (h1, h2, p_hi)

    for _ in range(50):
        ch = random_case_b(gen, p_low=0.5)
        threshold = (ch.h1 - 1.0) / (ch.h2 - ch.h1)
        below = TwoUserChannel(ch.h1, ch.h2, ch.p1_max, threshold - 1e-6)
        at = TwoUserChannel(ch.h1, ch.h2, ch.p1_max, threshold)
        above = TwoUserChannel(ch.h1, ch.h2, ch.p1_max, threshold + 1e-6)
        assert solve_jamming(below).branch == "AllSilent"
        assert solve_jamming(below).secrecy_rate == 0.0
        assert solve_jamming(at).branch == "AllSilent"
        sol = solve_jamming(above)
        assert sol.case_tag == "B"
        assert sol.branch != "AllSilent"
        assert sol.p1 == ch.p1_max
        assert sol.secrecy_rate > 0.0
    report(4, "PASS", "case-A root zero at the corrected threshold; "
                      "case-B silence boundary exact on both sides")


@pytest.mark.xfail(
    strict=True,
    reason="the stated case-A threshold (1 - h1*h2) / (h1 * (h2 - h1)) does "
           "not zero the stationarity root given the defining expressions "
           "for the discriminant and the root; solving root == 0 for p1 "
           "gives denominator h1 * (h2 - 1), which the paired passing test "
           "verifies (e.g. h=(0.4, 1.4): root(1.1) = -0.186, root(2.75) = 0)")
def test_criterion_4_case_a_threshold_as_stated():
    gen = rng(105)
    failures = []
    for _ in range(50):
        h1 = float(gen.uniform(0.05, 0.95))
        h2 = float(gen.uniform(1.0001, min(2.0, 0.999 / h1)))
        threshold = (1.0 - h1 * h2) / (h1 * (h2 - h1))
        ch = TwoUserChannel(h1=h1, h2=h2, p1_max=threshold, p2_max=10.0)
        _, _, p_hi = jam_roots(threshold, ch)
        if abs(p_hi) > 1e-9:
            failures.append((h1, h2, p_hi))
    report("4 (case-A threshold as stated)", "FAIL",
           f"root nonzero at the stated threshold for {len(failures)}/50 "
           f"draws, e.g. {failures[0] if failures else None}")
    assert not failures


def test_criterion_5_feasibility_law():
    """All gains <= 1: the box alone decides feasibility.  All gains > 1:
    no point with any positive power is feasible."""
    gen = rng(106)
    for i in range(1000):
        k = (1, 2, 3, 4, 5)[i % 5]
        ch = random_channel(gen, k, h_high=1.0)
        ok, witness = is_feasible(random_box_powers(gen, ch), ch)
        assert ok, witness

    checked = 0
    for i in range(100):
        k = (2, 3)[i % 2]
        ch = random_channel(gen, k, h_low=1.0 + 1e-6, h_high=3.0)
        axes = [np.linspace(0.0, p, 6) for p in ch.p_max]
        for point in itertools.product(*axes):
            if any(p > 0 for p in point):
                assert not is_feasible(point, ch)[0], (ch, point)
                checked += 1
    assert checked > 0
    report(5, "PASS", f"1000 box-only channels feasible; {checked} positive "
                      f"grid points on all-bad channels all infeasible")


def test_criterion_6_degraded_case_reduction():
    """Equal gains h < 1: the full-set bound reduces to
    capacity(sum P) - capacity(h * sum P)."""
    gen = rng(107)
    for i in range(100):
        k = (1, 2, 3, 4, 5, 6)[i % 6]
        h = float(gen.uniform(0.01, 0.99))
        ch = StandardChannel(h=(h,) * k, p_max=(20.0,) * k)
        powers = random_box_powers(gen, ch)
        bound = build_region(powers, ch).halfspaces[(1 << k) - 2][1]
        expected = awgn_capacity(sum(powers)) - awgn_capacity(h * sum(powers))
        assert bound == pytest.approx(expected, abs=1e-12)
    report(6, "PASS", "full-set bound reduces to the degraded form (1e-12)")


def test_criterion_7_prune_dominance():
    """Zeroing the bad users never raises the SNR ratio."""
    gen = rng(108)
    for i in range(1000):
        k = (1, 2, 3, 4, 5)[i % 5]
        ch = random_channel(gen, k, h_high=2.5)
        powers = random_box_powers(gen, ch)
        assert (snr_ratio(prune_bad_users(powers, ch), ch)
                <= snr_ratio(powers, ch) + 1e-12)
    report(7, "PASS", "1000 random (channel, power) pairs")


def _independent_vertices(b1, b2, b12):
    """Vertex enumeration via numpy linear solves over all constraint
    pairs, independent of the library's implementation."""
    rows = [
        ((1.0, 0.0), 0.0),
        ((0.0, 1.0), 0.0),
        ((1.0, 0.0), b1),
        ((0.0, 1.0), b2),
        ((1.0, 1.0), b12),
    ]
    found = []
    for (a, ca), (b, cb) in itertools.combinations(rows, 2):
        matrix = np.array([a, b])
        if abs(np.linalg.det(matrix)) < 1e-12:
            continue
        x, y = np.linalg.solve(matrix, np.array([ca, cb]))
        if (x >= -1e-10 and y >= -1e-10 and x <= b1 + 1e-10
                and y <= b2 + 1e-10 and x + y <= b12 + 1e-10):
            found.append((max(0.0, float(x)), max(0.0, float(y))))
    unique = []
    for pt in found:
        if not any(abs(pt[0] - q[0]) < 1e-9 and abs(pt[1] - q[1]) < 1e-9
                   for q in unique):
            unique.append(pt)
    return unique


def test_criterion_8_region_geometry():
    """Two-user regions: vertices satisfy every halfspace (1e-9), a 1e-3
    outward push along any active facet normal leaves the region, and the
    shape classification agrees with an independent halfspace-intersection
    vertex count."""
    expected_counts = {"triangle": 3, "quadrilateral": 4,
                       "rectangle": 4, "pentagon": 5}
    gen = rng(109)
    classified = 0
    for _ in range(100):
        ch = random_channel(gen, 2, h_high=1.5, p_high=15.0)
        powers = random_feasible_powers(gen, ch)
        region = build_region(powers, ch)
        b1, b2, b12 = (b for _, b in region.halfspaces)

        for v in region.vertices:
            for users, bound in region.halfspaces:
                assert sum(v[k] for k in users) <= bound + 1e-9

        for users, bound in region.halfspaces:
            on_facet = [v for v in region.vertices
                        if abs(sum(v[k] for k in users) - bound) <= 1e-9]
            norm = len(users) ** 0.5
            for v in on_facet:
                pushed = list(v)
                for k in users:
                    pushed[k] += 1e-3 / norm
                assert not region.contains(pushed)

        independent = _independent_vertices(b1, b2, b12)
        assert len(independent) == len(region.vertices)
        for v in region.vertices:
            assert any(abs(v[0] - q[0]) < 1e-8 and abs(v[1] - q[1]) < 1e-8
                       for q in independent)

        margins = (b1, b2, b12, abs(b12 - (b1 + b2)),
                   abs(b12 - b1), abs(b12 - b2))
        if min(margins) > 1e-9:
            shape = classify_two_user_shape(b1, b2, b12)
            assert len(independent) == expected_counts[shape], (
                shape, b1, b2, b12, independent)
            classified += 1
    assert classified >= 50
    report(8, "PASS", f"100 regions checked, {classified} nondegenerate "
                      f"shape classifications confirmed")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    """Repeated CLI invocations produce byte-identical output."""
    channel = tmp_path / "channel.json"
    channel.write_text(json.dumps({
        "standard": True,
        "users": [{"h": 0.4, "power_max": 10}, {"h": 1.4, "power_max": 10}],
    }))
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps({
        "users": [
            {"gain_receiver": 4, "gain_eavesdropper": 1, "power_max": 5},
            {"gain_receiver": 1, "gain_eavesdropper": 2, "power_max": 10},
        ],
        "noise_var_receiver": 2,
        "noise_var_eavesdropper": 1,
    }))
    commands = [
        ["standardize", str(raw)],
        ["feasible", str(channel), "--power", "10,0.25"],
        ["region", str(channel), "--power", "10,0.25"],
        ["maxsum", str(channel), "--verify"],
        ["jam", str(channel), "--verify"],
        ["sweep", str(channel), "--kind", "region", "--grid-steps", "7"],
        ["sweep", str(channel), "--kind", "jam", "--p2-step", "0.5"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            captured = capsys.readouterr()
            outputs.append((captured.out.encode(), captured.err.encode()))
        assert outputs[0] == outputs[1], argv
    report(9, "PASS", f"{len(commands)} commands byte-identical across runs")
