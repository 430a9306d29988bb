"""The one rate kernel, ``C(N / D)``, against 50-digit references.

Every closed-form secrecy rate is a difference of two capacities,
``C(a / (1 + c_m)) - C(b / (1 + c_t))``, which cancels where the two are
nearly equal: next to a gain of 1.  The bounds of ``build_region``,
``max_sum_rate``'s sum rate and ``jam_objective`` each take it as one log
of a numerator built from ``P_k (1 - h_k)`` terms, and must be within
1e-13 (bounds) or 1e-14 (sum rate, jamming objective) relative of
references evaluated from the same floats at 50 digits, for gains from
1e-12 to 1e-2 away from 1.  Where the one log is not
well-conditioned (``N / D < -1/2``) the difference itself is returned, and
stays finite.
"""

import json
import math

import pytest

import gmacwt.cli as cli
from gmacwt import StandardChannel, TwoUserChannel, build_region, jam_objective, max_sum_rate
from gmacwt.sumrate import sum_secrecy_rate

from helpers import (
    awgn_capacity,
    cap,
    gain,
    mp_jam_objective,
    mp_subset_rate,
    rel_error,
    rng,
    subset_rates,
)

#: Distances of the gains from 1: each draw is within 10^band..10^(band + 1).
BANDS = [-12, -10, -8, -6, -4, -3]


@pytest.mark.parametrize("band", BANDS)
def test_bounds_are_accurate_next_to_a_gain_of_1(band):
    """Subsets whose gains are all below 1 (no term of N cancels): within
    1e-13 of the reference, at K = 1..4, in bits and nats."""
    gen = rng(150)
    checked = 0
    for i in range(60):
        k = int(gen.integers(1, 5))
        unit = ("bits", "nats")[i % 2]
        ch = StandardChannel(h=[gain(gen, band, band + 1) for _ in range(k)],
                             p_max=[cap(gen) for _ in range(k)], rate_unit=unit)
        p = tuple(c * float(gen.uniform(0.5, 1.0)) for c in ch.p_max)
        for mask, bound in enumerate(build_region(p, ch).bounds, 1):
            users = [j for j in range(k) if mask >> j & 1]
            if not all(ch.h[j] < 1.0 for j in users):
                continue
            exact = mp_subset_rate(ch.h, p, users, unit)
            assert rel_error(bound, exact) <= 1e-13, (ch, p, users)
            checked += 1
    assert checked >= 60


@pytest.mark.parametrize("band", BANDS)
def test_max_sum_rate_is_accurate_next_to_a_gain_of_1(band):
    gen = rng(151)
    powered = 0
    for i in range(60):
        k = int(gen.integers(1, 5))
        unit = ("bits", "nats")[i % 2]
        ch = StandardChannel(h=[gain(gen, band, band + 1) for _ in range(k)],
                             p_max=[cap(gen) for _ in range(k)], rate_unit=unit)
        sol = max_sum_rate(ch)
        if not sol.limiting_user:
            assert sol.sum_rate == 0.0
            continue
        powered += 1
        exact = mp_subset_rate(ch.h, sol.powers, range(k), unit)
        assert rel_error(sol.sum_rate, exact) <= 1e-14, ch
    assert powered >= 30


@pytest.mark.parametrize("band", BANDS)
def test_case_a_jamming_objective_is_accurate_next_to_a_gain_of_1(band):
    """``h1 < 1 <= h2``, both within 1e-12..1e-2 of 1, at any jamming power."""
    gen = rng(152)
    for i in range(100):
        unit = ("bits", "nats")[i % 2]
        h1 = 1.0 - 10.0 ** gen.uniform(band, band + 1)
        h2 = 1.0 + 10.0 ** gen.uniform(band, band + 1)
        ch = TwoUserChannel(h1=h1, h2=h2, p1_max=cap(gen), p2_max=cap(gen))
        p2 = ch.p2_max * float(gen.uniform())
        exact = mp_jam_objective(h1, h2, ch.p1_max, p2, unit)
        assert rel_error(jam_objective(ch.p1_max, p2, ch, unit), exact) <= 1e-14, (ch, p2)


# --- where the one log is not taken -----------------------------------

#: User 1's received power at the eavesdropper is 1e300 times that at the
#: receiver: every subset holding it has ``N / D`` of -1 to the last bit.
FAR_CH = StandardChannel(h=(1e300, 0.5), p_max=(1.0, 1e-3))
FAR_POWERS = (1.0, 1e-3)


def _close_to(value, earlier):
    return math.isfinite(value) and abs(value - earlier) <= 1e-12 * abs(earlier)


def test_bounds_stay_finite_where_the_one_log_is_not_taken():
    bounds = build_region(FAR_POWERS, FAR_CH).bounds
    for users, bound in zip(((0,), (1,), (0, 1)), bounds):
        rates = subset_rates(users, FAR_POWERS, FAR_CH)
        assert _close_to(bound, rates.main - rates.tap_intf), users
    assert _close_to(bounds[0], -497.7888536494825)


def test_sum_rate_stays_finite_where_the_one_log_is_not_taken():
    earlier = awgn_capacity(sum(FAR_POWERS)) - awgn_capacity(1e300 * 1.0 + 0.5 * 1e-3)
    assert _close_to(sum_secrecy_rate(FAR_POWERS, FAR_CH), earlier)


def test_jamming_objective_stays_finite_where_the_one_log_is_not_taken():
    """``N / D = -1e20 / (1 + 1e20)``, which rounds to -1."""
    ch = TwoUserChannel(1e20, 2e20, 1, 1)
    earlier = awgn_capacity(1.0) - awgn_capacity(1e20)
    assert _close_to(jam_objective(1, 0, ch), earlier)
    assert _close_to(jam_objective(1, 0, ch), -32.719280948873624)


def test_region_command_answers_where_the_one_log_is_not_taken(tmp_path, capsys):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"standard": True, "users": [
        {"h": h, "power_max": p} for h, p in zip(FAR_CH.h, FAR_CH.p_max)]}))
    assert cli.main(["region", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [hs["bound"] for hs in doc["halfspaces"]] == list(build_region(FAR_POWERS, FAR_CH).bounds)
