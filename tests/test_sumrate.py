import json

import pytest

import gmacwt.cli as cli
from gmacwt import InternalError, StandardChannel, is_feasible, max_sum_rate, sumrate
from gmacwt.sumrate import sum_secrecy_rate

from helpers import prune_bad_users, random_box_powers, random_channel, rng, snr_ratio

MAXSUM_L1 = 1.2297158093186486  # g(10) - g(1), bits
MAXSUM_L2 = 1.2924812503605781  # g(20) - g(2.5), bits


def test_snr_ratio_values():
    ch = StandardChannel(h=(0.1, 0.2), p_max=(10, 10))
    assert snr_ratio((0, 0), ch) == 1.0
    assert snr_ratio((10, 10), ch) == pytest.approx(4 / 21, abs=1e-15)
    ch2 = StandardChannel(h=(0.5, 1.4), p_max=(10, 10))
    assert snr_ratio((3, 5), ch2) == pytest.approx(9.5 / 9, abs=1e-15)


def test_prune_bad_users():
    ch = StandardChannel(h=(0.5, 1.4), p_max=(10, 10))
    assert prune_bad_users((3, 5), ch) == (3.0, 0.0)
    assert snr_ratio(prune_bad_users((3, 5), ch), ch) == pytest.approx(0.625, abs=1e-15)

    ch_good = StandardChannel(h=(0.5, 0.9), p_max=(10, 10))
    assert prune_bad_users((3, 5), ch_good) == (3.0, 5.0)

    ch_bad = StandardChannel(h=(1.0, 1.4), p_max=(10, 10))
    assert prune_bad_users((3, 5), ch_bad) == (0.0, 0.0)
    assert snr_ratio(prune_bad_users((3, 5), ch_bad), ch_bad) == 1.0


def test_prune_never_raises_ratio():
    gen = rng(31)
    for _ in range(200):
        k = int(gen.integers(1, 6))
        ch = random_channel(gen, k)
        powers = random_box_powers(gen, ch)
        assert snr_ratio(prune_bad_users(powers, ch), ch) <= snr_ratio(powers, ch) + 1e-12


def test_sum_secrecy_rate_values():
    ch = StandardChannel(h=(0.1, 0.2), p_max=(10, 10))
    assert sum_secrecy_rate((0, 0), ch) == 0.0
    assert sum_secrecy_rate((10, 0), ch) == pytest.approx(MAXSUM_L1, abs=1e-12)
    ch_bad = StandardChannel(h=(2, 2), p_max=(5, 5))
    assert sum_secrecy_rate((1, 1), ch_bad) == pytest.approx(-0.36848279708310308, abs=1e-12)


def test_max_sum_rate_limiting_user_one():
    sol = max_sum_rate(StandardChannel(h=(0.1, 0.2), p_max=(10, 10)))
    assert sol.powers == (10.0, 0.0)
    assert sol.limiting_user == 1
    assert sol.sum_rate == pytest.approx(MAXSUM_L1, abs=1e-12)
    assert sol.snr_ratio == pytest.approx(2 / 11, abs=1e-15)


def test_max_sum_rate_limiting_user_two():
    sol = max_sum_rate(StandardChannel(h=(0.1, 0.15), p_max=(10, 10)))
    assert sol.powers == (10.0, 10.0)
    assert sol.limiting_user == 2
    assert sol.sum_rate == pytest.approx(MAXSUM_L2, abs=1e-12)


def test_max_sum_rate_all_users_pruned():
    sol = max_sum_rate(StandardChannel(h=(1.2, 1.4), p_max=(10, 10)))
    assert sol.powers == (0.0, 0.0)
    assert sol.limiting_user == 0
    assert sol.sum_rate == 0.0
    assert sol.snr_ratio == 1.0


def test_limiting_user_counts_admitted_zero_cap_users():
    """The field counts every user the scan admitted; the JSON lists only
    the users with power > 0."""
    sol = max_sum_rate(StandardChannel(h=(0.2, 0.5), p_max=(0.0, 0.0)))
    assert sol.powers == (0.0, 0.0)
    assert sol.limiting_user == 2
    assert sol.to_json_dict()["limiting_user"] == []


def test_max_sum_rate_unsorted_input_maps_back():
    sol = max_sum_rate(StandardChannel(h=(0.2, 0.1), p_max=(7, 9)))
    assert sol.powers == (0.0, 9.0)
    assert sol.limiting_user == 1


def test_max_sum_rate_gain_exactly_one_stays_silent():
    sol = max_sum_rate(StandardChannel(h=(0.3, 1.0), p_max=(5, 5)))
    assert sol.powers == (5.0, 0.0)


def test_an_allocation_that_powers_a_gain_of_1_or_more_is_an_internal_error(
        monkeypatch, tmp_path, capsys):
    """The scan's consistency guard.  With ``TIE_TOL`` at -1 the scan
    admits a user of gain 1.5, and the guard raises rather than return an
    allocation outside the allowable set; the CLI answers with one
    ``internal error:`` line, exit 2 and nothing on stdout."""
    monkeypatch.setattr(sumrate, "TIE_TOL", -1.0)
    with pytest.raises(InternalError, match="^optimal allocation powers a user with h >= 1"):
        max_sum_rate(StandardChannel(h=(1.5,), p_max=(1.0,)))
    doc = tmp_path / "channel.json"
    doc.write_text(json.dumps({"standard": True, "users": [{"h": 1.5, "power_max": 1.0}]}))
    assert cli.main(["maxsum", str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("internal error: optimal allocation")


def test_max_sum_rate_json_document():
    sol = max_sum_rate(StandardChannel(h=(0.2, 0.1), p_max=(7, 9)))
    doc = sol.to_json_dict()
    assert doc["p_star"] == [0.0, 9.0]
    assert doc["limiting_user"] == [2]  # 1-based original labels
    assert doc["rho_star"] == sol.snr_ratio
    assert doc["rate_unit"] == "bits"


def test_threshold_consistency_at_optimum():
    gen = rng(32)
    for _ in range(100):
        k = int(gen.integers(1, 7))
        ch = random_channel(gen, k)
        sol = max_sum_rate(ch)
        for gain, power, cap in zip(ch.h, sol.powers, ch.p_max):
            if power > 0:
                assert power == cap
                assert gain < sol.snr_ratio + 1e-12
            else:
                # Silent users either hit the threshold or have no power cap.
                assert gain >= sol.snr_ratio - 1e-12 or cap == 0.0


def test_solution_is_feasible_with_threshold_structure():
    gen = rng(33)
    for _ in range(100):
        k = int(gen.integers(1, 7))
        ch = random_channel(gen, k)
        sol = max_sum_rate(ch)
        assert is_feasible(sol.powers, ch)[0]
        assert sol.sum_rate >= -1e-15
        if sol.limiting_user >= 1:
            assert sol.snr_ratio <= 1.0
        assert all(p in (0.0, cap) for p, cap in zip(sol.powers, ch.p_max))


def test_raising_a_transmitter_cap_never_hurts():
    gen = rng(34)
    for _ in range(50):
        k = int(gen.integers(2, 6))
        ch = random_channel(gen, k)
        sol = max_sum_rate(ch)
        transmitters = [i for i, p in enumerate(sol.powers) if p > 0]
        if not transmitters:
            continue
        i = transmitters[int(gen.integers(0, len(transmitters)))]
        p_max = list(ch.p_max)
        p_max[i] += gen.uniform(0.1, 5.0)
        bigger = StandardChannel(h=ch.h, p_max=tuple(p_max), rate_unit=ch.rate_unit)
        assert max_sum_rate(bigger).sum_rate >= sol.sum_rate - 1e-12


def test_allocation_is_rate_unit_invariant():
    gen = rng(35)
    for _ in range(50):
        k = int(gen.integers(1, 6))
        ch_bits = random_channel(gen, k, unit="bits")
        ch_nats = StandardChannel(h=ch_bits.h, p_max=ch_bits.p_max, rate_unit="nats")
        assert max_sum_rate(ch_bits).powers == max_sum_rate(ch_nats).powers
