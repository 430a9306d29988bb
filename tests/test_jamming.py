import math

import mpmath
import pytest

from gmacwt import (
    StandardChannel,
    TwoUserChannel,
    ValidationError,
    jam_objective,
    solve_jamming,
)
from gmacwt.jamming import silence_threshold

from helpers import (
    jam_roots,
    no_jam_power_threshold,
    p1_stationarity,
    p2_stationarity,
    random_case_a,
    random_case_b,
    rng,
)

# High-precision reference values (50-digit evaluation of the closed forms).
A_ROOT = 0.49021623019079503       # h=(0.4,1.4), p1=10
A_ROOT_LO = -1.690216230190795
A_RATE = 0.59659250286014471       # objective at (10, A_ROOT), bits
A_RATE_NO_JAM = 0.56875176187496745   # objective at (10, 0)
A_RATE_FULL = 0.58899915098899724     # objective at (10, 0.2)
B_ROOT = 5.5355736761107267        # h=(1.2,1.4), p1=10
B_RATE = 0.046706065296348544      # objective at (10, B_ROOT), bits
B_RATE_FULL = 0.040764942748299164    # objective at (10, 3)

CASE_A_CH = TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=10)
CASE_B_CH = TwoUserChannel(h1=1.2, h2=1.4, p1_max=10, p2_max=20)


def test_two_user_channel_requires_sorted_gains():
    with pytest.raises(ValidationError, match="h1"):
        TwoUserChannel(h1=1.4, h2=0.4, p1_max=1, p2_max=1)


@pytest.mark.parametrize("field", ["h1", "h2", "p1_max", "p2_max"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_two_user_channel_rejects_negative_and_non_finite(field, value):
    fields = dict(h1=0.4, h2=1.4, p1_max=1.0, p2_max=1.0)
    fields[field] = value
    with pytest.raises(ValidationError, match=f"{field}: must be finite and >= 0"):
        TwoUserChannel(**fields)


def test_from_standard_relabels_users():
    ch = StandardChannel(h=(1.4, 0.4), p_max=(3, 7))
    two, perm = TwoUserChannel.from_standard(ch)
    assert (two.h1, two.h2) == (0.4, 1.4)
    assert (two.p1_max, two.p2_max) == (7.0, 3.0)
    assert perm == (1, 0)
    with pytest.raises(ValidationError, match="users"):
        TwoUserChannel.from_standard(StandardChannel(h=(0.5,), p_max=(1,)))


def test_jam_objective_values():
    assert jam_objective(0, 5, CASE_A_CH) == 0.0
    assert jam_objective(10, 0, CASE_A_CH) == pytest.approx(A_RATE_NO_JAM, abs=1e-12)
    assert jam_objective(10, A_ROOT, CASE_A_CH) == pytest.approx(A_RATE, abs=1e-12)
    # Jamming beats staying silent here.
    assert jam_objective(10, A_ROOT, CASE_A_CH) > jam_objective(10, 0, CASE_A_CH)


def test_p1_stationarity_values():
    assert p1_stationarity(0, CASE_A_CH) == pytest.approx(-0.6, abs=1e-15)
    b = TwoUserChannel(h1=1.2, h2=1.4, p1_max=1, p2_max=1)
    assert p1_stationarity(1.0, b) == pytest.approx(0.0, abs=1e-15)
    assert p1_stationarity(0.0, b) == pytest.approx(0.2, abs=1e-15)


def test_p1_stationarity_always_negative_in_case_a():
    gen = rng(41)
    for _ in range(100):
        ch = random_case_a(gen)
        assert p1_stationarity(gen.uniform(0, 30), ch) < 0


def test_jam_roots_case_a():
    disc, lo, hi = jam_roots(10, CASE_A_CH)
    assert disc == pytest.approx(2.3296, abs=1e-12)
    assert hi == pytest.approx(A_ROOT, abs=1e-12)
    assert lo == pytest.approx(A_ROOT_LO, abs=1e-12)
    assert lo <= hi
    assert lo < 0  # always in case A


def test_jam_roots_case_b():
    disc, lo, hi = jam_roots(10, CASE_B_CH)
    assert disc == pytest.approx(1.6128, abs=1e-12)
    assert hi == pytest.approx(B_ROOT, abs=1e-11)


def test_jam_roots_tap_gain_exactly_one():
    ch = TwoUserChannel(h1=0.3, h2=1.0, p1_max=5, p2_max=5)
    disc, lo, hi = jam_roots(7.0, ch)
    assert disc == 0.0
    assert lo == hi == -1.0  # double negative root: jamming never helps


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_powers_rejected(value):
    for p1, p2, name in ((value, 1.0, "p1"), (1.0, value, "p2")):
        with pytest.raises(ValidationError, match=f"{name}: must be finite and >= 0"):
            jam_objective(p1, p2, CASE_A_CH)


def test_p2_stationarity_matches_numeric_derivative():
    # The stationarity numerator equals the p2-derivative of the negated
    # SNR-product ratio times (1+p2)^2 * (1+h1*p1+h2*p2)^2.
    gen = rng(42)
    checked = 0
    while checked < 20:
        ch = random_case_a(gen) if checked % 2 == 0 else random_case_b(gen)
        p1 = gen.uniform(0.1, 15)
        p2 = gen.uniform(0.0, 10)

        def ratio(q, ch=ch, p1=p1):
            return -((1 + p1 + q) * (1 + ch.h2 * q)
                     / ((1 + q) * (1 + ch.h1 * p1 + ch.h2 * q)))

        d = 1e-5
        numeric = (ratio(p2 + d) - ratio(p2 - d)) / (2 * d)
        denom = (1 + p2) ** 2 * (1 + ch.h1 * p1 + ch.h2 * p2) ** 2
        assert p2_stationarity(p1, p2, ch) / denom == pytest.approx(numeric, rel=1e-6, abs=1e-8)
        checked += 1


def test_solve_case_a_interior_root():
    sol = solve_jamming(CASE_A_CH)
    assert sol.p1 == 10.0
    assert sol.p2 == pytest.approx(A_ROOT, abs=1e-12)
    assert sol.secrecy_rate == pytest.approx(A_RATE, abs=1e-12)
    assert sol.branch == "InteriorRoot"
    assert sol.case_tag == "A"


def test_solve_case_a_no_jam():
    sol = solve_jamming(TwoUserChannel(h1=0.4, h2=1.4, p1_max=1, p2_max=10))
    assert (sol.p1, sol.p2) == (1.0, 0.0)
    assert sol.branch == "NoJam"
    assert sol.case_tag == "A"
    _, _, hi = jam_roots(1.0, CASE_A_CH)
    assert hi == pytest.approx(-0.2, abs=1e-12)


def test_solve_case_a_full_jam():
    sol = solve_jamming(TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=0.2))
    assert (sol.p1, sol.p2) == (10.0, 0.2)
    assert sol.branch == "FullJam"
    assert sol.case_tag == "A"
    assert sol.secrecy_rate == pytest.approx(A_RATE_FULL, abs=1e-12)


def test_solve_case_b_interior_root():
    sol = solve_jamming(CASE_B_CH)
    assert sol.p1 == 10.0
    assert sol.p2 == pytest.approx(B_ROOT, abs=1e-11)
    assert sol.secrecy_rate == pytest.approx(B_RATE, abs=1e-12)
    assert sol.branch == "InteriorRoot"
    assert sol.case_tag == "B"
    # Positive secrecy rate although both single-user secrecy capacities
    # are zero.
    assert sol.secrecy_rate > 0


def test_solve_case_b_all_silent():
    sol = solve_jamming(TwoUserChannel(h1=1.2, h2=1.4, p1_max=10, p2_max=0.5))
    assert (sol.p1, sol.p2, sol.secrecy_rate) == (0.0, 0.0, 0.0)
    assert sol.branch == "AllSilent"
    assert sol.case_tag == "B"
    assert silence_threshold(CASE_B_CH) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError, match="threshold applies to 1 <= h1 < h2"):
        silence_threshold(CASE_A_CH)


def test_solve_case_b_full_jam():
    sol = solve_jamming(TwoUserChannel(h1=1.2, h2=1.4, p1_max=10, p2_max=3))
    assert (sol.p1, sol.p2) == (10.0, 3.0)
    assert sol.branch == "FullJam"
    assert sol.case_tag == "B"
    assert sol.secrecy_rate == pytest.approx(B_RATE_FULL, abs=1e-12)


def test_solve_jamming_dispatch():
    # Both gains below one: the sum-rate optimum, nobody jams.
    sol = solve_jamming(TwoUserChannel(h1=0.1, h2=0.2, p1_max=10, p2_max=10))
    assert (sol.p1, sol.p2) == (10.0, 0.0)
    assert sol.branch == "NoJam"
    assert sol.case_tag == "Degenerate"
    assert sol.secrecy_rate == pytest.approx(1.2297158093186486, abs=1e-12)

    # Equal gains >= 1: jamming has no relative advantage.
    sol = solve_jamming(TwoUserChannel(h1=1.3, h2=1.3, p1_max=10, p2_max=10))
    assert (sol.p1, sol.p2, sol.secrecy_rate) == (0.0, 0.0, 0.0)
    assert sol.branch == "AllSilent"
    assert sol.case_tag == "Degenerate"

    assert solve_jamming(CASE_A_CH).case_tag == "A"
    assert solve_jamming(CASE_B_CH).case_tag == "B"


def test_solve_jamming_zero_transmit_power():
    sol = solve_jamming(TwoUserChannel(h1=0.4, h2=1.4, p1_max=0, p2_max=10))
    assert (sol.p1, sol.p2, sol.secrecy_rate) == (0.0, 0.0, 0.0)


def test_no_jam_threshold_zeroes_the_root():
    gen = rng(43)
    for _ in range(50):
        h1 = gen.uniform(0.05, 0.95)
        h2 = gen.uniform(1.0001, min(2.0, 0.999 / h1))
        ch = TwoUserChannel(h1=h1, h2=h2, p1_max=1, p2_max=1)
        thr = no_jam_power_threshold(ch)
        assert thr > 0
        _, _, hi = jam_roots(thr, ch)
        assert abs(hi) <= 1e-9
        # Below the threshold the root is negative, above it positive.
        assert jam_roots(thr * 0.9, ch)[2] < 0
        assert jam_roots(thr * 1.1, ch)[2] > 0


def test_no_jam_threshold_special_cases():
    assert no_jam_power_threshold(
        TwoUserChannel(h1=0.8, h2=1.5, p1_max=1, p2_max=1)) == 0.0   # h1*h2 >= 1
    assert no_jam_power_threshold(
        TwoUserChannel(h1=0.3, h2=1.0, p1_max=1, p2_max=1)) == math.inf


def test_jammer_always_helps_when_gain_product_exceeds_one():
    gen = rng(44)
    for _ in range(100):
        h1 = gen.uniform(0.5, 0.999)
        h2 = gen.uniform(1.0 / h1, 1.0 / h1 + 1.0)
        ch = TwoUserChannel(h1=h1, h2=h2, p1_max=gen.uniform(1e-6, 20), p2_max=10)
        _, _, hi = jam_roots(ch.p1_max, ch)
        assert hi > 0
        sol = solve_jamming(ch)
        assert sol.case_tag == "A"
        assert sol.p2 > 0
        assert sol.secrecy_rate >= jam_objective(ch.p1_max, 0, ch) - 1e-12


def test_case_a_objective_unimodal_around_root():
    gen = rng(45)
    for _ in range(10):
        ch = random_case_a(gen, p_low=0.5)
        _, _, hi = jam_roots(ch.p1_max, ch)
        step = 1e-3
        values = [jam_objective(ch.p1_max, i * step, ch)
                  for i in range(int(ch.p2_max / step) + 1)]
        for i in range(len(values) - 1):
            left, right = i * step, (i + 1) * step
            if right <= hi:
                assert values[i + 1] >= values[i] - 1e-12
            elif left >= hi:
                assert values[i + 1] <= values[i] + 1e-12


def test_case_a_jamming_never_hurts():
    gen = rng(46)
    for _ in range(100):
        ch = random_case_a(gen)
        sol = solve_jamming(ch)
        assert sol.case_tag == "A"
        baseline = jam_objective(ch.p1_max, 0, ch) if ch.p1_max > 0 else 0.0
        assert sol.secrecy_rate >= baseline - 1e-12
        _, _, hi = jam_roots(ch.p1_max, ch) if ch.p1_max > 0 else (0, 0, 0.0)
        if hi > 1e-6 and ch.p2_max > 0:
            assert sol.secrecy_rate > baseline
        if hi <= 0:
            assert sol.p2 == 0.0


def test_case_b_root_exceeds_silence_threshold():
    gen = rng(47)
    for _ in range(100):
        ch = random_case_b(gen, p_low=1e-3)
        assert jam_roots(ch.p1_max, ch)[2] > silence_threshold(ch) - 1e-12


@pytest.mark.parametrize("ch", [
    TwoUserChannel(h1=0.2, h2=0.6, p1_max=3, p2_max=1),     # degenerate, NoJam
    TwoUserChannel(h1=1.3, h2=1.3, p1_max=10, p2_max=10),   # degenerate, AllSilent
    TwoUserChannel(h1=1.2, h2=1.4, p1_max=10, p2_max=0.5),  # case B, AllSilent
    TwoUserChannel(h1=1.2, h2=1.4, p1_max=0, p2_max=20),    # case B, no transmit power
    CASE_A_CH,
    CASE_B_CH,
    TwoUserChannel(h1=0.4, h2=1.4, p1_max=0, p2_max=10),    # case A, NoJam
])
def test_solve_jamming_refuses_a_bad_rate_unit(ch):
    with pytest.raises(ValidationError, match="rate_unit: must be one of"):
        solve_jamming(ch, "dB")


@pytest.mark.parametrize("unit", ["dB", None])
def test_jam_objective_refuses_a_bad_rate_unit(unit):
    """On entry, after the powers and their totals: a bad power or an
    overflowing total is named before the unit."""
    with pytest.raises(ValidationError, match="rate_unit: must be one of"):
        jam_objective(1.0, 2.0, CASE_A_CH, unit)
    with pytest.raises(ValidationError, match="p1: must be finite"):
        jam_objective(-1.0, 2.0, CASE_A_CH, unit)
    with pytest.raises(ValidationError, match=r"p1 \+ p2: the users' total overflows"):
        jam_objective(1e308, 1e308, CASE_A_CH, unit)


def test_solution_rate_unit_passthrough():
    sol_bits = solve_jamming(CASE_A_CH, "bits")
    sol_nats = solve_jamming(CASE_A_CH, "nats")
    assert sol_bits.p2 == sol_nats.p2
    assert sol_nats.secrecy_rate == pytest.approx(
        sol_bits.secrecy_rate * math.log(2), abs=1e-12)


def test_jamming_solution_json_document():
    doc = solve_jamming(CASE_A_CH).to_json_dict(permutation=(1, 0))
    assert doc["powers"] == [10.0, pytest.approx(A_ROOT, abs=1e-12)]
    assert doc["branch"] == "InteriorRoot"
    assert doc["case_tag"] == "A"
    assert doc["permutation"] == [2, 1]
    assert doc["rate_unit"] == "bits"


def _mp_p_hi(h1, h2, p1):
    """``p_hi`` from its defining expression in 80-digit arithmetic."""
    with mpmath.workdps(80):
        h1, h2, p1 = (mpmath.mpf(x) for x in (h1, h2, p1))
        disc = h1 * h2 * ((h2 - 1) + (h2 - h1) * p1) * (h2 - 1)
        return (-h2 * (1 - h1) + mpmath.sqrt(disc)) / (h2 * (h2 - h1))


def _clamped(p_hi, p2_max):
    """The jamming power and branch of a root clamped to [0, p2_max]."""
    if p_hi <= 0:
        return 0.0, "NoJam"
    if p_hi <= p2_max:
        return p_hi, "InteriorRoot"
    return p2_max, "FullJam"


BANDS = [1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-9, 1e-6, 1e-3, 1e-1]


@pytest.mark.parametrize("band", BANDS)
def test_p_hi_is_accurate_near_the_case_a_threshold(band):
    """Just around p1 = (1 - h1*h2) / (h1*(h2 - 1)) the two terms of the
    root's numerator cancel; the root must still be within 1e-14 relative
    of an 80-digit evaluation, also for h2 within 1e-9 of 1."""
    gen = rng(48)
    for _ in range(100):
        h1 = float(gen.uniform(0.01, 0.99))
        h2 = 1.0 + (1.0 / h1 - 1.0) * 10.0 ** float(gen.uniform(-9, -1e-3))
        threshold = (1.0 - h1 * h2) / (h1 * (h2 - 1.0))
        p1 = threshold * (1.0 + band * float(gen.choice((-1, 1)) * gen.uniform(1, 2)))
        ch = TwoUserChannel(h1=h1, h2=h2, p1_max=p1, p2_max=1e300)
        exact = _mp_p_hi(h1, h2, p1)
        p_hi = jam_roots(p1, ch)[2]
        assert abs(p_hi - exact) <= 1e-14 * abs(exact), (h1, h2, p1)
        sol = solve_jamming(ch)
        assert (sol.p2, sol.branch) == _clamped(p_hi, ch.p2_max)
        assert sol.branch == ("NoJam" if exact <= 0 else "InteriorRoot")


@pytest.mark.parametrize("band", BANDS)
def test_case_b_near_the_silence_threshold(band):
    """Around p2_max = (h1 - 1) / (h2 - h1) the solution switches from
    silence to jamming at the exact threshold, and the jamming power
    beyond it matches an 80-digit evaluation of the clamped root."""
    gen = rng(49)
    for _ in range(100):
        h1 = float(gen.uniform(1.0, 1.9))
        h2 = h1 + float(10.0 ** gen.uniform(-6, 0))
        with mpmath.workdps(80):
            threshold = (mpmath.mpf(h1) - 1) / (mpmath.mpf(h2) - h1)
        p2_max = float(threshold) * (1.0 + band * float(gen.choice((-1, 1)) * gen.uniform(1, 2)))
        ch = TwoUserChannel(h1=h1, h2=h2, p1_max=float(gen.uniform(1e-3, 20)), p2_max=p2_max)
        sol = solve_jamming(ch)
        if p2_max <= threshold:
            assert (sol.p1, sol.p2, sol.secrecy_rate, sol.branch) == (0.0, 0.0, 0.0, "AllSilent")
            continue
        exact = _mp_p_hi(h1, h2, ch.p1_max)
        p2, branch = _clamped(exact, p2_max)
        assert (sol.p1, sol.branch, sol.case_tag) == (ch.p1_max, branch, "B")
        assert abs(sol.p2 - p2) <= 1e-14 * p2, (ch, sol)


def test_p_hi_is_accurate_at_extreme_magnitudes():
    """Gains and powers from 1e-300 to 1e300 (each user's received powers
    finite, as ``StandardChannel`` requires), where the discriminant, the
    parabola's coefficients or ``h1 * h2 * p1`` overflow: the root, the
    clamp and the rate stay finite and match an 80-digit evaluation."""
    gen = rng(50)
    checked = 0
    while checked < 400:
        if checked % 2 == 0:  # case A
            h1 = float(10.0 ** gen.uniform(-300, 0) * gen.uniform(0, 1))
            h2 = 1.0 + float(10.0 ** gen.uniform(-16, 300))
        else:  # case B
            h1 = 1.0 + float(10.0 ** gen.uniform(-16, 300))
            h2 = h1 * (1.0 + float(10.0 ** gen.uniform(-11, 5)))
        p1, p2 = (float(10.0 ** gen.uniform(-300, 308)) for _ in range(2))
        received = (h1 * p1, h2 * p2, h1 * p1 + h2 * p2, p1 + p2)
        if not (h1 < h2 and all(map(math.isfinite, (h2, *received)))):
            continue
        checked += 1
        ch = TwoUserChannel(h1=h1, h2=h2, p1_max=p1, p2_max=p2)
        sol = solve_jamming(ch)
        assert math.isfinite(sol.secrecy_rate) and sol.secrecy_rate >= 0.0
        if sol.branch == "AllSilent":
            assert p2 <= silence_threshold(ch)
            continue
        exact = _mp_p_hi(h1, h2, p1)
        assert abs(jam_roots(p1, ch)[2] - exact) <= 1e-14 * abs(exact), ch
        p2_exact, branch = _clamped(exact, p2)
        assert sol.branch == branch, (ch, sol)
        assert abs(sol.p2 - p2_exact) <= 1e-14 * p2_exact, (ch, sol)


@pytest.mark.parametrize("ch", [CASE_A_CH, CASE_B_CH])
def test_a_root_at_the_cap_is_interior(ch):
    """The one clamp labels p_hi == p2_max an interior root in both cases."""
    p_hi = jam_roots(ch.p1_max, ch)[2]
    sol = solve_jamming(TwoUserChannel(ch.h1, ch.h2, ch.p1_max, p_hi))
    assert (sol.p2, sol.branch) == (p_hi, "InteriorRoot")


def _extreme_channels():
    """The channels of ``test_p_hi_is_accurate_at_extreme_magnitudes``,
    drawn the same way, and a case-A channel whose ``a = h2 (h2 - h1)``
    and discriminant overflow, from ``StandardChannel(h=(0.5, 1e200),
    p_max=(1, 1))``."""
    gen = rng(50)
    channels = []
    while len(channels) < 400:
        if len(channels) % 2 == 0:  # case A
            h1 = float(10.0 ** gen.uniform(-300, 0) * gen.uniform(0, 1))
            h2 = 1.0 + float(10.0 ** gen.uniform(-16, 300))
        else:  # case B
            h1 = 1.0 + float(10.0 ** gen.uniform(-16, 300))
            h2 = h1 * (1.0 + float(10.0 ** gen.uniform(-11, 5)))
        p1, p2 = (float(10.0 ** gen.uniform(-300, 308)) for _ in range(2))
        received = (h1 * p1, h2 * p2, h1 * p1 + h2 * p2, p1 + p2)
        if h1 < h2 and all(map(math.isfinite, (h2, *received))):
            channels.append(TwoUserChannel(h1=h1, h2=h2, p1_max=p1, p2_max=p2))
    two, _ = TwoUserChannel.from_standard(StandardChannel(h=(0.5, 1e200), p_max=(1, 1)))
    return channels + [two]


def test_p_lo_is_finite_and_accurate_at_extreme_magnitudes():
    """``p_lo`` is finite wherever its 60-digit value is a finite float,
    also where the discriminant overflows, and within 1e-15 relative of
    it (the largest error on these draws is 6.2e-16)."""
    for ch in _extreme_channels():
        with mpmath.workdps(60):
            h1, h2, p1 = (mpmath.mpf(x) for x in (ch.h1, ch.h2, ch.p1_max))
            disc = h1 * h2 * ((h2 - 1) + (h2 - h1) * p1) * (h2 - 1)
            exact = (-h2 * (1 - h1) - mpmath.sqrt(disc)) / (h2 * (h2 - h1))
        assert abs(exact) <= 1.7976931348623157e308
        _, p_lo, _ = jam_roots(ch.p1_max, ch)
        assert math.isfinite(p_lo), ch
        assert abs(p_lo - exact) <= 1e-15 * abs(exact), (ch, p_lo, float(exact))


def test_p_lo_and_p2_stationarity_where_the_discriminant_overflows():
    two = _extreme_channels()[-1]
    disc, p_lo, p_hi = jam_roots(1.0, two)
    assert disc == math.inf
    assert p_lo == pytest.approx(-1e-100, rel=1e-15)
    assert p_hi == pytest.approx(1e-100, rel=1e-15)
    # p1 * h2 * (h2 - h1) = 1e400 exceeds the float range; its sign is right
    assert p2_stationarity(1.0, 0.5, two) == math.inf
