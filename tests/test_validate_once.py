"""The closed forms validate their inputs once, at the boundary
(``StandardChannel.__init__`` for a channel, ``region._finite_powers`` for
a power vector), and trust the values derived from them.

Two kinds of test keep it so.  The guard tests count the checks that
``max_sum_rate``, ``is_feasible`` and the degenerate jamming branch run.
The property tests compare them with test-local copies of their earlier
forms, which sorted through a rebuilt ``StandardChannel``, checked the
powers again before taking the sum rate, sorted by a Python key per
user, and stopped the sum-rate scan on a second rule, a gain ``>= 1 -
PRUNE_TOL``; the sum rate itself is the one rate kernel's formula, ``C(N / D)``
with ``N = sum P_k (1 - h_k)`` and ``D = 1 + sum h_k P_k``, as
``channel._secrecy_rate`` takes it.  Every float is compared by
``float.hex``, so a sum formed in another order shows.  A verdict shows it only at a slack of about 0, so the draws make
some: users at gain 1 and full power, whose prefix slack is a sum minus
the same sum, and a user whose gain is 1 plus the other users' sum, at a
power that makes its slack 0.  Large powers then make a rounding step far
larger than FEASIBILITY_TOL, so a prefix or suffix sum formed in another
order flips the verdict.
"""

import math
from itertools import accumulate

from hypothesis import assume, given, settings, strategies as st

from gmacwt import StandardChannel, is_feasible, max_sum_rate, region
from gmacwt.jamming import BRANCH_NO_JAM, CASE_DEGENERATE, TwoUserChannel, solve_jamming
from gmacwt.region import FEASIBILITY_TOL
from gmacwt.sumrate import TIE_TOL

from helpers import awgn_capacity

#: The earlier scan's second stopping rule: a gain ``>= 1 - PRUNE_TOL`` is
#: silent.  The tie rule implies it, which the bit identity tests check.
PRUNE_TOL = 1e-12

GAINS = st.one_of(st.just(0.0), st.just(1.0), st.just(1.0 - PRUNE_TOL),
                  st.floats(1.0 - 1e-9, 1.0 + 1e-9), st.floats(0.0, 1.0), st.floats(0.0, 4.0))


def _full_mantissa(low, high):
    """Floats in ``[2^low, 2^(high + 1))`` with all 53 mantissa bits drawn:
    their sums round (hypothesis favours short floats, which add exactly)."""
    return st.builds(math.ldexp, st.integers(2 ** 52, 2 ** 53 - 1), st.integers(low - 52, high - 52))


CAPS = st.one_of(st.just(0.0), st.just(5e-324), st.just(1e300),
                 st.floats(1e-6, 1e6), st.floats(0.0, 1e300),
                 _full_mantissa(-4, 20), _full_mantissa(-100, 990))
UNITS = st.sampled_from(("bits", "nats"))
#: A power inside the box, as a share of its cap.
SHARES = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def channels(draw, max_users=16):
    """Half of the channels give every user one gain: all ties, and with
    gain 1 a full set whose slack is exactly 0 when both sums add their
    terms in the same order."""
    k = draw(st.integers(1, max_users))
    if draw(st.booleans()):
        h = [draw(GAINS)] * k
    else:
        h = draw(st.lists(GAINS, min_size=k, max_size=k))
    return StandardChannel(h=h, p_max=draw(st.lists(CAPS, min_size=k, max_size=k)),
                           rate_unit=draw(UNITS))


@st.composite
def channel_and_powers(draw):
    """Powers inside the box, but for one user in four cases: negative
    or above its cap."""
    ch = draw(channels())
    shares = draw(st.lists(SHARES, min_size=ch.num_users, max_size=ch.num_users))
    powers = [c * s for c, s in zip(ch.p_max, shares)]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, ch.num_users - 1))
        powers[k] = draw(st.sampled_from((-0.5, -5e-324, 1.5 * powers[k] + 1e-300)))
    return ch, tuple(powers)


# --- the earlier forms --------------------------------------------------


def _kernel_sum_secrecy_rate(powers, ch):
    """``0.5 * log1p(N / D)`` in the channel's unit, or the difference of
    the two capacities where ``N / D < -1/2`` or ``N`` or ``D`` overflowed."""
    main = tap = gap = 0.0  # added in user order (the builtin sum compensates from 3.12 on)
    for h, v in zip(ch.h, powers):
        main += float(v)
        tap += h * float(v)
        gap += float(v) * (1.0 - h)
    x = gap / (1.0 + tap) + 0.0
    if not (-0.5 <= x < math.inf and 1.0 + tap < math.inf):
        return awgn_capacity(main, ch.rate_unit) - awgn_capacity(tap, ch.rate_unit)
    nats = 0.5 * math.log1p(x)
    return nats / math.log(2) if ch.rate_unit == "bits" else nats


def _earlier_max_sum_rate(ch):
    perm = tuple(sorted(range(ch.num_users), key=lambda k: (ch.h[k], k)))
    ordered = StandardChannel(h=tuple(ch.h[k] for k in perm),
                              p_max=tuple(ch.p_max[k] for k in perm), rate_unit=ch.rate_unit)
    h, p_max = ordered.h, ordered.p_max
    num = den = 1.0
    limit = 0
    for j in range(len(h)):
        if h[j] >= 1.0 - PRUNE_TOL or h[j] >= (num / den) * (1.0 - TIE_TOL):
            break
        num += h[j] * p_max[j]
        den += p_max[j]
        limit = j + 1
    powers = [0.0] * ch.num_users
    for j in range(limit):
        powers[perm[j]] = p_max[j]
    powers = tuple(powers)
    return powers, limit, _kernel_sum_secrecy_rate(powers, ch), num / den, ch.rate_unit


def _earlier_is_feasible(powers, ch):
    p = tuple(float(x) for x in powers)
    for k, v in enumerate(p):
        if v < 0 or v > ch.p_max[k]:
            return False, ("bound", (k,))
    order = sorted(range(ch.num_users), key=lambda k: -ch.h[k])
    ps, hps = [p[k] for k in order], [ch.h[k] * p[k] for k in order]
    c_hp = list(accumulate(reversed(hps[1:]), initial=0.0))[::-1]
    violated = [s_p - s_hp / (1.0 + c) < -FEASIBILITY_TOL
                for s_p, s_hp, c in zip(accumulate(ps), accumulate(hps), c_hp)]
    if any(violated):
        return False, ("subset", tuple(sorted(order[:violated.index(True) + 1])))
    return True, None


def _hex(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


# --- bit identity -------------------------------------------------------


def _check_max_sum_rate(ch):
    sol = max_sum_rate(ch)
    powers, limit, rate, ratio, unit = _earlier_max_sum_rate(ch)
    assert _hex(sol.powers) == _hex(powers)
    assert all(type(p) is float for p in sol.powers)
    assert sol.limiting_user == limit
    assert _hex([sol.sum_rate, sol.snr_ratio]) == _hex([rate, ratio])
    assert sol.rate_unit == unit


def _check_is_feasible(powers, ch):
    ok, witness = is_feasible(powers, ch)
    assert (ok, None if witness is None else (witness.kind, witness.users)) \
        == _earlier_is_feasible(powers, ch)


@settings(max_examples=400, deadline=None)
@given(channels())
def test_max_sum_rate_is_bit_identical_to_its_earlier_form(ch):
    _check_max_sum_rate(ch)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 0.1), _full_mantissa(0, 8)), min_size=3, max_size=16),
       UNITS)
def test_max_sum_rate_is_bit_identical_when_many_users_transmit(users, unit):
    """Low gains admit most users, so the sum rate adds many powers whose
    sum rounds differently in another order."""
    h, p = zip(*users)
    _check_max_sum_rate(StandardChannel(h=h, p_max=p, rate_unit=unit))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0 - PRUNE_TOL, exclude_max=True), max_size=8),
       st.one_of(st.just(1.0 - PRUNE_TOL), st.floats(1.0 - PRUNE_TOL, 1.0, exclude_max=True)),
       CAPS, UNITS)
def test_max_sum_rate_silences_a_gain_near_1_at_a_ratio_of_exactly_1(gains, top, cap, unit):
    """Users at zero cap are admitted and keep the ratio at exactly 1.0, so
    the tie threshold is ``1.0 * (1 - TIE_TOL)``, the earlier prune
    threshold itself: a gain at it or above it stays silent."""
    ch = StandardChannel(h=(*gains, top), p_max=(0.0,) * len(gains) + (cap,), rate_unit=unit)
    _check_max_sum_rate(ch)
    sol = max_sum_rate(ch)
    assert (sol.limiting_user, sol.snr_ratio, sol.powers[-1]) == (len(gains), 1.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), _full_mantissa(-4, 20)),
                min_size=1, max_size=8),
       CAPS, UNITS)
def test_max_sum_rate_admits_a_gain_one_ulp_below_the_tie_threshold(users, cap, unit):
    """After some admissions, a gain one ulp below ``ratio * (1 - TIE_TOL)``
    is admitted and a gain at it stays silent, under both forms."""
    h, p = zip(*users)
    sol = max_sum_rate(StandardChannel(h=h, p_max=p, rate_unit=unit))
    edge = sol.snr_ratio * (1.0 - TIE_TOL)
    below = math.nextafter(edge, 0.0)
    assume(all(g < below for g, v in zip(h, sol.powers) if v > 0.0))
    for gain, admitted in ((below, 1), (edge, 0)):
        ch = StandardChannel(h=(*h, gain), p_max=(*p, cap), rate_unit=unit)
        _check_max_sum_rate(ch)
        assert max_sum_rate(ch).limiting_user == sol.limiting_user + admitted


@settings(max_examples=600, deadline=None)
@given(channel_and_powers())
def test_is_feasible_is_bit_identical_to_its_earlier_form(case):
    ch, powers = case
    _check_is_feasible(powers, ch)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((0.0, 1.0)), _full_mantissa(20, 28)),
                min_size=2, max_size=16),
       UNITS)
def test_is_feasible_is_bit_identical_at_gain_1(users, unit):
    """Users at gain 1 and full power: the slack of their prefix is a sum
    minus the same sum, exactly 0 only if both add in the same order."""
    h, p = zip(*users)
    _check_is_feasible(p, StandardChannel(h=h, p_max=p, rate_unit=unit))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 0.99), _full_mantissa(-2, 2)), min_size=2, max_size=15),
       UNITS)
def test_is_feasible_is_bit_identical_at_a_zero_suffix_slack(others, unit):
    """A first user with gain ``1 + c``, ``c`` the others' ``h_k P_k``
    summed as the suffix sums are (lowest gain first), at power 2^40:
    its slack is exactly 0, and a suffix sum formed in another order
    moves it by about 2^-12, far past FEASIBILITY_TOL."""
    h, p = zip(*others)
    c = 0.0
    for k in sorted(range(len(h)), key=lambda k: (h[k], -k)):
        c += h[k] * p[k]
    _check_is_feasible((2.0 ** 40, *p),
                       StandardChannel(h=(1.0 + c, *h), p_max=(2.0 ** 40, *p), rate_unit=unit))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1.0 - 1e-9, 1.0, exclude_max=True),
                          st.floats(0.0, 1.0, exclude_max=True)), min_size=2, max_size=2),
       st.lists(CAPS, min_size=2, max_size=2), UNITS)
def test_degenerate_jamming_is_bit_identical_to_its_earlier_form(gains, caps, unit):
    h1, h2 = sorted(gains)
    sol = solve_jamming(TwoUserChannel(h1, h2, *caps), unit)
    powers, _, rate, _, _ = _earlier_max_sum_rate(
        StandardChannel(h=(h1, h2), p_max=caps, rate_unit=unit))
    assert _hex([sol.p1, sol.p2, sol.secrecy_rate]) == _hex([*powers, rate])
    assert (sol.branch, sol.case_tag, sol.rate_unit) == (BRANCH_NO_JAM, CASE_DEGENERATE, unit)


# --- guards -------------------------------------------------------------


def _count_checks(monkeypatch):
    """Count ``StandardChannel`` constructions and power-vector checks."""
    counts = {"channels": 0, "powers": 0}
    init, finite_powers = StandardChannel.__init__, region._finite_powers

    def counting_init(self, *args, **kwargs):
        counts["channels"] += 1
        init(self, *args, **kwargs)

    def counting_finite_powers(powers, ch):
        counts["powers"] += 1
        return finite_powers(powers, ch)

    monkeypatch.setattr(StandardChannel, "__init__", counting_init)
    monkeypatch.setattr(region, "_finite_powers", counting_finite_powers)
    return counts


CHANNELS = [
    StandardChannel(h=(0.3,), p_max=(2.0,)),
    StandardChannel(h=(0.9, 0.1, 1.4, 0.5, 1.0), p_max=(3.0, 1.0, 2.0, 5.0, 4.0)),
    StandardChannel(h=[0.07 * k for k in range(16)], p_max=[1.0 + k for k in range(16)],
                    rate_unit="nats"),
]


def test_max_sum_rate_builds_no_channel_and_checks_no_powers(monkeypatch):
    counts = _count_checks(monkeypatch)
    for ch in CHANNELS:
        assert max_sum_rate(ch).limiting_user > 0
    assert counts == {"channels": 0, "powers": 0}


def test_is_feasible_builds_no_channel_and_checks_the_powers_once(monkeypatch):
    counts = _count_checks(monkeypatch)
    kinds = []
    for ch in CHANNELS:
        worst = max(range(ch.num_users), key=ch.h.__getitem__)
        alone = [p if k == worst else 0.0 for k, p in enumerate(ch.p_max)]
        for powers in (ch.p_max, alone, [-1.0] * ch.num_users, [2 * p for p in ch.p_max]):
            _, witness = is_feasible(powers, ch)
            kinds.append(None if witness is None else witness.kind)
    assert {None, "bound", "subset"} <= set(kinds)
    assert counts == {"channels": 0, "powers": len(kinds)}


def test_degenerate_jamming_builds_one_channel_at_its_boundary(monkeypatch):
    counts = _count_checks(monkeypatch)
    sol = solve_jamming(TwoUserChannel(0.2, 0.6, 3.0, 1.0))
    assert sol.case_tag == CASE_DEGENERATE and math.isfinite(sol.secrecy_rate)
    assert counts == {"channels": 1, "powers": 0}
