"""Shared builders for randomized tests, the float references that the
tests check the library against, and the 50-digit references of the
secrecy rates (which ``scripts/accuracy_gate.py`` reads too)."""

import math

import mpmath
import numpy as np

from gmacwt import StandardChannel, TwoUserChannel, is_feasible
from gmacwt.channel import _capacity, _Record, setfield
from gmacwt.jamming import _p_hi


def rng(seed):
    return np.random.default_rng(seed)


def random_channel(gen, k, h_low=0.0, h_high=2.0, p_high=20.0, unit="bits"):
    return StandardChannel(
        h=tuple(gen.uniform(h_low, h_high, k)),
        p_max=tuple(gen.uniform(0.0, p_high, k)),
        rate_unit=unit)


def random_box_powers(gen, ch):
    return tuple(gen.uniform(0.0, p) for p in ch.p_max)


def random_feasible_powers(gen, ch, attempts=200):
    for _ in range(attempts):
        powers = random_box_powers(gen, ch)
        if is_feasible(powers, ch)[0]:
            return powers
    return tuple(0.0 for _ in ch.p_max)


def tampered(sol, **change):
    """A solution record ``sol`` with the fields in ``change`` replaced."""
    return type(sol)(**{**{f: getattr(sol, f) for f in type(sol).__slots__}, **change})


def random_case_a(gen, p_low=0.0, p_high=20.0):
    h1 = gen.uniform(0.02, 0.98)
    h2 = gen.uniform(1.0, 2.0)
    return TwoUserChannel(
        h1=h1, h2=h2,
        p1_max=gen.uniform(p_low, p_high),
        p2_max=gen.uniform(p_low, p_high))


def random_case_b(gen, p_low=0.0, p_high=20.0):
    h1 = gen.uniform(1.001, 1.9)
    h2 = h1 + gen.uniform(0.05, 1.0)
    return TwoUserChannel(
        h1=h1, h2=h2,
        p1_max=gen.uniform(p_low, p_high),
        p2_max=gen.uniform(p_low, p_high))


# --- float references ------------------------------------------------
#
# Written from the paper's definitions, one subset or one point at a time,
# for inputs the caller trusts: nothing is checked.  The per-subset sums add
# their terms from the highest index down, as the sum table in
# ``region._bounds`` does, so the sums equal the table's bit for bit.


def awgn_capacity(snr, unit="bits"):
    """Capacity ``0.5 * log(1 + snr)`` of a unit-noise Gaussian channel,
    in bits (log base 2) or nats."""
    return _capacity(snr, unit)


def _scalar_sums(subset, powers, ch):
    """Sums of ``P_k`` and ``h_k P_k`` over ``subset`` and over its
    complement, ``[s_p, s_hp, c_p, c_hp]``, equal to the table's entries."""
    users = set(subset)
    sums = [0.0] * 4
    for k in reversed(range(ch.num_users)):
        side = 0 if k in users else 2
        sums[side] += powers[k]
        sums[side + 1] += ch.h[k] * powers[k]
    return sums


class SubsetRates(_Record):
    """Receiver- and eavesdropper-side capacities of one user subset.

    ``main``/``tap`` assume the complement's signals have been removed;
    ``main_intf``/``tap_intf`` treat them as additional noise.  For the
    full user set the two pairs coincide.
    """

    __slots__ = ("main", "tap", "main_intf", "tap_intf")

    def __init__(self, main, tap, main_intf, tap_intf):
        setfield(self, "main", main)
        setfield(self, "tap", tap)
        setfield(self, "main_intf", main_intf)
        setfield(self, "tap_intf", tap_intf)


def subset_rates(subset, powers, ch):
    """The four capacity quantities of ``subset`` at powers ``powers``."""
    s_p, s_hp, c_p, c_hp = _scalar_sums(subset, powers, ch)
    unit = ch.rate_unit
    return SubsetRates(
        main=awgn_capacity(s_p, unit),
        tap=awgn_capacity(s_hp, unit),
        main_intf=awgn_capacity(s_p / (1.0 + c_p), unit),
        tap_intf=awgn_capacity(s_hp / (1.0 + c_hp), unit))


def secrecy_slack(subset, powers, ch):
    """Feasibility margin of ``subset``:
    ``sum(P_k, S) - sum(h_k P_k, S) / (1 + sum(h_k P_k, S^c))``.

    Its sign equals the sign of ``main(S) - tap_intf(S)``, i.e. of the
    subset's secrecy rate bound.
    """
    s_p, s_hp, _, c_hp = _scalar_sums(subset, powers, ch)
    return s_p - s_hp / (1.0 + c_hp)


def classify_two_user_shape(b1, b2, b12):
    """Shape of ``{R >= 0, R1 <= b1, R2 <= b2, R1 + R2 <= b12}``.

    "rectangle" when the sum bound is slack, "triangle" when only the sum
    bound is active, "quadrilateral" when exactly one individual bound is
    also active, "pentagon" when all three are.
    """
    if b12 >= b1 + b2:
        return "rectangle"
    if b12 <= min(b1, b2):
        return "triangle"
    if b12 <= max(b1, b2):
        return "quadrilateral"
    return "pentagon"


def snr_ratio(powers, ch):
    """Eavesdropper-to-receiver total-SNR ratio
    ``(1 + sum h_k P_k) / (1 + sum P_k)``.

    Minimizing it over the allowable power set maximizes the sum secrecy
    rate; it equals 1 at zero power.
    """
    return (1.0 + sum(h * v for h, v in zip(ch.h, powers))) / (1.0 + sum(powers))


def prune_bad_users(powers, ch):
    """Zero the power of every user with ``h_k >= 1`` (within 1e-12).

    Never increases the SNR ratio, and leaves an allocation that is
    feasible whenever the surviving users all have ``h_k < 1``.
    """
    return tuple(0.0 if h >= 1.0 - 1e-12 else v for h, v in zip(ch.h, powers))


def p1_stationarity(p2, ch):
    """Numerator ``-(1 + h2*p2) * ((1 - h1) + (h2 - h1)*p2)`` of the
    jamming objective's partial derivative in ``p1``.

    Negative forces ``p1 = p1_max``, positive forces ``p1 = 0``, zero
    leaves ``p1`` indifferent.  Always negative when ``h1 < 1 <= h2``.
    """
    return -(1.0 + ch.h2 * p2) * ((1.0 - ch.h1) + (ch.h2 - ch.h1) * p2)


def jam_roots(p1, ch):
    """Discriminant and roots of the jamming stationarity parabola in
    ``p2`` at transmit power ``p1``, for ``h2 > h1`` and ``h2 >= 1``.

    Returns ``(disc, p_lo, p_hi)``: ``disc >= 0``, inf where its true value
    exceeds the float range, and ``p_lo <= p_hi``, the candidate interior
    jamming power, which ``solve_jamming`` takes from ``jamming._p_hi``.
    ``p_lo`` is ``-2 b / a - p_hi`` for ``h1 < 1``, where it is negative,
    else ``-c / (a p_hi)`` in integers (Vieta; see ``_p_hi``).
    """
    p1, h1, h2 = float(p1), ch.h1, ch.h2
    disc, p_hi = h1 * h2 * ((h2 - 1.0) + (h2 - h1) * p1) * (h2 - 1.0), _p_hi(p1, h1, h2)
    if h1 < 1.0 or not 0.0 < p_hi < math.inf:  # -2 b / a <= 0; a p_hi < 0 is at most half
        return disc, -2.0 * (1.0 - h1) / (h2 - h1) - p_hi, p_hi
    (n1, d1), (n2, d2), (n3, d3), (n4, d4) = map(float.as_integer_ratio, (h1, h2, p1, p_hi))
    return disc, (d1*d2*d3 - n1*(n2*d3 + (n2-d2)*n3))*d2*d4 / (d3*n2*(n2*d1 - n1*d2)*n4), p_hi


def p2_stationarity(p1, p2, ch):
    """Numerator ``p1*h2*(h2-h1)*(p2-p_hi)*(p2-p_lo)`` of the jamming
    objective's partial derivative in ``p2`` (an upright parabola; the
    objective increases strictly between the roots and decreases outside)."""
    _, p_lo, p_hi = jam_roots(p1, ch)
    return p1 * ch.h2 * (ch.h2 - ch.h1) * (p2 - p_hi) * (p2 - p_lo)


def no_jam_power_threshold(ch):
    """Largest ``p1_max`` for which jamming cannot help in case A
    (``h1 < 1 <= h2``, where ``p_hi <= 0``), i.e.
    ``(1 - h1*h2) / (h1 * (h2 - 1))``.

    Zero when ``h1*h2 >= 1`` (the jammer always helps) and infinite when
    ``h2 == 1`` or ``h1 == 0`` (it never does).
    """
    if ch.h1 * ch.h2 >= 1.0:
        return 0.0
    if ch.h2 == 1.0 or ch.h1 == 0.0:
        return math.inf
    return (1.0 - ch.h1 * ch.h2) / (ch.h1 * (ch.h2 - 1.0))


# --- 50-digit references ----------------------------------------------


def gain(gen, low, high):
    """One time in three, within 10^low..10^high of 1, below or above at
    even odds; else uniform on [0, 2]."""
    if gen.integers(3) == 0:
        return 1.0 + float(gen.choice((-1, 1))) * 10.0 ** gen.uniform(low, high)
    return float(gen.uniform(0.0, 2.0))


def cap(gen):
    """A power cap, log-uniform on 10^-3..10^3."""
    return float(10.0 ** gen.uniform(-3, 3))


def mp_secrecy_rate(a, c_m, b, c_t, unit):
    """``C(a / (1 + c_m)) - C(b / (1 + c_t))`` at 50 digits, from floats or
    50-digit sums."""
    with mpmath.workdps(50):
        a, c_m, b, c_t = (mpmath.mpf(v) for v in (a, c_m, b, c_t))
        nats = (mpmath.log1p(a / (1 + c_m)) - mpmath.log1p(b / (1 + c_t))) / 2
        return nats / mpmath.log(2) if unit == "bits" else nats


def mp_subset_rate(h, p, users, unit):
    """The bound of ``users`` at gains ``h`` and powers ``p``, ``C(P_S) -
    C(hP_S / (1 + hP_{S^c}))``, from the floats at 50 digits; with every
    user, the sum rate."""
    with mpmath.workdps(50):
        hp = [mpmath.mpf(g) * mpmath.mpf(v) for g, v in zip(h, p)]
        others = [k for k in range(len(h)) if k not in users]
        return mp_secrecy_rate(sum(mpmath.mpf(p[k]) for k in users), 0,
                               sum(hp[k] for k in users), sum(hp[k] for k in others), unit)


def mp_jam_objective(h1, h2, p1, p2, unit):
    """User 1's secrecy rate under a jamming power ``p2``, ``C(p1 / (1 +
    p2)) - C(h1 p1 / (1 + h2 p2))``, from the floats at 50 digits."""
    with mpmath.workdps(50):
        h1, h2, p1, p2 = (mpmath.mpf(v) for v in (h1, h2, p1, p2))
        return mp_secrecy_rate(p1, p2, h1 * p1, h2 * p2, unit)


def rel_error(value, exact):
    """``|value - exact| / |exact|``, formed at 50 digits (0 where equal)."""
    if value == exact:
        return 0.0
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(value) - exact) / abs(exact))
