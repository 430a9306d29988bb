"""Shared builders for randomized tests, and the 50-digit references of
the secrecy rates (which ``scripts/accuracy_gate.py`` reads too)."""

import mpmath
import numpy as np

from gmacwt import StandardChannel, TwoUserChannel, is_feasible


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
