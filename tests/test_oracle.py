import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmacwt import (
    GridSpec,
    InternalError,
    StandardChannel,
    TwoUserChannel,
    ValidationError,
    grid_max_jamming,
    grid_max_sum_rate,
    max_sum_rate,
    oracle,
    solve_jamming,
    union_sweep,
    verify_jamming,
    verify_sum_rate,
)
from gmacwt.channel import MAX_GRID_POINTS, _capacities
from gmacwt.oracle import _BLOCK_ENTRIES, _axis_blocks
from gmacwt.region import FEASIBILITY_TOL, _grid_axis

from helpers import random_case_a, random_case_b, random_channel, rng, tampered


def test_grid_spec_validation():
    with pytest.raises(ValidationError, match="steps_per_axis"):
        GridSpec(steps_per_axis=1)


def test_grid_sum_rate_finds_the_corner():
    ch = StandardChannel(h=(0.1, 0.2), p_max=(10, 10))
    powers, rate = grid_max_sum_rate(ch, GridSpec(steps_per_axis=11))
    assert powers == (10.0, 0.0)
    assert rate == pytest.approx(1.2297158093186486, abs=1e-12)
    assert rate == pytest.approx(max_sum_rate(ch).sum_rate, abs=1e-9)


def test_grid_sum_rate_zero_cap():
    ch = StandardChannel(h=(0.1, 0.2), p_max=(0, 0))
    assert grid_max_sum_rate(ch, GridSpec(steps_per_axis=5)) == ((0.0, 0.0), 0.0)


def test_grid_sum_rate_all_bad_users():
    ch = StandardChannel(h=(2, 2), p_max=(5, 5))
    powers, rate = grid_max_sum_rate(ch, GridSpec(steps_per_axis=6))
    assert powers == (0.0, 0.0)
    assert rate == 0.0


def test_grid_sum_rate_size_cap():
    ch = StandardChannel(h=(0.5,) * 5, p_max=(10.0,) * 5)
    with pytest.raises(ValidationError, match="steps_per_axis"):
        grid_max_sum_rate(ch, GridSpec(steps_per_axis=100))


def test_grid_jamming_brackets_the_interior_root():
    ch = TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=10)
    p1, p2, rate = grid_max_jamming(ch, GridSpec(steps_per_axis=1001))
    step = 10 / 1000
    assert p1 == 10.0
    assert abs(p2 - 0.49021623019079503) <= step
    assert rate == pytest.approx(0.59659250286014471, abs=1e-5)
    assert rate <= solve_jamming(ch).secrecy_rate + 1e-12


def test_grid_jamming_case_b_all_silent():
    ch = TwoUserChannel(h1=1.2, h2=1.4, p1_max=10, p2_max=0.5)
    p1, p2, rate = grid_max_jamming(ch, GridSpec(steps_per_axis=501))
    assert rate == 0.0
    assert (p1, p2) == (0.0, 0.0)  # deterministic tie-break
    assert solve_jamming(ch).secrecy_rate == 0.0


def test_grid_jamming_zero_transmit_power():
    ch = TwoUserChannel(h1=0.4, h2=1.4, p1_max=0, p2_max=10)
    assert grid_max_jamming(ch, GridSpec(steps_per_axis=11)) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("p1_max", [10, 0])
def test_grid_jamming_refuses_a_bad_rate_unit(p1_max):
    ch = TwoUserChannel(h1=0.4, h2=1.4, p1_max=p1_max, p2_max=10)
    with pytest.raises(ValidationError, match="rate_unit: must be one of"):
        grid_max_jamming(ch, GridSpec(steps_per_axis=11), "dB")


def test_oracle_never_beats_closed_form():
    gen = rng(51)
    for _ in range(20):
        k = int(gen.integers(1, 5))
        ch = random_channel(gen, k)
        sol = max_sum_rate(ch)
        _, rate = grid_max_sum_rate(ch, GridSpec(steps_per_axis=7))
        assert rate <= sol.sum_rate + 1e-9
    for _ in range(20):
        ch = random_case_a(gen) if gen.random() < 0.5 else random_case_b(gen)
        _, _, rate = grid_max_jamming(ch, GridSpec(steps_per_axis=2001))
        assert rate <= solve_jamming(ch).secrecy_rate + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.one_of(st.floats(0.0, 4.0), st.floats(1.0 - 1e-9, 1.0 + 1e-9)),
             min_size=k, max_size=k),
    st.lists(st.floats(1e-6, 1e6), min_size=k, max_size=k))),
    st.integers(2, 6))
def test_grid_oracle_matches_the_closed_form(case, steps):
    """Every axis ends at p_max, so the closed form's optimum (each user at
    0 or p_max) is a grid point: the oracle's feasibility filter must keep
    it and admit no point above it, also for gains near 1 and caps far
    apart in magnitude."""
    h, p_max = case
    ch = StandardChannel(h=h, p_max=p_max)
    _, rate = grid_max_sum_rate(ch, GridSpec(steps_per_axis=steps))
    assert abs(rate - max_sum_rate(ch).sum_rate) <= 1e-9


def test_oracles_are_deterministic():
    gen = rng(52)
    ch = random_channel(gen, 3)
    spec = GridSpec(steps_per_axis=9)
    assert grid_max_sum_rate(ch, spec) == grid_max_sum_rate(ch, spec)
    two = random_case_a(gen)
    assert (grid_max_jamming(two, GridSpec(steps_per_axis=777))
            == grid_max_jamming(two, GridSpec(steps_per_axis=777)))


@pytest.mark.parametrize("oracle,ch", [
    (grid_max_sum_rate, StandardChannel(h=(0.1, 0.2), p_max=(10, 10))),
    (grid_max_jamming, TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=10)),
])
def test_grid_size_cap_is_checked_before_the_axes(oracle, ch):
    with pytest.raises(ValidationError, match="steps_per_axis"):
        oracle(ch, GridSpec(steps_per_axis=10**12))


def test_grid_sum_rate_memory_does_not_grow_with_the_grid():
    """Each block's points are built from their indices, so a grid of
    2,097,152 points (7 users, 8 steps) is searched in a few MB; building
    the whole grid first took 8 bytes per point and user twice over,
    about 235 MB here."""
    ch = StandardChannel(h=(0.3, 0.5, 0.9, 1.1, 0.2, 1.5, 0.7), p_max=(1, 2, 3, 4, 5, 6, 7))
    tracemalloc.start()
    try:
        grid_max_sum_rate(ch, GridSpec(steps_per_axis=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_one_user_grid_memory_does_not_grow_with_the_axis():
    """A one-user grid may hold all of MAX_GRID_POINTS on its one axis,
    which is built and searched a block at a time: 10^7 points in a few
    MB, where the whole axis alone is 80 MB."""
    ch = StandardChannel(h=(0.5,), p_max=(3.0,))
    tracemalloc.start()
    try:
        powers, _ = grid_max_sum_rate(ch, GridSpec(steps_per_axis=MAX_GRID_POINTS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert powers == (3.0,)
    assert peak < 16 * 2**20


B = _BLOCK_ENTRIES
EPS = sys.float_info.epsilon


def _flat_index_search(ch, steps):
    """The sum-rate oracle's search in one flat pass, as it was first
    written: every point built from its flat grid index (K divmods and K
    gathers), every sum on arrays of the whole grid, one ``argmax``.
    Returns the result and the rates, -inf where infeasible."""
    with np.errstate(over="ignore"):  # linspace forms (steps - 1) * step
        axes = [np.linspace(0.0, p, steps) for p in ch.p_max]
    axes = [a[np.append(True, np.diff(a) > 0)] for a in axes]
    shape = tuple(len(a) for a in axes)
    k = len(shape)
    rest = np.arange(int(np.prod(shape)))
    columns = [None] * k
    s_p = s_hp = 0.0
    for j in reversed(range(k)):
        rest, index = np.divmod(rest, shape[j])
        columns[j] = axes[j][index]
        s_p = s_p + columns[j]
        s_hp = s_hp + ch.h[j] * columns[j]
    rate = _capacities(s_p, ch.rate_unit) - _capacities(s_hp, ch.rate_unit)
    order = sorted(range(k), key=lambda j: -ch.h[j])
    p = [columns[j] for j in order]
    hp = [ch.h[j] * columns[j] for j in order]
    violated = np.zeros(rate.shape, dtype=bool)
    for j in range(k):  # the prefix order[:j + 1] against its complement
        a, b = p[0], hp[0]
        for i in range(1, j + 1):
            a, b = a + p[i], b + hp[i]
        c = 0.0
        for i in reversed(range(j + 1, k)):
            c = c + hp[i]
        violated |= a - b / (1.0 + c) < -FEASIBILITY_TOL
    rate[violated] = -np.inf
    i = int(rate.argmax())
    index = np.unravel_index(i, shape)
    return (tuple(float(a[n]) for a, n in zip(axes, index)), float(rate[i])), rate.reshape(shape)


def _sum_bits(result):
    powers, rate = result
    return [x.hex() for x in powers], rate.hex()


def _mixed_channel(gen, k, unit):
    """Gains below, near and above 1, one ulp from it among them; caps of
    every magnitude up to 1e300, 0 and subnormal-tiny among them (axes
    that repeat points and shrink).  Huge caps and gains within an ulp of
    1 are where rounding comes nearest to tying a feasible point with an
    infeasible one."""
    h = [float(gen.choice([gen.uniform(0.05, 0.95), gen.uniform(1.05, 4.0),
                           1.0 + gen.uniform(-1e-9, 1e-9), 0.0, 1.0 + EPS, 1.0 - EPS]))
         for _ in range(k)]
    p = [float(gen.choice([gen.uniform(0.5, 20.0), 10 ** gen.uniform(-6, 6), 0.0, 1e-310,
                           10 ** gen.uniform(6, 300)]))
         for _ in range(k)]
    return StandardChannel(h=h, p_max=p, rate_unit=unit)


# Steps on both sides of each change of the split: the sliced axis moves
# one place when steps ** (K - 1) crosses _BLOCK_ENTRIES, and for K = 1 the
# axis falls into a second block.
@pytest.mark.parametrize("k,steps", [
    (1, B - 1), (1, B), (1, B + 1), (1, 2 * B + 1), (2, 256), (2, 257), (2, 300),
    (3, 40), (3, 41), (4, 40), (4, 41), (5, 16), (5, 17), (6, 9), (6, 10), (7, 6), (7, 7)])
def test_sum_rate_oracle_equals_the_flat_index_search(k, steps):
    gen = rng(54 + 100 * k + steps)
    for unit in ("bits", "nats"):
        ch = _mixed_channel(gen, k, unit)
        expected, _ = _flat_index_search(ch, steps)
        assert _sum_bits(grid_max_sum_rate(ch, GridSpec(steps_per_axis=steps))) == _sum_bits(expected)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.sampled_from(["bits", "nats"]),
       st.sampled_from([3, 16, 64, 1000, B]), st.data())
def test_sum_rate_oracle_equals_the_flat_index_search_on_random_channels(
        k, seed, unit, block, data):
    """Small blocks put the split at every level on small grids."""
    steps = data.draw(st.integers(2, max(2, int(4000 ** (1 / k)))))
    ch = _mixed_channel(rng(seed), k, unit)
    expected, _ = _flat_index_search(ch, steps)
    with mock.patch.object(oracle, "_BLOCK_ENTRIES", block):
        result = grid_max_sum_rate(ch, GridSpec(steps_per_axis=steps))
    assert _sum_bits(result) == _sum_bits(expected)


def test_sum_rate_oracle_adds_the_users_in_the_flat_search_order():
    """With gains below 0.1 and caps below 1 every user transmits at full
    power, so the rate is that of a sum of K caps, whose last bit depends
    on the order of the additions: the highest index first."""
    gen = rng(55)
    for k in (3, 4, 5, 6, 7):
        for unit in ("bits", "nats"):
            for _ in range(4):
                ch = StandardChannel(h=gen.uniform(0.0, 0.1, k).tolist(),
                                     p_max=gen.uniform(0.1, 1.0, k).tolist(), rate_unit=unit)
                expected, _ = _flat_index_search(ch, 3)
                assert expected[0] == ch.p_max
                assert _sum_bits(grid_max_sum_rate(ch, GridSpec(steps_per_axis=3))) == _sum_bits(expected)


def test_sum_rate_oracle_skips_the_full_grid_mask():
    """On channels like the benchmark's (gains off 1 by 5% or within 1e-9
    of it, caps of 0.5 to 20) feasibility is decided at each block's first
    top point alone: the prefix check over the block never runs, and the
    result is still the full search's, bit for bit."""
    gen = rng(57)

    def gain():
        return float(gen.choice([gen.uniform(0.05, 0.95), gen.uniform(1.05, 4.0),
                                 1.0 + gen.uniform(-1e-9, 1e-9)]))

    with mock.patch.object(oracle, "_infeasible", side_effect=AssertionError("masked")):
        for k, steps in [(2, 11), (3, 11), (4, 11), (5, 11), (5, 6), (6, 6)]:
            for unit in ("bits", "nats"):
                for _ in range(6):
                    ch = StandardChannel(h=[gain() for _ in range(k)],
                                         p_max=gen.uniform(0.5, 20.0, k).tolist(), rate_unit=unit)
                    expected, _ = _flat_index_search(ch, steps)
                    result = grid_max_sum_rate(ch, GridSpec(steps_per_axis=steps))
                    assert _sum_bits(result) == _sum_bits(expected)


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("unit", ["bits", "nats"])
@pytest.mark.parametrize("ch,steps,block,boundary", [
    # one user's axis sliced: blocks of 65536 // 300 = 218 points of P1
    (StandardChannel(h=(0.5, 0.5), p_max=(1e-300, 10.0)), 300, B, (218, 299)),
    # P1 fixed per block and P2 sliced, 3 points at a time
    (StandardChannel(h=(0.5, 0.3, 0.2), p_max=(1e-300, 10.0, 5.0)), 5, 16, (1, 4, 4)),
])
def test_sum_rate_oracle_keeps_a_maximum_tied_across_a_block_boundary(
        ch, steps, block, boundary, unit, fallback):
    """P1 is below the float spacing of the other powers, so the rate at
    full power for the other users is the same for every P1, the first of
    those points (P1 = 0) is the answer, and the tied maxima lie in
    different blocks.  With ``fallback`` the point check reads every
    block's first top point as infeasible, as rounding could, so each
    block that could beat the best so far is masked whole instead."""
    ch = StandardChannel(h=ch.h, p_max=ch.p_max, rate_unit=unit)
    expected, rates = _flat_index_search(ch, steps)
    first = (0,) + boundary[1:]
    assert rates[first] == rates[boundary] == rates.max()
    assert expected[0][0] == 0.0
    point_check = mock.Mock(return_value=True) if fallback else oracle._witness
    masked = mock.Mock(wraps=oracle._infeasible)
    with mock.patch.object(oracle, "_BLOCK_ENTRIES", block), \
            mock.patch.object(oracle, "_witness", point_check), \
            mock.patch.object(oracle, "_infeasible", masked):
        result = grid_max_sum_rate(ch, GridSpec(steps_per_axis=steps))
    assert _sum_bits(result) == _sum_bits(expected)
    assert masked.called == fallback


def _one_pass_jamming(ch, steps, unit):
    """The jamming oracle's search in one pass: the whole ``linspace``
    axis (repeats dropped), one ``argmax``.  Returns the result and the
    objective on the axis."""
    p2 = np.linspace(0.0, ch.p2_max, steps)
    p2 = p2[np.append(True, np.diff(p2) > 0)]
    p1 = ch.p1_max
    values = (_capacities(p1 / (1.0 + p2), unit)
              - _capacities(ch.h1 * p1 / (1.0 + ch.h2 * p2), unit))
    i = int(values.argmax())
    if p1 > 0 and values[i] > 0.0:
        return (p1, float(p2[i]), float(values[i])), values
    return (0.0, 0.0, 0.0), values


def _bits(result):
    return [x.hex() for x in result]


@pytest.mark.parametrize("unit", ["bits", "nats"])
@pytest.mark.parametrize("steps", [B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("ch", [
    TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=10),      # case A, interior root
    TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=0.2),     # case A, full jamming
    TwoUserChannel(h1=1.2, h2=1.4, p1_max=10, p2_max=50),      # case B
    TwoUserChannel(h1=0.4, h2=1.4, p1_max=0, p2_max=10),       # nothing to transmit
    TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=1e-320),  # the axis repeats points
    TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=0.0),
])
def test_blocked_jamming_oracle_equals_one_pass(ch, steps, unit):
    expected, _ = _one_pass_jamming(ch, steps, unit)
    assert _bits(grid_max_jamming(ch, GridSpec(steps_per_axis=steps), unit)) == _bits(expected)


def test_blocked_jamming_oracle_keeps_a_maximum_tied_across_a_block_boundary():
    """With p2 below the float spacing of 1, ``1 + p2`` rounds to 1 on the
    first half of the axis and beyond, so the objective holds its maximum
    on both sides of index B; the first point (p2 = 0) is the answer."""
    ch = TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=0.9 * EPS)
    steps = 2 * B + 1
    for unit in ("bits", "nats"):
        expected, values = _one_pass_jamming(ch, steps, unit)
        assert values[B - 1] == values[B] == values.max() > values[-1]
        assert expected[1] == 0.0
        assert _bits(grid_max_jamming(ch, GridSpec(steps_per_axis=steps), unit)) == _bits(expected)


def test_jamming_oracle_agrees_with_one_pass_on_random_channels():
    gen = rng(53)
    for _ in range(40):
        ch = random_case_a(gen) if gen.random() < 0.5 else random_case_b(gen)
        steps = int(gen.integers(2, 3 * B))
        unit = "bits" if gen.random() < 0.5 else "nats"
        expected, _ = _one_pass_jamming(ch, steps, unit)
        assert _bits(grid_max_jamming(ch, GridSpec(steps_per_axis=steps), unit)) == _bits(expected)


@pytest.mark.parametrize("p_max", [
    0.0, 5e-324, 1e-323, 3e-323, 1e-320, 1e-310, 2.2250738585072014e-308,
    1e-300, 0.9 * EPS, 0.3, 1.0, 10.0, 1e300, sys.float_info.max])
@pytest.mark.parametrize("steps", [2, 3, 4, 7, 1000, 4097])
def test_axis_blocks_are_the_grid_axis(p_max, steps):
    with np.errstate(over="raise"):
        axis = _grid_axis(p_max, steps)
    for size in (1, 3, 64, B):
        with np.errstate(over="raise"):
            blocks = list(_axis_blocks(p_max, steps, size))
        assert all(0 < len(b) <= size for b in blocks)
        joined = np.concatenate(blocks)
        assert joined.shape == axis.shape
        assert np.array_equal(joined.view(np.int64), axis.view(np.int64))


@pytest.mark.parametrize("p_max", [
    0.0, 5e-324, 1e-323, 3e-323, 1e-320, 1e-310, 2.2250738585072014e-308,
    1e-300, 0.9 * EPS, 0.3, 1.0, 10.0, 1e300, sys.float_info.max])
@pytest.mark.parametrize("steps", [2, 3, 4, 7, 1000, 4097])
def test_grid_axis_is_linspace_without_its_overflow(p_max, steps):
    """The axis is ``np.linspace``'s, bit for bit, with repeats dropped;
    linspace overwrites its last point with p_max, but first forms
    ``(steps - 1) * step``, which overflows near the float maximum."""
    with np.errstate(over="ignore"):
        expected = np.linspace(0.0, p_max, steps)
    expected = expected[np.append(True, np.diff(expected) > 0)]
    with np.errstate(over="raise"):
        axis = _grid_axis(p_max, steps)
    assert np.array_equal(axis.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("k", range(1, 41))
def test_a_subnormal_grid_axis_ends_at_p_max(k):
    """With a subnormal step, ``i * step`` rounds and may pass ``p_max``
    (``9 * 5e-324`` at 7 steps gives 5e-323); no point may lie above the
    cap, and the cap itself stays on the axis."""
    p_max = k * 5e-324
    for steps in range(2, 13):
        axis = _grid_axis(p_max, steps)
        assert np.all(np.diff(axis) > 0)
        assert axis.max() <= p_max
        assert axis[-1] == p_max


def test_oracles_and_sweep_stay_inside_a_subnormal_cap():
    p_max = 9 * 5e-324
    powers, _ = grid_max_sum_rate(StandardChannel(h=(0.5,), p_max=(p_max,)), GridSpec(7))
    assert powers[0] <= p_max
    rows = union_sweep(StandardChannel(h=(0.5, 0.5), p_max=(p_max, p_max)), 7)
    assert max(p1 for (p1, _), _ in rows) == p_max


def test_jamming_grid_cap_counts_one_point_per_jamming_power():
    ch = TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=10)
    with pytest.raises(ValidationError,
                       match=f"grid would have {MAX_GRID_POINTS + 1} points"):
        grid_max_jamming(ch, GridSpec(steps_per_axis=MAX_GRID_POINTS + 1))


def test_grid_jamming_memory_does_not_grow_with_the_axis():
    """The jamming axis is built and evaluated a block at a time: 2x10^6
    points in a few MB, where the whole axis and its temporaries took
    about 8 bytes per point ten times over."""
    ch = TwoUserChannel(h1=0.4, h2=1.4, p1_max=10, p2_max=10)
    tracemalloc.start()
    try:
        grid_max_jamming(ch, GridSpec(steps_per_axis=2_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_verify_tolerances():
    """One tolerance for both closed forms: at the solver's own powers, and
    for a grid point that beats the claimed rate."""
    assert oracle.VERIFY_TOL == 1e-9
    assert not hasattr(oracle, "JAMMING_VERIFY_TOL") and not hasattr(oracle, "_gap")


def test_verify_sum_rate_default_grid(monkeypatch):
    steps = []
    real = oracle.grid_max_sum_rate
    monkeypatch.setattr(oracle, "grid_max_sum_rate",
                        lambda ch, spec: steps.append(spec.steps_per_axis) or real(ch, spec))
    for k in (1, 3, 4, 5):
        ch = StandardChannel(h=(0.5,) * k, p_max=(1.0,) * k)
        doc = verify_sum_rate(ch, max_sum_rate(ch))
        assert list(doc) == ["p_star", "sum_rate", "gap"]
    verify_sum_rate(ch, max_sum_rate(ch), steps=3)
    assert steps == [11, 11, 6, 6, 3]
    # above 8 users a 6-step grid passes MAX_GRID_POINTS (6 ** 9 > 10 ** 7);
    # the optimum is a box corner, on every axis, so fewer steps still hold it
    for k in (9, 12, 16):
        ch = StandardChannel(h=(0.5,) * k, p_max=(1.0,) * k)
        doc = verify_sum_rate(ch, max_sum_rate(ch))
        assert list(doc) == ["p_star", "sum_rate", "gap"] and abs(doc["gap"]) <= 1e-9
    assert steps[5:] == [5, 3, 2]


def test_verify_raises_beyond_tolerance(monkeypatch):
    ch = StandardChannel(h=(0.1, 0.2), p_max=(10, 10))
    sol = max_sum_rate(ch)
    monkeypatch.setattr(oracle, "grid_max_sum_rate",
                        lambda ch, spec: ((10.0, 0.0), sol.sum_rate + 2e-9))
    with pytest.raises(InternalError, match=r"sum-rate optimizer .* p_star=\[10.0, 0.0\]"):
        verify_sum_rate(ch, sol)
    with pytest.raises(InternalError, match="jamming dispatch and sum-rate oracle"):
        verify_jamming(ch, solve_jamming(TwoUserChannel.from_standard(ch)[0]), 11)

    case_a = StandardChannel(h=(0.4, 1.4), p_max=(10, 10))
    sol = solve_jamming(TwoUserChannel.from_standard(case_a)[0])
    monkeypatch.setattr(oracle, "grid_max_jamming",
                        lambda two, spec, unit: (10.0, 0.5, sol.secrecy_rate + 2e-9))
    with pytest.raises(InternalError, match=r"jamming solver .* \(p1, p2\)=\(10.0, 0.5\)"):
        verify_jamming(case_a, sol, 11)

    # a grid may fall short of the closed form by any amount
    monkeypatch.setattr(oracle, "grid_max_jamming",
                        lambda two, spec, unit: (10.0, 0.5, sol.secrecy_rate - 2e-5))
    assert verify_jamming(case_a, sol, 11)["gap"] == pytest.approx(2e-5, rel=1e-9)


def test_verify_jamming_picks_the_oracle():
    """The degenerate NoJam solution came from the sum-rate optimizer and
    is checked by its oracle; every other solution is checked on the
    jamming axis, in the sorted order."""
    ch = StandardChannel(h=(0.2, 0.1), p_max=(10, 10))
    sol = solve_jamming(TwoUserChannel.from_standard(ch)[0])
    doc = verify_jamming(ch, sol, 11)
    assert doc["kind"] == "sum_rate" and doc["p_star"] == [0.0, 10.0]
    assert list(doc) == ["kind", "p_star", "rate", "gap"]

    ch = StandardChannel(h=(1.4, 0.4), p_max=(0.2, 10.0))  # full jamming
    sol = solve_jamming(TwoUserChannel.from_standard(ch)[0])
    doc = verify_jamming(ch, sol, 2)  # {0, 0.2}
    assert doc["kind"] == "jamming" and doc["powers"] == [10.0, 0.2]
    assert list(doc) == ["kind", "powers", "rate", "gap"]
    with pytest.raises(ValidationError, match="^p2_steps:"):
        verify_jamming(ch, sol, 1)


@pytest.mark.parametrize("count", [0, 1, -5, True, 2.5, "x", 10 ** 8])
@pytest.mark.parametrize("ch", [StandardChannel(h=(0.4, 1.4), p_max=(10, 10)),
                                StandardChannel(h=(0.2, 0.1), p_max=(10, 10))])
def test_verify_jamming_refuses_a_bad_count_by_its_name(ch, count):
    """Also on the degenerate channel, whose sum-rate oracle does not use it."""
    sol = solve_jamming(TwoUserChannel.from_standard(ch)[0])
    with pytest.raises(ValidationError, match="^p2_steps: "):
        verify_jamming(ch, sol, count)


@pytest.mark.parametrize("count", [0, 1, -5, True, 2.5, "x", 216])  # 216 ** 3 > 10 ** 7
def test_verify_sum_rate_refuses_a_bad_count_by_its_name(count):
    ch = StandardChannel(h=(0.1, 0.5, 2.0), p_max=(1, 2, 3))
    with pytest.raises(ValidationError, match="^steps: "):
        verify_sum_rate(ch, max_sum_rate(ch), count)


@pytest.mark.parametrize("h", [(0.4, 1.4), (1.5, 2.5)])
@pytest.mark.parametrize("p2_max", [0.0, 5e-4, 1e-3, 0.2005, 0.3, 3.0, 1234.5678, 9999.998])
def test_verify_jamming_default_is_the_1e_3_spacing(h, p2_max):
    """Up to p2_max = 10^4 the default is the axis that a step of 1e-3 made
    (at least 2 points), to the last bit."""
    ch = StandardChannel(h=h, p_max=(10, p2_max))
    sol = solve_jamming(TwoUserChannel.from_standard(ch)[0])
    assert verify_jamming(ch, sol) == verify_jamming(ch, sol, max(2, int(p2_max / 1e-3 + 1e-9) + 1))


@pytest.mark.parametrize("p2_max", [1e4, 1.2e4, 1e300, 1e308])
def test_verify_jamming_default_takes_the_cap_where_1e_3_is_finer(monkeypatch, p2_max):
    ch = StandardChannel(h=(0.4, 1.4), p_max=(10, p2_max))
    sol = solve_jamming(TwoUserChannel.from_standard(ch)[0])
    counts = []
    real = oracle.grid_max_jamming
    monkeypatch.setattr(oracle, "grid_max_jamming", lambda two, spec, unit: counts.append(
        spec.steps_per_axis) or real(two, spec, unit))
    assert verify_jamming(ch, sol)["gap"] >= -oracle.VERIFY_TOL
    assert counts == [MAX_GRID_POINTS]


BELOW_1 = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                    st.floats(1.0 - 1e-12, 1.0, exclude_max=True))
FROM_1 = st.one_of(st.floats(1.0, 4.0), st.floats(1.0, 1.0 + 1e-12))
CAPS = st.one_of(st.floats(0.0, 20.0), st.floats(1e-6, 1e6))


@st.composite
def two_user_channels(draw):
    """A case and a two-user channel of that case, in either user order:
    gains within 1e-12 of 1 included, case B's gains from 2e-12 apart, and
    the degenerate case with both gains below 1 or equal ones from 1 up."""
    case = draw(st.sampled_from(["A", "B", "Degenerate"]))
    if case == "A":
        h = (draw(BELOW_1), draw(FROM_1))
    elif case == "B":
        h1 = draw(FROM_1)
        h = (h1, h1 + draw(st.one_of(st.floats(2e-12, 1e-9), st.floats(1e-9, 3.0))))
    elif draw(st.booleans()):
        h = (draw(BELOW_1), draw(BELOW_1))
    else:
        h1 = draw(FROM_1)
        h = (h1, h1 + draw(st.floats(0.0, 0.5e-12)))
    p = (draw(CAPS), draw(CAPS))
    if draw(st.booleans()):
        h, p = h[::-1], p[::-1]
    return case, StandardChannel(h=h, p_max=p, rate_unit=draw(st.sampled_from(["bits", "nats"])))


@settings(max_examples=300, deadline=None)
@given(two_user_channels(), st.integers(2, 2001))
def test_verify_jamming_passes_every_honest_answer(case_and_channel, steps):
    """The jamming solver's answer is certified on any jamming axis, however
    coarse: a grid that falls short of the closed form is no fault."""
    case, ch = case_and_channel
    sol = solve_jamming(TwoUserChannel.from_standard(ch)[0], ch.rate_unit)
    assert sol.case_tag == case
    doc = verify_jamming(ch, sol, steps)
    assert doc["gap"] >= -oracle.VERIFY_TOL


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.one_of(BELOW_1, FROM_1), min_size=k, max_size=k),
    st.lists(CAPS, min_size=k, max_size=k))),
    st.integers(2, 11), st.sampled_from(["bits", "nats"]))
def test_verify_sum_rate_passes_every_honest_answer(case, steps, unit):
    h, p_max = case
    ch = StandardChannel(h=h, p_max=p_max, rate_unit=unit)
    assert verify_sum_rate(ch, max_sum_rate(ch), steps)["gap"] >= -oracle.VERIFY_TOL


SUM_CH = StandardChannel(h=(0.1, 2.0), p_max=(10, 10))
CASE_A_CH = StandardChannel(h=(1.4, 0.4), p_max=(0.3, 10))  # sorted: users 2, 1
DEGENERATE_CH = StandardChannel(h=(0.2, 0.1), p_max=(10, 5))  # sorted: users 2, 1


@pytest.mark.parametrize("change,match", [
    (lambda sol: {"sum_rate": sol.sum_rate + 2e-9},
     r"sum-rate optimizer .*: rate .*; the oracle's at powers \[10.0, 0.0\] is"),
    (lambda sol: {"powers": (10.0, 10.0 * (1 + 1e-15))}, "outside the set searched"),
    (lambda sol: {"powers": (0.0, 10.0)}, r"powers \[0.0, 10.0\] outside the set searched"),
    (lambda sol: {"powers": (-1e-300, 0.0)}, "outside the set searched"),
])
def test_verify_sum_rate_refuses_a_tampered_answer(change, match):
    """A rate off the formula at its own powers, or powers outside the
    allowable set (past a cap, or violating a subset constraint)."""
    sol = max_sum_rate(SUM_CH)
    verify_sum_rate(SUM_CH, sol)
    with pytest.raises(InternalError, match=match):
        verify_sum_rate(SUM_CH, tampered(sol, **change(sol)))


@pytest.mark.parametrize("ch,change,match", [
    (CASE_A_CH, lambda sol: {"secrecy_rate": sol.secrecy_rate + 2e-9},
     r"jamming solver .*: rate .*; the oracle's at powers \[10.0, 0.3\] is"),
    (CASE_A_CH, lambda sol: {"p2": 0.3 * (1 + 1e-15)}, "outside the set searched"),
    (CASE_A_CH, lambda sol: {"p1": 20.0}, r"powers \[20.0, 0.3\] outside the set searched"),
    (CASE_A_CH, lambda sol: {"p2": -1.0}, "outside the set searched"),
    (DEGENERATE_CH, lambda sol: {"secrecy_rate": sol.secrecy_rate + 2e-9},
     r"jamming dispatch and sum-rate oracle: rate .* at powers \[10.0, 5.0\]"),
    (DEGENERATE_CH, lambda sol: {"p1": 6.0}, r"powers \[10.0, 6.0\] outside the set searched"),
])
def test_verify_jamming_refuses_a_tampered_answer(ch, change, match):
    """The same rule on the box, and on the allowable set for the
    degenerate case, whose powers are named in the users' own order."""
    sol = solve_jamming(TwoUserChannel.from_standard(ch)[0])
    verify_jamming(ch, sol, 11)
    with pytest.raises(InternalError, match=match):
        verify_jamming(ch, tampered(sol, **change(sol)), 11)

