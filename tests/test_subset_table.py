"""Property tests: the gain-sorted prefix check behind is_feasible and the
subset table behind build_region and union_sweep, against the per-subset
public functions (the enumerator), and RateRegion's bitmask-ordered
bounds against the ``(users, bound)`` pairs they stand for.

Gains spread over [0, 4] with a share within 1e-9 of 1, where a subset's
slack is nearly 0; powers span 1e-6 to 1e6 (and 0), where sums of very
different magnitudes meet, and for the bound property 1e-300 to 1e300.
"""

import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmacwt import RateRegion, StandardChannel, build_region, is_feasible, union_sweep
from gmacwt.region import (
    CONTAINS_TOL,
    FEASIBILITY_TOL,
    InfeasibilityWitness,
    _bounds,
    _subset_table,
    _sweep_table,
    _vertices,
)

from helpers import secrecy_slack, subset_rates

GAINS = st.one_of(st.floats(0.0, 4.0), st.floats(1.0 - 1e-9, 1.0 + 1e-9))
POWERS = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))
WIDE_POWERS = st.one_of(POWERS, st.floats(1e-300, 1e300))


@st.composite
def channel_and_powers(draw, min_users=1, max_users=8, powers=POWERS):
    """A channel whose caps are the drawn powers, so only the subset
    constraints decide feasibility."""
    k = draw(st.integers(min_users, max_users))
    h = draw(st.lists(GAINS, min_size=k, max_size=k))
    p = tuple(draw(st.lists(powers, min_size=k, max_size=k)))
    unit = draw(st.sampled_from(("bits", "nats")))
    return StandardChannel(h=h, p_max=p, rate_unit=unit), p


def _bitmask_subsets(k):
    """0-based user tuples of every nonempty subset of ``k`` users, read
    off the set bits of each mask ``m = 1 .. 2^k - 1``: a reference that
    does not share the doubling ``gmacwt.region`` builds them by."""
    return [tuple(j for j in range(k) if m >> j & 1) for m in range(1, 1 << k)]


def _at_the_boundary(slack, p):
    """Whether ``slack`` is within rounding of -FEASIBILITY_TOL: the prefix
    check adds a subset's terms in gain order, ``secrecy_slack`` in index
    order, so their slacks may differ by a few ulps of ``sum(p)``."""
    return abs(slack + FEASIBILITY_TOL) <= 1e-13 * max(1.0, sum(p))


def _gain_sorted_prefixes(ch):
    order = sorted(range(ch.num_users), key=lambda k: (-ch.h[k], k))
    return [tuple(sorted(order[:j + 1])) for j in range(ch.num_users)]


@settings(max_examples=200, deadline=None)
@given(channel_and_powers(max_users=10))
def test_is_feasible_verdict_matches_the_enumerator(case):
    ch, p = case
    least = min(secrecy_slack(users, p, ch)
                for users in _bitmask_subsets(ch.num_users))
    if not _at_the_boundary(least, p):
        assert is_feasible(p, ch)[0] is (least >= -FEASIBILITY_TOL)


@settings(max_examples=200, deadline=None)
@given(channel_and_powers(max_users=10))
def test_is_feasible_witness_is_the_first_violated_prefix(case):
    ch, p = case
    ok, witness = is_feasible(p, ch)
    if ok:
        assert witness is None
        return
    prefixes = _gain_sorted_prefixes(ch)
    assert witness.kind == "subset" and witness.users in prefixes
    for users in prefixes[:prefixes.index(witness.users) + 1]:
        slack = secrecy_slack(users, p, ch)
        if not _at_the_boundary(slack, p):
            assert (slack < -FEASIBILITY_TOL) is (users == witness.users)


def test_witness_is_a_prefix_when_the_minimum_slack_subset_is_not():
    # Gain order is user 1, user 2; user 1 is silent, so subsets {2} and
    # {1, 2} share the point (P_S, hP_S) = (1, 2) and the slack -1.  The
    # enumerator meets {2} first, but it is not a gain-sorted prefix.  (A
    # violated minimum is always also reached at a prefix, as here: the
    # slack falls as hP_S grows at fixed P_S and is concave.)
    ch = StandardChannel(h=(5.0, 2.0), p_max=(0.0, 1.0))
    p = ch.p_max
    slacks = {users: secrecy_slack(users, p, ch) for users in ((0,), (1,), (0, 1))}
    assert slacks == {(0,): 0.0, (1,): -1.0, (0, 1): -1.0}
    assert is_feasible(p, ch) == (False, InfeasibilityWitness("subset", (0, 1)))


@settings(max_examples=200, deadline=None)
@given(channel_and_powers())
def test_build_region_bounds_match_subset_rates(case):
    ch, p = case
    region = build_region(p, ch)
    assert region.feasible is is_feasible(p, ch)[0]
    for users, bound in region.halfspaces:
        assert type(bound) is float
        rates = subset_rates(users, p, ch)
        assert abs(bound - (rates.main - rates.tap_intf)) <= 1e-12 * max(1.0, rates.main)


@settings(max_examples=100, deadline=None)
@given(channel_and_powers(min_users=2, max_users=2), st.integers(2, 7))
def test_union_sweep_rows_equal_build_region(case, steps):
    ch, _ = case
    axes = [np.unique(np.linspace(0.0, p, steps)).tolist() for p in ch.p_max]
    feasible = [(p1, p2) for p1 in axes[0] for p2 in axes[1]
                if is_feasible((p1, p2), ch)[0]]
    rows = union_sweep(ch, steps)
    assert [point for point, _ in rows] == feasible
    for point, region in rows:
        assert region == build_region(point, ch)


def _union_sweep_row_by_row(ch, steps):
    """``union_sweep`` built one row at a time, as a Python conversion per
    point and per bound row."""
    points = _sweep_table(ch, steps)[:, :2]
    rows = _bounds(_subset_table(points, ch.h), ch.rate_unit).tolist()
    return [(tuple(pt), RateRegion(tuple(row), True, ch.rate_unit))
            for pt, row in zip(points.tolist(), rows)]


#: Caps whose sweep step is subnormal or 0, so the grid axis repeats points
#: and ``_axis_blocks`` drops the repeats.
TINY_CAPS = st.sampled_from((0.0, 5e-324, 1e-310))


def _hex_and_type(row):
    """A sweep row as text, with every float by ``float.hex`` and every
    tuple and float checked for its exact type (a ``numpy.float64``
    compares equal to the float it holds)."""
    point, region = row
    assert type(point) is tuple and type(region.bounds) is tuple
    assert all(type(x) is float for x in (*point, *region.bounds))
    return ([x.hex() for x in point], [b.hex() for b in region.bounds],
            region.feasible, region.rate_unit)


@settings(max_examples=300, deadline=None)
@given(st.lists(GAINS, min_size=2, max_size=2),
       st.lists(st.one_of(TINY_CAPS, POWERS), min_size=2, max_size=2),
       st.sampled_from(("bits", "nats")), st.integers(2, 60))
def test_union_sweep_equals_its_row_by_row_construction(h, p_max, unit, steps):
    ch = StandardChannel(h=h, p_max=p_max, rate_unit=unit)
    rows = union_sweep(ch, steps)
    assert type(rows) is list
    expected = _union_sweep_row_by_row(ch, steps)
    assert [_hex_and_type(r) for r in rows] == [_hex_and_type(r) for r in expected]


@settings(max_examples=300, deadline=None)
@given(channel_and_powers(max_users=6, powers=WIDE_POWERS))
def test_feasible_region_bounds_are_at_least_minus_the_tolerance(case):
    """At a feasible point a bound may dip below 0, but only by rounding
    within the slack tolerance (-1.6e-14 has been seen), never below
    -FEASIBILITY_TOL, also for powers of extreme magnitude."""
    ch, p = case
    region = build_region(p, ch)
    if region.feasible:
        assert min(bound for _, bound in region.halfspaces) >= -FEASIBILITY_TOL


def _add_in_order(terms):
    """Left-to-right float addition, as ``RateRegion.contains`` adds (the
    builtin ``sum`` compensates its rounding from Python 3.12 on)."""
    total = 0.0
    for x in terms:
        total += x
    return total


@settings(max_examples=300, deadline=None)
@given(channel_and_powers(), st.data())
def test_region_bounds_stand_for_their_halfspace_pairs(case, data):
    """Every view of a region equals the one built from the pairs
    ``zip(_bitmask_subsets(K), bounds)``, at feasible and infeasible
    powers (where bounds can be negative)."""
    ch, p = case
    region = build_region(p, ch)
    pairs = tuple(zip(_bitmask_subsets(ch.num_users), region.bounds))
    assert len(pairs) == len(region.bounds) == (1 << ch.num_users) - 1
    assert region.num_users == ch.num_users
    assert region.halfspaces == pairs
    for users, bound in pairs:
        assert region.bound(users) == bound

    rates = data.draw(st.lists(st.floats(0.0, 2.0), min_size=ch.num_users,
                               max_size=ch.num_users))
    for r in (rates, [0.0] * ch.num_users, *(region.vertices or ())):  # vertices: on the boundary
        assert region.contains(r) is all(
            _add_in_order(r[k] for k in users) <= bound + CONTAINS_TOL
            for users, bound in pairs)

    twin = RateRegion(tuple(b for _, b in pairs), region.feasible, ch.rate_unit)
    assert twin == region and hash(twin) == hash(region)
    i = data.draw(st.integers(0, len(pairs) - 1))
    moved = list(region.bounds)
    moved[i] += 1.0
    assert RateRegion(tuple(moved), region.feasible, ch.rate_unit) != region

    _assert_document_stands_for_pairs(region, pairs)


def _assert_document_stands_for_pairs(region, pairs):
    """``region.to_json_dict()`` against the document built from the
    ``(users, bound)`` pairs with lists: the same bytes under
    ``json.dumps``, compact and indented; every ``subset`` a tuple of the
    1-based users, shared between calls; and new dicts on every call, so
    that changing one document leaves the next one as it was."""
    vertices = _vertices([b for _, b in pairs])
    listed = {
        "feasible": region.feasible,
        "rate_unit": region.rate_unit,
        "halfspaces": [{"subset": [k + 1 for k in users], "bound": bound}
                       for users, bound in pairs],
        "vertices": None if vertices is None else [list(v) for v in vertices],
    }
    doc = region.to_json_dict()
    for indent in (None, 2):
        assert json.dumps(doc, indent=indent) == json.dumps(listed, indent=indent)
    subsets = [space["subset"] for space in doc["halfspaces"]]
    assert all(type(users) is tuple for users in subsets)
    assert subsets == [tuple(k + 1 for k in users) for users, _ in pairs]

    again = region.to_json_dict()
    assert again is not doc and again["halfspaces"] is not doc["halfspaces"]
    assert not any(a is b for a, b in zip(again["halfspaces"], doc["halfspaces"]))
    assert all(a["subset"] is b for a, b in zip(again["halfspaces"], subsets))
    doc["halfspaces"][0]["bound"] += 1.0
    doc["halfspaces"][-1]["subset"] = (0,)
    doc["halfspaces"].append({"subset": (0,), "bound": 0.0})
    doc["feasible"] = None
    if doc["vertices"]:
        doc["vertices"][-1].append(0.0)
    for indent in (None, 2):
        assert json.dumps(region.to_json_dict(), indent=indent) == json.dumps(listed, indent=indent)
    return doc


def test_sixteen_user_document_equals_the_pair_built_one():
    """The 2^16 - 1 halfspaces of the largest region: the same document
    as one built from the ``(users, bound)`` pairs with lists."""
    gen = np.random.default_rng(16)
    ch = StandardChannel(h=tuple(gen.uniform(0.0, 2.0, 16)),
                         p_max=tuple(gen.uniform(0.0, 20.0, 16)))
    region = build_region(ch.p_max, ch)
    pairs = tuple(zip(_bitmask_subsets(16), region.bounds))
    _assert_document_stands_for_pairs(region, pairs)
    assert region.to_json_dict()["halfspaces"][-1]["subset"] == tuple(range(1, 17))


@pytest.mark.skipif(gc.is_tracked({"subset": (), "bound": 0.0}),
                    reason="this interpreter tracks a dict of untracked values")
def test_to_json_dict_gives_the_collector_nothing_to_walk():
    """Once a collector pass has examined the shared subset tuples, a new
    call's halfspace dicts hold only untracked values, so CPython does not
    track them.  That a dict of untracked values is itself left untracked
    is an implementation detail (CPython 3.11 does it); the skip condition
    probes it directly."""
    gen = np.random.default_rng(27)
    ch = StandardChannel(h=tuple(gen.uniform(0.0, 2.0, 16)),
                         p_max=tuple(gen.uniform(0.0, 20.0, 16)))
    region = build_region(ch.p_max, ch)
    region.to_json_dict()
    gc.collect()
    doc = region.to_json_dict()
    assert not any(gc.is_tracked(space) for space in doc["halfspaces"])


@pytest.mark.parametrize("enabled", [True, False])
def test_to_json_dict_leaves_the_collector_as_it_found_it(enabled):
    region = build_region((1.0, 2.0, 3.0), StandardChannel(h=(0.5, 1.5, 0.2), p_max=(3, 3, 3)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        region.to_json_dict()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
