import math

import pytest
from hypothesis import given, settings, strategies as st

from gmacwt import StandardChannel, ValidationError, build_region, is_feasible, union_sweep
from gmacwt import region as region_module
from gmacwt.region import InfeasibilityWitness, _vertices
from gmacwt.sumrate import sum_secrecy_rate

from helpers import (
    awgn_capacity,
    classify_two_user_shape,
    random_box_powers,
    random_channel,
    random_feasible_powers,
    rng,
    secrecy_slack,
    subset_rates,
)

# High-precision reference values (0.5*log2(1+x), 50-digit evaluation).
G10 = 1.7297158093186486
G20 = 2.1961587113893801
G_THIRD = 0.20751874963942191
B1 = 1.5221970596792267     # h=(0.1,0.2), P=(10,10)
B2 = 1.2297158093186486
B12 = 1.1961587113893801
B1_SINGLE = 0.33903595255631883  # K=1, h=0.5, P=3: g(3)-g(1.5)

CH2 = StandardChannel(h=(0.1, 0.2), p_max=(10, 10))


def test_capacity_values():
    assert awgn_capacity(0) == 0.0
    assert awgn_capacity(3) == 1.0        # exact: half of log2(4)
    assert awgn_capacity(10) == pytest.approx(G10, abs=1e-15)
    assert awgn_capacity(3, "nats") == pytest.approx(0.5 * math.log(4), abs=1e-15)


def test_capacity_is_increasing():
    gen = rng(21)
    xs = sorted(gen.uniform(0, 50, 100))
    ys = [awgn_capacity(x) for x in xs]
    assert all(b > a for a, b in zip(ys, ys[1:]))


def test_subset_rates_full_set():
    rates = subset_rates((0, 1), (10, 10), CH2)
    assert rates.main == pytest.approx(G20, abs=1e-12)
    assert rates.tap_intf == pytest.approx(1.0, abs=1e-12)  # g(3)
    # Complement is empty: the interference-free and interference-limited
    # quantities coincide.
    assert rates.main_intf == rates.main
    assert rates.tap_intf == rates.tap


def test_subset_rates_single_user():
    rates = subset_rates((0,), (10, 10), CH2)
    assert rates.main == pytest.approx(G10, abs=1e-12)
    assert rates.tap_intf == pytest.approx(G_THIRD, abs=1e-12)  # g((1/3))


def test_subset_rates_zero_power():
    rates = subset_rates((0, 1), (0, 0), CH2)
    assert rates == subset_rates((1,), (0, 0), CH2)
    assert (rates.main, rates.tap, rates.main_intf, rates.tap_intf) == (0, 0, 0, 0)


def test_region_bound_refuses_an_empty_or_unknown_subset():
    region = build_region((10, 10), CH2)
    with pytest.raises(ValidationError, match="^subset: must be nonempty"):
        region.bound(())
    with pytest.raises(ValidationError, match=r"^subset: user indices must lie in \[0, 1\]"):
        region.bound((2,))


@pytest.mark.parametrize("call", [
    lambda: build_region((10, 10), CH2).bound(("a",)),
    lambda: build_region((10, 10), CH2).bound((0.7,)),
    lambda: build_region((10, 10), CH2).bound(0),
    lambda: build_region((10, 10), CH2).bound((None,)),
    lambda: build_region((10, 10), CH2).bound((1.9,)),
])
def test_subset_indices_must_be_integers(call):
    """A float index is refused, not truncated to a user (0.7 to user 0,
    1.9 to user 1), and so is a string or a non-iterable subset."""
    with pytest.raises(ValidationError, match="^subset: must be"):
        call()


def test_interference_never_helps():
    gen = rng(22)
    for _ in range(50):
        k = int(gen.integers(2, 6))
        ch = random_channel(gen, k)
        powers = random_box_powers(gen, ch)
        subset = tuple(int(i) for i in gen.choice(k, size=int(gen.integers(1, k + 1)), replace=False))
        rates = subset_rates(subset, powers, ch)
        assert rates.main_intf <= rates.main + 1e-12
        assert rates.tap_intf <= rates.tap + 1e-12
        assert min(rates.main, rates.tap, rates.main_intf, rates.tap_intf) >= 0


def test_secrecy_slack_values():
    ch = StandardChannel(h=(0.5, 0.5), p_max=(5, 5))
    assert secrecy_slack((0,), (1, 1), ch) == pytest.approx(1 - 0.5 / 1.5, abs=1e-15)
    ch2 = StandardChannel(h=(2, 2), p_max=(5, 5))
    assert secrecy_slack((0, 1), (1, 1), ch2) == -2.0
    assert secrecy_slack((0, 1), (0, 0), ch2) == 0.0


def test_secrecy_slack_sign_matches_rate_bound():
    gen = rng(23)
    for _ in range(100):
        k = int(gen.integers(1, 5))
        ch = random_channel(gen, k)
        powers = random_box_powers(gen, ch)
        subset = tuple(int(i) for i in gen.choice(k, size=int(gen.integers(1, k + 1)), replace=False))
        slack = secrecy_slack(subset, powers, ch)
        rates = subset_rates(subset, powers, ch)
        bound = rates.main - rates.tap_intf
        if abs(slack) > 1e-9:
            assert math.copysign(1, slack) == math.copysign(1, bound)


def test_is_feasible_examples():
    ch = StandardChannel(h=(0.5, 0.5), p_max=(1, 1))
    assert is_feasible((1, 1), ch) == (True, None)

    ch_bad = StandardChannel(h=(2, 2), p_max=(5, 5))
    ok, witness = is_feasible((1, 1), ch_bad)
    assert not ok
    assert witness.kind == "subset"
    assert witness.users == (0, 1)

    assert is_feasible((0, 0), ch_bad) == (True, None)


def test_is_feasible_bound_witness():
    ch = StandardChannel(h=(0.5, 0.5), p_max=(1, 1))
    ok, witness = is_feasible((0.5, 2.0), ch)
    assert not ok
    assert witness.kind == "bound"
    assert witness.users == (1,)


def test_is_feasible_builds_no_subset_table_at_16_users(monkeypatch):
    def refuse(points, h, unit):
        raise AssertionError("is_feasible built the 2^K subset table")
    monkeypatch.setattr(region_module, "_bounds", refuse)
    h = tuple(0.25 * k for k in range(16))  # users 8..15 have h >= 2
    ch = StandardChannel(h=h, p_max=(1.0,) * 16)
    assert is_feasible((1.0,) * 8 + (0.0,) * 8, ch) == (True, None)
    # Powering only user 16 (h = 3.75) violates the first prefix, {16}.
    assert is_feasible((0.0,) * 15 + (1.0,), ch) == (
        False, InfeasibilityWitness("subset", (15,)))


def test_box_is_enough_when_all_gains_below_one():
    gen = rng(24)
    for _ in range(200):
        k = int(gen.integers(1, 6))
        ch = random_channel(gen, k, h_high=1.0)
        powers = random_box_powers(gen, ch)
        ok, witness = is_feasible(powers, ch)
        assert ok, witness


def test_is_feasible_reads_the_complement_without_cancellation():
    # Subset {1} is violated by 2.1e-6 (50-digit value).  Taking the
    # complement's h*P as (1 + sum h*P) - h*P_S rounds it to the spacing of
    # floats near 9e5 and reported the point feasible.
    ch = StandardChannel(h=(1 + 1e-9, 4.988447525679878e-07),
                         p_max=(909259.0373235354, 2e-3))
    assert secrecy_slack((0,), ch.p_max, ch) == pytest.approx(-2.10094731e-6, rel=1e-6)
    assert is_feasible(ch.p_max, ch) == (False, InfeasibilityWitness("subset", (0,)))
    assert not build_region(ch.p_max, ch).feasible


@pytest.mark.parametrize("powers", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_non_finite_powers_rejected(powers):
    ch = StandardChannel(h=(0.5, 0.5), p_max=(1, 1))
    for call in (is_feasible, build_region):
        with pytest.raises(ValidationError, match="powers.*must be finite"):
            call(powers, ch)


@pytest.mark.parametrize("powers,match", [
    ((None, 1.0), r"powers\[0\]: must be a finite number"),
    (("a", 1.0), r"powers\[0\]: must be a finite number"),
    (5, "powers: must be a sequence of numbers"),
    ((10 ** 400, 1.0), r"powers\[0\]: must be a finite number"),
])
def test_non_numeric_powers_rejected(powers, match):
    ch = StandardChannel(h=(0.5, 0.5), p_max=(1, 1))
    for call in (is_feasible, build_region, sum_secrecy_rate):
        with pytest.raises(ValidationError, match=match):
            call(powers, ch)


@pytest.mark.parametrize("bounds,vertices", [
    ((1.0, 1.0, 3.0), ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))),
    ((2.0, 2.0, 3.0), ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 2.0), (0.0, 2.0))),
    ((1.0, 3.0, 2.0), ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 2.0))),
    ((1.0, 1.0, 0.5), ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))),
    ((1.0, 0.0, 1.0), ((0.0, 0.0), (1.0, 0.0))),
    ((1.0, -1e-13, 1.0), ((0.0, 0.0), (1.0, 0.0))),
    ((0.0, 0.0, 0.0), ((0.0, 0.0),)),
    ((1.0, -1e-6, 1.0), ()),
])
def test_two_user_vertices_closed_form(bounds, vertices):
    # rectangle, pentagon, quadrilateral, triangle, then degenerate cases:
    # a segment, a bound within tolerance of 0, a point, a negative bound
    assert _vertices(list(bounds)) == vertices


@pytest.mark.parametrize("bounds,shape", [
    ((1.0, 1.0, 3.0), "rectangle"),
    ((2.0, 2.0, 3.0), "pentagon"),
    ((1.0, 3.0, 2.0), "quadrilateral"),
    ((1.0, 1.0, 0.5), "triangle"),
])
def test_classify_two_user_shape(bounds, shape):
    assert classify_two_user_shape(*bounds) == shape


def test_build_region_two_user_triangle():
    region = build_region((10, 10), CH2)
    bounds = [b for _, b in region.halfspaces]
    assert [users for users, _ in region.halfspaces] == [(0,), (1,), (0, 1)]
    assert bounds[0] == pytest.approx(B1, abs=1e-12)
    assert bounds[1] == pytest.approx(B2, abs=1e-12)
    assert bounds[2] == pytest.approx(B12, abs=1e-12)
    assert region.feasible
    # Sum bound below both individual bounds: triangle.
    assert len(region.vertices) == 3
    assert region.vertices[0] == (0.0, 0.0)
    assert region.vertices[1] == pytest.approx((B12, 0.0), abs=1e-12)
    assert region.vertices[2] == pytest.approx((0.0, B12), abs=1e-12)


def test_build_region_zero_power():
    region = build_region((0, 0), CH2)
    assert all(b == 0 for _, b in region.halfspaces)
    assert region.vertices == ((0.0, 0.0),)
    assert region.feasible


def test_build_region_single_user():
    ch = StandardChannel(h=(0.5,), p_max=(3,))
    region = build_region((3,), ch)
    assert region.halfspaces[0][1] == pytest.approx(B1_SINGLE, abs=1e-12)
    assert region.vertices == ((0.0,), pytest.approx((B1_SINGLE,), abs=1e-12))


def test_build_region_quadrilateral_shape():
    # Sum bound between the two individual bounds: one individual bound is
    # slack and the exact region is a quadrilateral.
    ch = StandardChannel(h=(0.1, 1.4), p_max=(10, 10))
    powers = (10, 1)
    assert is_feasible(powers, ch)[0]
    region = build_region(powers, ch)
    b1, b2, b12 = (b for _, b in region.halfspaces)
    assert b1 == pytest.approx(1.478465639054057, abs=1e-12)
    assert b2 == pytest.approx(0.11723262681851147, abs=1e-12)
    assert b12 == pytest.approx(0.90971387717908956, abs=1e-12)
    assert classify_two_user_shape(b1, b2, b12) == "quadrilateral"
    assert len(region.vertices) == 4
    expected = {(0.0, 0.0), (b12, 0.0), (b12 - b2, b2), (0.0, b2)}
    for v in region.vertices:
        assert any(abs(v[0] - e[0]) < 1e-12 and abs(v[1] - e[1]) < 1e-12
                   for e in expected)


def test_bounds_nonnegative_when_feasible():
    gen = rng(25)
    for _ in range(100):
        k = int(gen.integers(1, 5))
        ch = random_channel(gen, k)
        powers = random_feasible_powers(gen, ch)
        region = build_region(powers, ch)
        assert region.feasible
        assert all(b >= -1e-12 for _, b in region.halfspaces)


def test_sum_bound_permutation_invariant():
    gen = rng(26)
    for _ in range(50):
        k = int(gen.integers(2, 6))
        ch = random_channel(gen, k)
        powers = random_box_powers(gen, ch)
        perm = tuple(int(i) for i in gen.permutation(k))
        ch_p = StandardChannel(
            h=tuple(ch.h[i] for i in perm),
            p_max=tuple(ch.p_max[i] for i in perm))
        powers_p = tuple(powers[i] for i in perm)
        full = (1 << k) - 2
        b = build_region(powers, ch).halfspaces[full][1]
        b_p = build_region(powers_p, ch_p).halfspaces[full][1]
        assert b_p == pytest.approx(b, abs=1e-12)


def test_degraded_equal_gain_sum_bound():
    gen = rng(27)
    for _ in range(50):
        k = int(gen.integers(1, 6))
        h = gen.uniform(0.01, 0.99)
        ch = StandardChannel(h=(h,) * k, p_max=(20.0,) * k)
        powers = random_box_powers(gen, ch)
        region = build_region(powers, ch)
        expected = awgn_capacity(sum(powers)) - awgn_capacity(h * sum(powers))
        assert region.halfspaces[(1 << k) - 2][1] == pytest.approx(expected, abs=1e-12)


def test_contains_examples():
    region = build_region((10, 10), CH2)
    assert region.contains((0, 0))
    assert region.contains((1.0, 0.1))
    assert not region.contains((1.0, 0.3))  # violates the sum bound


def test_contains_rejects_wrong_length():
    region = build_region((10, 10), CH2)
    with pytest.raises(ValidationError, match="rates"):
        region.contains((1.0,))


@pytest.mark.parametrize("rates,match", [
    ((None, 1.0), r"rates\[0\]: must be a finite number"),
    ((math.nan, 0.0), r"rates\[0\]: must be finite \(got nan\)"),
    ((0.0, math.inf), r"rates\[1\]: must be finite \(got inf\)"),
    (("a", 1.0), r"rates\[0\]: must be a finite number"),
    (5, "rates: must be a sequence of numbers"),
])
def test_contains_refuses_a_rate_vector_that_is_not_finite_numbers(rates, match):
    """A NaN rate is refused, not answered False."""
    with pytest.raises(ValidationError, match=match):
        build_region((10, 10), CH2).contains(rates)


def test_contains_takes_rates_of_any_sign():
    assert build_region((10, 10), CH2).contains((-1.0, 0.5))


NEAR = st.floats(-1e-12, 1e-12)


@st.composite
def _powers_on_either_side(draw):
    """Gains and powers of K = 1 or 2 users: in the box at random, where
    feasible and infeasible both occur, or on the boundary of the allowable
    set within 1e-12 (a gain of 1 for one user; ``h2 P2 = h1 - 1`` for two)."""
    k = draw(st.sampled_from([1, 2]))
    h = [draw(st.floats(0.01, 3.0)) for _ in range(k)]
    p = [draw(st.floats(0.0, 20.0)) for _ in range(k)]
    if draw(st.booleans()):  # the boundary
        if k == 1:
            h[0] = 1.0 + draw(NEAR)
        else:
            h[0] = draw(st.floats(1.0, 3.0))
            p[1] = (h[0] - 1.0) / h[1] * (1.0 + draw(NEAR))
    return StandardChannel(h=h, p_max=[x + 1.0 for x in p]), p


@settings(max_examples=500, deadline=None)
@given(_powers_on_either_side())
def test_zero_rate_is_in_the_region_iff_its_polygon_is_not_empty(case):
    """``contains`` and ``vertices`` read the bounds at one rate tolerance."""
    ch, p = case
    region = build_region(p, ch)
    assert region.contains((0.0,) * ch.num_users) == bool(region.vertices)


def test_vertices_inside_and_facet_perturbations_outside():
    gen = rng(28)
    for _ in range(50):
        ch = random_channel(gen, 2, h_high=1.5)
        powers = random_feasible_powers(gen, ch)
        region = build_region(powers, ch)
        for v in region.vertices:
            assert region.contains(v)
        # Push 1e-6 beyond each active facet along its outward normal.
        for users, bound in region.halfspaces:
            on_facet = [v for v in region.vertices
                        if abs(sum(v[k] for k in users) - bound) <= 1e-9]
            if not on_facet:
                continue
            norm = math.sqrt(len(users))
            for v in on_facet:
                outside = list(v)
                for k in users:
                    outside[k] += 1e-6 / norm
                assert not region.contains(outside)


def test_zero_capacity_lift_feasibility_flips_at_threshold():
    # With h1 < 1 <= h2, user 2 can transmit only once 1 + h1*P1 > h2.
    ch = StandardChannel(h=(0.1, 1.4), p_max=(10, 10))
    flip = (ch.h[1] - 1) / ch.h[0]  # = 4
    p2 = 0.5
    assert not is_feasible((flip - 1e-6, p2), ch)[0]
    assert is_feasible((flip, p2), ch)[0]
    assert is_feasible((flip + 1e-6, p2), ch)[0]
    ok, witness = is_feasible((flip - 1e-6, p2), ch)
    assert witness.users == (1,)
    # The bound for user 2 turns positive together with feasibility.
    region = build_region((flip + 1e-3, p2), ch)
    assert region.halfspaces[1][1] > 0


def test_union_sweep_corners():
    results = union_sweep(CH2, 2)
    assert [p for p, _ in results] == [(0.0, 0.0), (0.0, 10.0), (10.0, 0.0), (10.0, 10.0)]
    assert all(region.feasible for _, region in results)


def test_union_sweep_includes_the_p_max_edge():
    # 0.11 * 10 / 10 is 0.11000000000000001, above p_max: a grid built that
    # way lost its last row and column to the box check.
    ch = StandardChannel(h=(0.5, 0.5), p_max=(0.11, 0.11))
    results = union_sweep(ch, 11)
    assert len(results) == 121  # h < 1, so every grid point is feasible
    assert max(p1 for (p1, _), _ in results) == 0.11
    assert results[-1][0] == (0.11, 0.11)


def test_union_sweep_zero_power_cap():
    ch = StandardChannel(h=(0.1, 0.2), p_max=(0, 0))
    results = union_sweep(ch, 2)
    assert len(results) == 1
    assert results[0][0] == (0.0, 0.0)


def test_union_sweep_skips_infeasible_points():
    ch = StandardChannel(h=(0.1, 1.4), p_max=(10, 10))
    results = union_sweep(ch, 11)
    points = {p for p, _ in results}
    for p1 in range(0, 11):
        for p2 in range(0, 11):
            expected = p2 == 0 or p1 >= 4  # slack of subset {2} flips at P1=4
            if expected:
                expected = is_feasible((float(p1), float(p2)), ch)[0]
            assert ((float(p1), float(p2)) in points) == expected
    assert (3.0, 1.0) not in points
    assert (4.0, 1.0) in points


def test_union_sweep_requires_two_users():
    with pytest.raises(ValidationError, match="users"):
        union_sweep(StandardChannel(h=(0.5,), p_max=(1,)), 5)
    with pytest.raises(ValidationError, match="grid_steps"):
        union_sweep(CH2, 1)


@pytest.mark.parametrize("steps", [2.5, "3", None])
def test_union_sweep_refuses_a_step_count_that_is_not_an_integer(steps):
    with pytest.raises(ValidationError, match="grid_steps: must be an integer"):
        union_sweep(CH2, steps)


@pytest.mark.parametrize("exponent, feasible", [(33, False), (43, True)])
def test_feasibility_tolerance_from_both_sides(exponent, feasible):
    """One user at its cap 1 with ``h = 1 + 2^-e`` has the slack ``-2^-e``:
    -1.16e-10 lies past ``FEASIBILITY_TOL`` (1e-12), -1.1e-13 inside it."""
    ch = StandardChannel(h=(1.0 + 2.0 ** -exponent,), p_max=(1.0,))
    assert secrecy_slack((0,), (1.0,), ch) == -2.0 ** -exponent
    assert is_feasible((1.0,), ch)[0] is feasible
    assert build_region((1.0,), ch).feasible is feasible


@pytest.mark.parametrize("excess, inside", [(1e-10, False), (1e-13, True)])
def test_contains_tolerance_from_both_sides(excess, inside):
    """A rate past the bound ``b1`` by 1e-10 lies outside the region, and by
    1e-13 inside it: ``CONTAINS_TOL`` is 1e-12."""
    region = build_region((1.0, 0.5), StandardChannel(h=(0.5, 0.25), p_max=(1.0, 1.0)))
    b1, _, b12 = region.bounds
    assert b1 + 1e-10 < b12  # only the halfspace of user 1 decides
    assert region.contains((b1 + excess, 0.0)) is inside
