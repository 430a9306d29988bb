"""Property tests: the subset table behind is_feasible, build_region and
union_sweep against the per-subset public functions.

Gains spread over [0, 4] with a share within 1e-9 of 1, where a subset's
slack is nearly 0; powers span 1e-6 to 1e6 (and 0), where sums of very
different magnitudes meet.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gmacwt import (
    StandardChannel,
    build_region,
    is_feasible,
    secrecy_slack,
    subset_rates,
    union_sweep,
)
from gmacwt.region import FEASIBILITY_TOL, InfeasibilityWitness, _mask_indices

GAINS = st.one_of(st.floats(0.0, 4.0), st.floats(1.0 - 1e-9, 1.0 + 1e-9))
POWERS = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))


@st.composite
def channel_and_powers(draw, min_users=1, max_users=8):
    """A channel whose caps are the drawn powers, so only the subset
    constraints decide feasibility."""
    k = draw(st.integers(min_users, max_users))
    h = draw(st.lists(GAINS, min_size=k, max_size=k))
    p = tuple(draw(st.lists(POWERS, min_size=k, max_size=k)))
    unit = draw(st.sampled_from(("bits", "nats")))
    return StandardChannel(h=h, p_max=p, rate_unit=unit), p


@settings(max_examples=200, deadline=None)
@given(channel_and_powers())
def test_is_feasible_witness_is_the_lowest_violated_mask(case):
    ch, p = case
    violated = (m for m in range(1, 1 << ch.num_users)
                if secrecy_slack(_mask_indices(m), p, ch) < -FEASIBILITY_TOL)
    first = next(violated, None)
    expected = ((True, None) if first is None
                else (False, InfeasibilityWitness("subset", _mask_indices(first))))
    assert is_feasible(p, ch) == expected


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
