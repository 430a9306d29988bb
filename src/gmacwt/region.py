"""Rate quantities, the allowable power set, and fixed-power rate regions.

For a set ``S`` of users transmitting at powers ``P`` over a standard-form
channel, four Gaussian-codebook rate quantities matter: the receiver-side
and eavesdropper-side capacities of ``S`` with the complement's signals
removed (``main``/``tap``) or treated as additional noise (``main_intf``/
``tap_intf``).  Perfect secrecy with Gaussian codebooks is achievable for
all rate vectors with ``sum(R_k, k in S) <= main(S) - tap_intf(S)`` for
every nonempty ``S``, provided the powers lie in the allowable set: inside
the box ``0 <= P_k <= p_max_k`` and with nonnegative secrecy slack for
every subset, which is exactly the condition ``main(S) >= tap_intf(S)``.

Membership in the allowable set is decided on the K prefixes of the users
sorted by gain (``_violated_prefixes``), for one point or a broadcast grid.
Region bounds are read from one table of every subset's power sums, built
for a block of power points at once (``_subset_table``), each as one log
of the rate kernel (``_secrecy_rate``, which the sum rate and the jamming
objective take too).  numpy is
imported inside the functions that build arrays, not at module level, so
the closed forms (``sumrate``, ``jamming``) and the CLI start without it.
"""

from __future__ import annotations

import gc
import math
import sys
from collections import deque
from itertools import accumulate, repeat
from typing import TYPE_CHECKING

from .channel import StandardChannel, _as_float_tuple, _as_int, _check_rate_unit, _check_totals
from .errors import ValidationError
from .record import Record, setfield

if TYPE_CHECKING:
    import numpy as np

#: Slack allowed on the subset power constraints; absorbs rounding for
#: optimizers that return points on the boundary.
FEASIBILITY_TOL = 1e-12

#: Slack allowed on a rate: in region membership, and by the vertices.
CONTAINS_TOL = 1e-12

#: Hard cap on the number of grid points an oracle or a jamming sweep may
#: evaluate.
MAX_GRID_POINTS = 10_000_000

#: Cap on the grid points of ``union_sweep``, which keeps a ``RateRegion``
#: per feasible point: about 0.46 KB each at peak, measured as 191 MB of
#: peak RSS (27 MB of it the interpreter with numpy) for the 360,000 rows
#: of an all-feasible 600-step sweep.  The CLI's region sweep writes its
#: CSV from ``_sweep_table`` instead, at 131 MB of peak RSS for the same
#: sweep, most of it the CSV text.
MAX_SWEEP_POINTS = 1_000_000


def _check_grid(name, steps, axes, cap=MAX_GRID_POINTS):
    """``steps`` as an int, the points on each of ``axes`` axes of a grid;
    refused if not an integer, below 2, or if the grid holds more than
    ``cap`` points.  The message names the caller's argument ``name``."""
    steps = _as_int(name, steps)
    if steps < 2:
        raise ValidationError(f"{name}: must be >= 2 (got {steps})")
    if steps ** axes > cap:
        raise ValidationError(
            f"{name}: grid would have {steps ** axes} points (cap {cap})")
    return steps


def _step_points(step, p_max):
    """Points of ``{0, step, 2 step, ...}`` on ``[0, p_max]``, the last allowed 1e-9
    steps past it for rounding; ``MAX_GRID_POINTS + 1`` for any count past the cap.
    The ratio is clamped to the cap first, so an infinite one never reaches ``int()``."""
    return int(min(p_max / step, MAX_GRID_POINTS) + 1e-9) + 1


def awgn_capacity(snr: float, unit: str = "bits") -> float:
    """Capacity ``0.5 * log(1 + snr)`` of a unit-noise Gaussian channel.

    Strictly increasing in ``snr`` with value 0 at 0.  ``unit`` selects
    log base 2 ("bits") or natural log ("nats").
    """
    if not snr >= 0:  # also refuses NaN; inf has capacity inf
        raise ValidationError(f"snr: must be >= 0 (got {snr})")
    return _capacity(snr, unit)


def _capacity(x: float, unit: str) -> float:
    """``C(x) = 0.5 * log1p(x)`` in ``unit``, for any ``x > -1``."""
    if unit == "bits":
        return 0.5 * math.log1p(x) / math.log(2)
    if unit == "nats":
        return 0.5 * math.log1p(x)
    _check_rate_unit(unit)  # raises: the unit is neither


def _capacities(x: np.ndarray, unit: str) -> np.ndarray:
    """``_capacity`` of every entry of an array."""
    import numpy as np
    nats = 0.5 * np.log1p(x)
    return nats / math.log(2) if unit == "bits" else nats


def _secrecy_rate(n: float, a: float, c_m: float, b: float, c_t: float,
                  unit: str) -> float:
    """``C(a / (1 + c_m)) - C(b / (1 + c_t))`` as one log, ``C(n / D)``.

    Every closed-form secrecy rate is such a difference, and it equals
    ``C(N / D)`` with ``N = a (1 + c_t) - b (1 + c_m)`` and ``D = (1 +
    c_m)(1 + b + c_t)``.  The caller supplies ``n``, formed from terms such
    as ``P_k (1 - h_k)``, in which a gain near 1 loses nothing (``1 - h_k``
    is exact for ``h_k`` in [1/2, 2]), where the difference of two nearly
    equal capacities cancels.  Where ``n / D < -1/2``, at which ``1 + n /
    D`` cancels instead (or rounds to 0), or where ``n`` or ``D``
    overflowed, the difference is returned, well-conditioned there and
    finite, as ``_check_totals`` held.  ``_bounds`` is the same rule for arrays.
    """
    d = (1.0 + c_m) * (1.0 + b + c_t)
    x = n / d + 0.0  # + 0.0: a zero numerator of either sign is the rate +0.0
    if -0.5 <= x < math.inf and d < math.inf:
        return _capacity(x, unit)
    return _capacity(a / (1.0 + c_m), unit) - _capacity(b / (1.0 + c_t), unit)


def _bounds(table, unit):
    """Region bounds ``C(P_S) - C(hP_S / (1 + hP_{S^c}))`` of every
    nonempty subset at each point of a subset table: one point per row,
    in bitmask order.

    Each is ``_secrecy_rate``'s one log ``C(N / D)``, with ``N =
    sum(P_k (1 - h_k), S) + P_S hP_{S^c}`` and ``D = 1 + T``, where ``T =
    sum(h_k P_k)`` is the full set's sum, one value per point; the
    difference where ``N / D < -1/2`` or ``N`` or ``D`` overflowed.
    """
    import numpy as np
    s_p, s_hp, c_hp, s_gap = (sums[1:] for sums in table)
    d = 1.0 + s_hp[-1]
    with np.errstate(all="ignore"):  # the entries that warn are replaced below
        x = (s_gap + s_p * c_hp) / d
        rates = _capacities(x, unit)
    ok = (x >= -0.5) & (x < np.inf) & (d < np.inf)
    if not ok.all():
        far = ~ok
        rates[far] = (_capacities(s_p[far], unit)
                      - _capacities(s_hp[far] / (1.0 + c_hp[far]), unit))
    return rates.T


def _subset_table(points, h):
    """Sums over every user subset at the points (rows) of ``points``, an
    array or a list of power tuples.

    Returns ``(s_p, s_hp, c_hp, s_gap)``, each ``(2^K, N)``: row ``m``
    holds the sums of ``P_k``, of ``h_k P_k`` and of ``P_k (1 - h_k)`` over
    the subset with bitmask ``m``, and of ``h_k P_k`` over its complement.
    Pass ``j`` adds user ``j`` to every subset of the users above it, so
    each sum adds its terms from the highest index down, as
    ``_scalar_sums`` does.
    """
    import numpy as np
    points = np.asarray(points, dtype=float)
    h = np.asarray(h)
    n, k = points.shape
    tables = []
    for values in (points, points * h, points * (1.0 - h)):
        table = np.zeros((1 << k, n))
        for j in range(k - 1, -1, -1):
            step = 1 << j
            np.add(table[::2 * step], values[:, j], out=table[step::2 * step])
        tables.append(table)
    s_p, s_hp, s_gap = tables
    return s_p, s_hp, s_hp[::-1], s_gap


def _gain_order(h) -> list[int]:
    """The users sorted by gain, highest first (ties by index: the sort is stable)."""
    return sorted(range(len(h)), key=h.__getitem__, reverse=True)


def _violated_prefixes(p, hp):
    """For users listed in gain order, with powers ``p`` and products
    ``hp`` (``h_k * P_k``), whether the secrecy slack ``P_S - hP_S / (1 +
    hP_{S^c})`` of each prefix ``S = [:j + 1]`` is below ``-FEASIBILITY_TOL``.

    Each entry is a float or an array with one entry per point, so one
    point and a grid share this arithmetic.  The complement of a prefix
    is a suffix, so every sum is a running sum.
    """
    c_hp = list(accumulate(reversed(hp[1:]), initial=0.0))[::-1]
    return [a - b / (1.0 + c) < -FEASIBILITY_TOL
            for a, b, c in zip(accumulate(p), accumulate(hp), c_hp)]


def _infeasible(columns, hp, h):
    """Where some gain-sorted prefix is violated, on a grid of points;
    ``hp[k]`` is ``h[k] * columns[k]``, which callers have formed already.
    A column is a float or an axis that broadcasts against the others;
    each verdict involves every user, so it has the whole grid's shape."""
    order = _gain_order(h)
    first, *rest = _violated_prefixes([columns[k] for k in order], [hp[k] for k in order])
    for violated in rest:
        first |= violated  # each is a new array, so it may be updated
    return first


def _subset_users(k: int) -> list[tuple[int, ...]]:
    """User tuples of every subset in bitmask order, empty set first."""
    users = [()]
    for j in range(k):
        users += [u + (j,) for u in users]
    return users


def _finite_powers(powers, ch: StandardChannel) -> tuple[float, ...]:
    """``powers`` as one finite float per user of ``ch``, of any sign."""
    return _as_float_tuple("powers", powers, None, ch.num_users)


def _checked_powers(powers, ch: StandardChannel) -> tuple[float, ...]:
    """``powers`` as one finite float >= 0 per user of ``ch``, with finite totals."""
    p = _as_float_tuple("powers", powers, ">=", ch.num_users)
    _check_totals(p, ch.h, "powers", "powers*h")
    return p


def _subset_indices(subset, num_users) -> tuple[int, ...]:
    try:
        idx = sorted({_as_int("subset", k) for k in subset})
    except TypeError:  # not iterable
        raise ValidationError("subset: must be a sequence of user indices") from None
    if not idx:
        raise ValidationError("subset: must be nonempty")
    if idx[0] < 0 or idx[-1] >= num_users:
        raise ValidationError(
            f"subset: user indices must lie in [0, {num_users - 1}] (got {idx})")
    return tuple(idx)


def _scalar_sums(subset, powers, ch: StandardChannel):
    """Sums of ``P_k`` and ``h_k P_k`` over ``subset`` and over its
    complement, ``[s_p, s_hp, c_p, c_hp]``, equal to the table's entries."""
    p = _checked_powers(powers, ch)
    idx = _subset_indices(subset, ch.num_users)
    sums = [0.0] * 4
    for k in reversed(range(ch.num_users)):
        side = 0 if k in idx else 2
        sums[side] += p[k]
        sums[side + 1] += ch.h[k] * p[k]
    return sums


class SubsetRates(Record):
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


def subset_rates(subset, powers, ch: StandardChannel) -> SubsetRates:
    """The four capacity quantities of ``subset`` at powers ``powers``."""
    s_p, s_hp, c_p, c_hp = _scalar_sums(subset, powers, ch)
    unit = ch.rate_unit
    return SubsetRates(
        main=awgn_capacity(s_p, unit),
        tap=awgn_capacity(s_hp, unit),
        main_intf=awgn_capacity(s_p / (1.0 + c_p), unit),
        tap_intf=awgn_capacity(s_hp / (1.0 + c_hp), unit))


def secrecy_slack(subset, powers, ch: StandardChannel) -> float:
    """Feasibility margin of ``subset``:
    ``sum(P_k, S) - sum(h_k P_k, S) / (1 + sum(h_k P_k, S^c))``.

    Its sign equals the sign of ``main(S) - tap_intf(S)``, i.e. of the
    subset's secrecy rate bound.
    """
    s_p, s_hp, _, c_hp = _scalar_sums(subset, powers, ch)
    return s_p - s_hp / (1.0 + c_hp)


class InfeasibilityWitness(Record):
    """First violated constraint: a power bound or a subset constraint.
    ``kind`` is "bound" or "subset"; ``users`` holds 0-based indices."""

    __slots__ = ("kind", "users")

    def __init__(self, kind, users):
        setfield(self, "kind", kind)
        setfield(self, "users", users)


def _witness(p, ch: StandardChannel) -> InfeasibilityWitness | None:
    """First violated constraint at the finite powers ``p``, or None."""
    for k, v in enumerate(p):
        if v < 0 or v > ch.p_max[k]:
            return InfeasibilityWitness(kind="bound", users=(k,))
    order = _gain_order(ch.h)
    violated = _violated_prefixes([p[k] for k in order], [ch.h[k] * p[k] for k in order])
    if any(violated):
        users = order[:violated.index(True) + 1]
        return InfeasibilityWitness(kind="subset", users=tuple(sorted(users)))
    return None


def is_feasible(powers, ch: StandardChannel):
    """Test membership in the allowable power set.

    True iff ``0 <= P_k <= p_max_k`` for every user and the secrecy slack
    of every nonempty subset is >= -FEASIBILITY_TOL.  On failure the
    second return value names the first violated constraint: a bound, in
    user order, else the shortest violated prefix of the users sorted by
    gain, highest first (ties by index).

    Only those K prefixes need checking.  Write ``a = P_S``,
    ``b = hP_S`` and ``T = sum h_k P_k``.  Since ``hP_{S^c} = T - b``,
    ``slack(S) >= -tol`` is ``(a + tol)(1 + T - b) >= b``, i.e.
    ``b <= psi(a) = (1 + T)(a + tol) / (1 + a + tol)``, and ``psi`` is
    concave, so the allowed points ``(a, b)`` form a convex set.  Every
    subset's point lies in the zonotope ``sum_k [0, (P_k, h_k P_k)]``,
    below its upper hull, whose vertices are the gain-sorted prefixes
    (the steepest segments first).  If every prefix is allowed, so is
    each hull edge between two of them, and with it every subset.  So
    no 2^K enumeration is done, and the witness need not be the violated
    subset of lowest bitmask.

    Returns
    -------
    (bool, InfeasibilityWitness or None)
    """
    witness = _witness(_finite_powers(powers, ch), ch)
    return witness is None, witness


class RateRegion(Record):
    """Halfspace representation of the achievable region at fixed powers.

    One halfspace ``sum(R_k, k in S) <= bound`` per nonempty subset ``S``:
    ``bounds[m - 1]`` is the bound of the subset with bitmask ``m`` (user
    ``k`` is bit ``k``), so there are 2^K - 1 of them in ascending bitmask
    order.  ``feasible`` records whether the powers lie in the allowable
    set; if they do, every bound is at least ``-FEASIBILITY_TOL``.
    """

    __slots__ = ("bounds", "feasible", "rate_unit")

    def __init__(self, bounds, feasible, rate_unit):
        setfield(self, "bounds", bounds)
        setfield(self, "feasible", feasible)
        setfield(self, "rate_unit", rate_unit)

    @property
    def num_users(self) -> int:
        return len(self.bounds).bit_length()

    @property
    def halfspaces(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """``(users, bound)`` per nonempty subset, in bitmask order."""
        return tuple(zip(_subset_users(self.num_users)[1:], self.bounds))

    @property
    def vertices(self) -> tuple[tuple[float, ...], ...] | None:
        """Counterclockwise vertices from the origin for K <= 2 (None
        above), derived from the bounds; empty when a bound is negative."""
        return _vertices(self.bounds)

    def bound(self, subset) -> float:
        """Bound of the halfspace for ``subset`` (0-based indices)."""
        idx = _subset_indices(subset, self.num_users)
        mask = 0
        for k in idx:
            mask |= 1 << k
        return self.bounds[mask - 1]

    def contains(self, rates) -> bool:
        """True iff the (componentwise nonnegative) rate vector satisfies
        every halfspace within CONTAINS_TOL."""
        r = _as_float_tuple("rates", rates, None, self.num_users)
        sums = [0.0]  # every subset's rate sum, in bitmask order, by doubling
        for x in r:
            sums += [s + x for s in sums]
        return all(s <= b + CONTAINS_TOL for s, b in zip(sums[1:], self.bounds))

    def to_json_dict(self) -> dict:
        """The region as a JSON document, with fresh lists on every call.

        The 2^K - 1 halfspaces are built with the cyclic garbage collector
        paused (and left as it was found): they are about 2^(K+1) new
        lists and dicts, none of which can be part of a cycle, and unpaused
        they set off a collector pass every few hundred allocations.  One
        pass still runs inside the call: allocating the outer dict, just
        after the collector is re-enabled, sets off a young-generation pass
        over all of the new objects (12-18 ms at K = 16, now and then an
        older generation's pass of 50-70 ms instead).  Allocating the dict
        inside the pause too would only move that pass to the caller's
        next allocation.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            subsets = [[]]  # 1-based users of every subset, in bitmask order
            for k in range(1, self.num_users + 1):
                subsets += [[*s, k] for s in subsets]
            halfspaces = [{"subset": users, "bound": bound}
                          for users, bound in zip(subsets[1:], self.bounds)]
        finally:
            if enabled:
                gc.enable()
        vertices = self.vertices
        return {
            "feasible": self.feasible,
            "rate_unit": self.rate_unit,
            "halfspaces": halfspaces,
            "vertices": None if vertices is None else [list(v) for v in vertices],
        }


def _vertices(bounds):
    """Counterclockwise vertices from the origin of the region with these
    bounds for K <= 2 (None above); empty when a bound is negative."""
    if len(bounds) == 1:  # the two-user polygon with R2 pinned at 0
        return tuple(v[:1] for v in _vertices([bounds[0], 0.0, bounds[0]]))
    if len(bounds) > 3:
        return None
    b1, b2, b12 = bounds
    if min(b1, b2, b12) < -CONTAINS_TOL:
        return ()
    b1, b2, b12 = max(b1, 0.0), max(b2, 0.0), max(b12, 0.0)
    x, y = min(b1, b12), min(b2, b12)
    kept = [(0.0, 0.0)]
    for pt in ((x, 0.0), (x, min(y, b12 - x)), (min(x, b12 - y), y), (0.0, y)):
        # skip repeats of the previous vertex and of (0, 0), which closes the polygon
        if all(max(abs(pt[0] - q[0]), abs(pt[1] - q[1])) > CONTAINS_TOL
               for q in (kept[-1], kept[0])):
            kept.append(pt)
    return tuple(kept)


def classify_two_user_shape(b1: float, b2: float, b12: float) -> str:
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


def build_region(powers, ch: StandardChannel) -> RateRegion:
    """Achievable-region halfspaces at fixed powers, one per nonempty
    subset, with exact vertices for K <= 2."""
    p = _checked_powers(powers, ch)
    # The witness comes before the bounds are converted to floats: after
    # them, it made perfbench's K = 16 region tasks about 5% slower, by
    # allocation order alone (a tight loop shows no difference).
    table, feasible = _subset_table([p], ch.h), _witness(p, ch) is None
    row, = _bounds(table, ch.rate_unit).tolist()
    return RateRegion(tuple(row), feasible, ch.rate_unit)


def _axis_blocks(p_max: float, steps: int, size: int):
    """The grid ``{0, step, ..., p_max}`` with ``step = p_max / (steps - 1)``,
    in consecutive slices of at most ``size`` points.

    The points are those of ``np.linspace(0, p_max, steps)``, bit for bit:
    ``i * step``, with the last point ``p_max`` itself, so ``(steps - 1) *
    step``, which may overflow, is never formed.  When the step is below
    the smallest normal float (``p_max`` is 0 or tiny), rounding can
    repeat points or carry ``i * step`` past ``p_max``, so the whole axis
    is built, clipped at ``p_max`` and its repeats dropped.
    """
    import numpy as np
    step = p_max / (steps - 1)
    if not step >= sys.float_info.min:
        axis = np.minimum(np.linspace(0.0, p_max, steps), p_max)
        axis = axis[np.append(True, np.diff(axis) > 0)]
        yield from (axis[i:i + size] for i in range(0, len(axis), size))
        return
    for start in range(0, steps, size):
        block = np.arange(start, min(start + size, steps), dtype=float)
        if start + size < steps:
            block *= step
        else:
            block[:-1] *= step
            block[-1] = p_max
        yield block


def _grid_axis(p_max: float, steps: int) -> np.ndarray:
    """The whole grid axis of ``_axis_blocks``; its last point is exactly
    ``p_max``."""
    return next(_axis_blocks(p_max, steps, steps))


def _sweep_table(ch: StandardChannel, grid_steps: int) -> np.ndarray:
    """``union_sweep`` as one array: a row ``(P1, P2, b1, b2, b12)`` per
    feasible grid point, in ascending ``(P1, P2)`` order.  The CLI's
    region sweep and ``union_sweep`` both read it."""
    if ch.num_users != 2:
        raise ValidationError(
            f"users: region sweep requires exactly 2 users (got {ch.num_users})")
    grid_steps = _check_grid("grid_steps", grid_steps, 2, MAX_SWEEP_POINTS)
    import numpy as np
    p1, p2 = (_grid_axis(p, grid_steps) for p in ch.p_max)
    columns = [p1[:, None], p2]  # the grid by broadcasting, P1 down and P2 across
    feasible = ~_infeasible(columns, [g * x for g, x in zip(ch.h, columns)], ch.h)
    i, j = np.nonzero(feasible)  # row-major, i.e. ascending (P1, P2), order
    points = np.stack([p1[i], p2[j]], axis=1)
    return np.concatenate([points, _bounds(_subset_table(points, ch.h), ch.rate_unit)], axis=1)


def union_sweep(ch: StandardChannel, grid_steps: int):
    """Regions at every feasible point of a two-user power grid.

    The grid per axis is ``{0, step, ..., p_max_k}`` with
    ``step = p_max_k / (grid_steps - 1)``, ending exactly at ``p_max_k``;
    infeasible points are skipped, and the grid may hold at most
    ``MAX_SWEEP_POINTS`` points.  Results are emitted in ascending
    ``(P1, P2)`` order so a consumer can plot the union envelope of all
    the regions.

    Returns
    -------
    list of ((P1, P2), RateRegion)
    """
    p1, p2, *bounds = _sweep_table(ch, grid_steps).T.tolist()
    # Each pass below runs in C over every row: the regions are made bare
    # and filled one slot at a time, which is faster than the constructor
    # or a Python loop per row.
    regions = list(map(RateRegion.__new__, repeat(RateRegion, len(p1))))
    for slot, values in ((RateRegion.bounds, zip(*bounds)),
                         (RateRegion.feasible, repeat(True)),
                         (RateRegion.rate_unit, repeat(ch.rate_unit))):
        deque(map(slot.__set__, regions, values), maxlen=0)
    return list(zip(zip(p1, p2), regions))
