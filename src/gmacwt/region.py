"""The allowable power set and fixed-power rate regions.

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
for a block of power points at once (``_subset_table``).  numpy is
imported inside the functions that build arrays, so the CLI starts
without it.
"""

from __future__ import annotations

import sys
from collections import deque
from functools import cache
from itertools import accumulate, repeat
from typing import TYPE_CHECKING

from .channel import (StandardChannel, ValidationError, _as_float_tuple, _as_int, _capacities,
                      _check_grid, _checked_powers, _Record, setfield)

if TYPE_CHECKING:
    import numpy as np

#: Slack allowed on the subset power constraints; absorbs rounding for
#: optimizers that return points on the boundary.
FEASIBILITY_TOL = 1e-12

#: Slack allowed on a rate: in region membership, and by the vertices.
CONTAINS_TOL = 1e-12

#: Cap on the grid points of ``union_sweep``, which keeps a ``RateRegion``
#: per feasible point: about 0.46 KB each at peak, measured as 191 MB of
#: peak RSS (27 MB of it the interpreter with numpy) for the 360,000 rows
#: of an all-feasible 600-step sweep.  The CLI's region sweep writes its
#: CSV from ``_sweep_table`` instead, at 131 MB of peak RSS for the same
#: sweep, most of it the CSV text.
MAX_SWEEP_POINTS = 1_000_000


def _bounds(table, unit):
    """Region bounds ``C(P_S) - C(hP_S / (1 + hP_{S^c}))`` of every
    nonempty subset at each point of a subset table: one point per row,
    in bitmask order.

    Each is ``channel._secrecy_rate``'s one log ``C(N / D)``, with ``N =
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
    each sum adds its terms from the highest index down, as the
    per-subset reference in ``tests/helpers.py`` does.
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


def _infeasible(columns, h):
    """Where some gain-sorted prefix is violated, on a grid of points.
    A column is a float or an axis that broadcasts against the others;
    each verdict involves every user, so it has the whole grid's shape."""
    order = _gain_order(h)
    first, *rest = _violated_prefixes([columns[k] for k in order],
                                      [h[k] * columns[k] for k in order])
    for violated in rest:
        first |= violated  # each is a new array, so it may be updated
    return first


def _subset_sums(terms, empty):
    """Every subset's sum of ``terms`` in bitmask order, by doubling:
    entry ``m`` is ``empty`` plus ``terms[j]`` for each set bit ``j`` of
    ``m``, lowest bit first."""
    sums = [empty]
    for term in terms:
        sums += [s + term for s in sums]
    return sums


@cache
def _subsets(k: int, first: int = 0) -> tuple[tuple[int, ...], ...]:
    """User tuples of every nonempty subset of ``k`` users in bitmask
    order, the users numbered from ``first``: built on the first call for
    each numbering and K and shared by every later one (7 MB at K = 16,
    held for the life of the process)."""
    return tuple(_subset_sums([(j,) for j in range(first, first + k)], ())[1:])


def _finite_powers(powers, ch: StandardChannel) -> tuple[float, ...]:
    """``powers`` as one finite float per user of ``ch``, of any sign."""
    return _as_float_tuple("powers", powers, None, ch.num_users)


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


class InfeasibilityWitness(_Record):
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


class RateRegion(_Record):
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
        return tuple(zip(_subsets(self.num_users), self.bounds))

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
        return all(s <= b + CONTAINS_TOL for s, b in zip(_subset_sums(r, 0.0)[1:], self.bounds))

    def to_json_dict(self) -> dict:
        """The region as a JSON document, with fresh dicts on every call.

        Each halfspace's ``subset`` is a tuple of 1-based users shared by
        every region with the same K.  A halfspace dict then holds only
        that immutable tuple and a float, so CPython does not track it for
        the cyclic garbage collector once a collector pass has examined the
        shared tuples, and the 2^K - 1 dicts of a call give the collector
        nothing to walk.
        """
        return self._document([{"subset": users, "bound": bound}
                               for users, bound in zip(_subsets(self.num_users, 1), self.bounds)])

    def _document(self, halfspaces) -> dict:
        """The region's JSON document with ``halfspaces`` as its halfspace list,
        for ``to_json_dict`` and the CLI's region writer: the one place its top-level
        keys are spelled (each writer spells a halfspace's ``subset`` and ``bound``)."""
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
    feasible = ~_infeasible(columns, ch.h)
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
