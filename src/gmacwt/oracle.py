"""Brute-force grid verification of the closed-form optimizers.

Exhaustive evaluation over power grids, used by the tests and by the CLI's
``--verify`` through ``verify_sum_rate`` and ``verify_jamming``.  Each
oracle searches its solver's set: the sum-rate oracle the allowable power
set (a grid filtered by its constraints), the jamming oracle the box.  A
closed form passes when its powers lie in that set, the oracle's formula
gives its rate there within ``VERIFY_TOL``, and no grid point beats that
rate by more; a grid may fall short of it by any amount.  Ties go to the
lexicographically smallest power vector, so runs are bit-identical.

The sum-rate oracle decides feasibility at one point per block, not at
every grid point.  Write ``x = P_S``, ``y = hP_S``, ``a = P_{S^c}`` and
``b = hP_{S^c}`` for a subset ``S``.  A point whose ``S`` is violated
(``x (1 + b) < y``) has a lower sum rate than the same point with
``P_S = 0``, since beating it needs ``x (1 + b) > y (1 + a)``; that point
is on the grid and comes earlier in lexicographic order.  So in exact
arithmetic the grid's first top-rate point is feasible, and the
prefix check of ``gmacwt.region`` runs on the whole block only when
rounding has made that point infeasible.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from .channel import (MAX_GRID_POINTS, InternalError, StandardChannel, _capacities,
                      _check_grid, _check_rate_unit, _Record, _step_points, setfield)
from .region import _axis_blocks, _grid_axis, _infeasible, _witness

if TYPE_CHECKING:
    from .jamming import JammingSolution, TwoUserChannel
    from .sumrate import SumRateSolution

#: The one tolerance of ``--verify``'s rule (see the module docstring).
VERIFY_TOL = 1e-9


class GridSpec(_Record):
    """Grid resolution for the brute-force oracles.

    Each axis is ``{0, step, ..., p_max}`` with ``step = p_max /
    (steps_per_axis - 1)``: ``steps_per_axis`` uniform points whose first
    and last are exactly 0 and ``p_max`` (the grid of ``union_sweep``).
    The count is an integer from 2 to ``MAX_GRID_POINTS``, one axis's cap.
    """

    __slots__ = ("steps_per_axis",)

    def __init__(self, steps_per_axis=11):
        setfield(self, "steps_per_axis", _check_grid("steps_per_axis", steps_per_axis, 1))


#: Grid points evaluated at once; bounds the oracles' memory and keeps
#: the arrays cache-sized.  The sum-rate oracle's per-user columns are
#: axes that broadcast, so only its per-point arrays count.
_BLOCK_ENTRIES = 1 << 16


def grid_max_sum_rate(ch: StandardChannel, spec: GridSpec):
    """Exhaustive sum-rate maximization over the feasible grid points.

    The sum rate is the full set's bound.  User ``k``'s axis is array
    dimension ``k`` and numpy broadcasts the axes against each other, so
    a sum over the last users is only as large as their part of the grid.
    The grid is searched a block of at most ``_BLOCK_ENTRIES`` points at
    a time: the leading axes are fixed at one point each (as many as
    needed), the next axis is sliced and the remaining axes are taken
    whole.  The blocks come in lexicographic order, so memory does not
    grow with the grid and the first maximum is the lexicographically
    smallest.

    A block is skipped unless its first top-rate point beats the best so
    far (strictly, so a tie keeps the earlier point).  Only that point is
    checked for feasibility, by ``region._witness``, whose prefix sums are
    the float operations of ``region._infeasible`` in the same order.  By
    the module docstring's argument it is feasible in exact arithmetic;
    if rounding makes it read infeasible, the block's points are masked by
    the full prefix check and its argmax is taken again.  A feasible point
    that beats an infeasible one lies in the same block or an earlier one,
    so the result is the first maximum among the feasible points, as a
    search that masks every block would find.

    Returns
    -------
    (powers, rate) : (tuple of float, float)
        The maximizing grid point (lexicographically smallest on ties)
        and its sum secrecy rate.
    """
    steps, k = spec.steps_per_axis, ch.num_users
    _check_grid("steps_per_axis", steps, k)

    import numpy as np
    cut = 0  # the sliced axis; the axes before it are fixed
    while steps ** (k - 1 - cut) > _BLOCK_ENTRIES:
        cut += 1
    # user j's axis as array dimension j (of the block: counted from the end)
    rest = [_grid_axis(p, steps).reshape(-1, *[1] * (k - 1 - j))
            for j, p in enumerate(ch.p_max) if j > cut]
    run = _BLOCK_ENTRIES // math.prod(len(a) for a in rest)
    best, best_rate = None, -math.inf  # zero power is always feasible, so a max exists
    for fixed in itertools.product(*(_grid_axis(p, steps).tolist() for p in ch.p_max[:cut])):
        for part in _axis_blocks(ch.p_max[cut], steps, run):
            columns = [*fixed, part.reshape(-1, *[1] * (k - 1 - cut)), *rest]
            rate = _sum_rates(columns, ch)
            for masked in (False, True):
                i = int(rate.argmax())  # first max = lexicographically smallest
                if not rate.flat[i] > best_rate:
                    break
                index = np.unravel_index(i, rate.shape)
                point = (*fixed, *(float(x.flat[n]) for x, n in zip([part, *rest], index)))
                if masked or _witness(point, ch) is None:
                    best, best_rate = point, rate.flat[i]
                    break
                # only rounding gets here: mask the block and take its argmax again
                rate[_infeasible(columns, ch.h)] = -math.inf
    return best, float(best_rate)


def _sum_rates(columns, ch: StandardChannel):
    """The full set's bound (its complement is empty) at the points of the
    per-user ``columns``, axes that broadcast; feasibility is not checked."""
    hp = [g * x for g, x in zip(ch.h, columns)]
    s_p, s_hp = columns[-1], hp[-1]
    for j in reversed(range(len(columns) - 1)):  # as the subset table adds
        s_p = s_p + columns[j]
        s_hp = s_hp + hp[j]
    return _capacities(s_p, ch.rate_unit) - _capacities(s_hp, ch.rate_unit)


def _jam_rates(p1, p2, ch: TwoUserChannel, unit):
    """The jamming objective at transmit power ``p1``, jamming power ``p2``."""
    return _capacities(p1 / (1.0 + p2), unit) - _capacities(ch.h1 * p1 / (1.0 + ch.h2 * p2), unit)


def grid_max_jamming(ch: TwoUserChannel, spec: GridSpec, unit: str = "bits"):
    """Exhaustive maximization of the jamming objective over the box.

    The jamming power axis carries ``steps_per_axis`` points; the
    transmitter axis only needs the endpoints {0, p1_max}, because at
    fixed ``p2`` the objective is ``capacity(a*p1) - capacity(b*p1)`` with
    constants ``a``, ``b``, which is monotone in ``p1`` (its derivative
    has the constant sign of ``a - b``), so the maximum over ``p1`` is at
    an endpoint.  The reported rate is clamped at 0 (transmitting nothing
    always achieves 0).  At ``p1 = 0`` the objective is 0 for every
    ``p2``, so only ``p1 = p1_max`` is evaluated, and it replaces the
    silent point ``(0, 0)`` only where its rate is strictly positive.

    That is one evaluated point per jamming power, so ``GridSpec``'s cap
    of one axis is the grid's.  The axis is evaluated in slices of
    ``_BLOCK_ENTRIES`` points, so memory does not grow with it;
    a slice's best point replaces the best so far only if strictly
    greater, which keeps the first (smallest ``p2``) maximum.

    Returns
    -------
    (p1, p2, rate) : (float, float, float)
    """
    _check_rate_unit(unit)

    p1 = ch.p1_max
    best = (0.0, 0.0, 0.0)
    if p1 > 0:
        for p2 in _axis_blocks(ch.p2_max, spec.steps_per_axis, _BLOCK_ENTRIES):
            values = _jam_rates(p1, p2, ch, unit)
            i = int(values.argmax())  # first max = smallest p2 on ties
            if values[i] > best[2]:
                best = (p1, float(p2[i]), float(values[i]))
    return best


def _certify(who, powers, caps, rate_at, claimed, grid, found):
    """``claimed - grid`` if ``powers`` lie in the box ``caps`` and ``rate_at``
    them (-inf outside the set searched) is ``claimed``, which ``grid`` does
    not beat, within ``VERIFY_TOL``; raises InternalError otherwise."""
    at = rate_at(powers) if all(0.0 <= p <= c for p, c in zip(powers, caps)) else -math.inf
    if at == -math.inf:
        raise InternalError(f"{who}: closed-form powers {list(powers)} outside the set searched")
    if not abs(claimed - at) <= VERIFY_TOL:
        raise InternalError(f"{who}: rate {claimed}; the oracle's at powers {list(powers)} is {at}")
    if grid - claimed > VERIFY_TOL:
        raise InternalError(f"{who} disagree: grid beats closed form by {grid - claimed}{found}")
    return claimed - grid


def _default_steps(ch: StandardChannel) -> int:
    """11 up to 3 users, else the most of 6..2 the grid cap admits (the optimum is a corner)."""
    k = ch.num_users
    return 11 if k <= 3 else next(s for s in (6, 5, 4, 3, 2) if s ** k <= MAX_GRID_POINTS)


def _certify_sum_rate(who, ch: StandardChannel, powers, claimed, steps):
    """``_certify`` on ``grid_max_sum_rate``'s grid; returns ``(p_star, rate, gap)``."""
    import numpy as np
    p_star, rate = grid_max_sum_rate(ch, GridSpec(steps))
    gap = _certify(who, powers, ch.p_max,
                   lambda p: -math.inf if _witness(p, ch) is not None else
                   float(_sum_rates(np.array(p)[:, None], ch)[0]),
                   claimed, rate, f"; oracle found p_star={list(p_star)}")
    return list(p_star), rate, gap


def verify_sum_rate(ch: StandardChannel, sol: SumRateSolution, steps=None) -> dict:
    """Cross-check ``max_sum_rate(ch)`` against ``grid_max_sum_rate``.

    ``steps`` is the grid's points per axis, held to ``_check_grid`` (default ``_default_steps``).
    Returns the CLI's ``"oracle"`` JSON entry, or raises InternalError.
    """
    steps = _check_grid("steps", _default_steps(ch) if steps is None else steps, ch.num_users)
    p_star, rate, gap = _certify_sum_rate("sum-rate optimizer and grid oracle", ch, sol.powers,
                                          sol.sum_rate, steps)
    return {"p_star": p_star, "sum_rate": rate, "gap": gap}


def verify_jamming(ch: StandardChannel, sol: JammingSolution, p2_steps=None) -> dict:
    """Cross-check ``solve_jamming`` on the two-user channel ``ch`` (users
    in their original order) against the matching grid oracle.

    The degenerate case's NoJam solution came from the sum-rate optimizer,
    so ``grid_max_sum_rate`` checks it on the default grid, its powers mapped
    back to the users of ``ch``; any other, ``grid_max_jamming`` on the box,
    with ``p2_steps`` points on ``[0, p2_max]`` (``_check_grid``'s one axis,
    checked either way; default 1e-3 apart, or the cap where that is finer).

    Returns the CLI's ``"oracle"`` JSON entry, whose ``kind`` names the
    oracle; raises InternalError when the closed form fails the module's rule.
    """
    from .jamming import BRANCH_NO_JAM, CASE_DEGENERATE, TwoUserChannel
    two, perm = TwoUserChannel.from_standard(ch)
    if p2_steps is None:  # both ends of an axis shorter than the default spacing
        p2_steps = 2 if two.p2_max < 1e-3 else min(_step_points(1e-3, two.p2_max), MAX_GRID_POINTS)
    p2_steps = _check_grid("p2_steps", p2_steps, 1)
    if sol.case_tag == CASE_DEGENERATE and sol.branch == BRANCH_NO_JAM:
        powers = (sol.p1, sol.p2) if perm == (0, 1) else (sol.p2, sol.p1)
        p_star, rate, gap = _certify_sum_rate("jamming dispatch and sum-rate oracle", ch, powers,
                                              sol.secrecy_rate, _default_steps(ch))
        return {"kind": "sum_rate", "p_star": p_star, "rate": rate, "gap": gap}
    p1, p2, rate = grid_max_jamming(two, GridSpec(p2_steps), ch.rate_unit)
    gap = _certify("jamming solver and grid oracle", (sol.p1, sol.p2), (two.p1_max, two.p2_max),
                   lambda p: max(0.0, float(_jam_rates(*p, two, ch.rate_unit))),
                   sol.secrecy_rate, rate, f"; oracle found (p1, p2)=({p1}, {p2})")
    return {"kind": "jamming", "powers": [p1, p2], "rate": rate, "gap": gap}
