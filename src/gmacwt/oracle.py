"""Brute-force grid verification of the closed-form optimizers.

Exhaustive evaluation over power grids, used by the tests and, through
``verify_sum_rate`` and ``verify_jamming``, by the CLI ``--verify`` flag
as an independent cross-check.  The sum-rate oracle filters the grid
through the allowable-power-set constraints (the set the sum-rate
optimizer works over); the jamming oracle searches the plain box (the set
the jamming solver works over).  Ties are broken toward the
lexicographically smallest power vector so repeated runs are bit-identical.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from .channel import StandardChannel, _check_rate_unit
from .errors import InternalError
from .record import Record, setfield
from .region import _axis_blocks, _capacities, _check_grid, _grid_axis, _infeasible

if TYPE_CHECKING:
    from .jamming import JammingSolution, TwoUserChannel
    from .sumrate import SumRateSolution

#: The closed forms must match the oracles this well: the sum rate (which
#: the grid holds exactly, at a box corner) and the jamming rate (whose
#: optimum lies between grid points).
SUM_RATE_VERIFY_TOL = 1e-9
JAMMING_VERIFY_TOL = 1e-5


class GridSpec(Record):
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

    Feasibility comes from the gain-sorted prefixes of ``gmacwt.region``
    and the sum rate is the full set's bound.  User ``k``'s axis is array
    dimension ``k`` and numpy broadcasts the axes against each other, so
    a sum over the last users is only as large as their part of the grid.
    The grid is searched a block of at most ``_BLOCK_ENTRIES`` points at
    a time: the leading axes are fixed at one point each (as many as
    needed), the next axis is sliced and the remaining axes are taken
    whole.  The blocks come in lexicographic order, so memory does not
    grow with the grid and the first maximum is the lexicographically
    smallest.

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
            hp = [g * x for g, x in zip(ch.h, columns)]
            s_p, s_hp = columns[-1], hp[-1]
            for j in reversed(range(k - 1)):  # as the subset table adds
                s_p = s_p + columns[j]
                s_hp = s_hp + hp[j]
            # the full set's bound; its complement is empty, so no interference
            rate = _capacities(s_p, ch.rate_unit) - _capacities(s_hp, ch.rate_unit)
            rate[_infeasible(columns, hp, ch.h)] = -math.inf
            i = int(rate.argmax())  # first max = lexicographically smallest
            if rate.flat[i] > best_rate:
                index = np.unravel_index(i, rate.shape)
                best_rate = rate.flat[i]
                best = (*fixed, *(float(x.flat[n]) for x, n in zip(columns[cut:], index)))
    return best, float(best_rate)


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
            values = (_capacities(p1 / (1.0 + p2), unit)
                      - _capacities(ch.h1 * p1 / (1.0 + ch.h2 * p2), unit))
            i = int(values.argmax())  # first max = smallest p2 on ties
            if values[i] > best[2]:
                best = (p1, float(p2[i]), float(values[i]))
    return best


def _gap(closed_form, oracle, tol, who, found=""):
    """``closed_form - oracle``; raises InternalError beyond ``tol``."""
    gap = closed_form - oracle
    if abs(gap) > tol:
        raise InternalError(f"{who} disagree by {gap} (tolerance {tol}){found}")
    return gap


def _default_steps(ch: StandardChannel) -> int:
    return 11 if ch.num_users <= 3 else 6


def verify_sum_rate(ch: StandardChannel, sol: SumRateSolution, steps=None) -> dict:
    """Cross-check ``max_sum_rate(ch)`` against ``grid_max_sum_rate``.

    ``steps`` is the grid's points per axis, by default 11 for up to 3
    users and 6 above.  Returns the ``"oracle"`` entry of the CLI's JSON
    document; raises InternalError when the rates differ by more than
    ``SUM_RATE_VERIFY_TOL``.
    """
    if steps is None:
        steps = _default_steps(ch)
    powers, rate = grid_max_sum_rate(ch, GridSpec(steps_per_axis=steps))
    gap = _gap(sol.sum_rate, rate, SUM_RATE_VERIFY_TOL,
               "sum-rate optimizer and grid oracle",
               f"; oracle found p_star={list(powers)}")
    return {"p_star": list(powers), "sum_rate": rate, "gap": gap}


def verify_jamming(ch: StandardChannel, sol: JammingSolution, p2_steps: int) -> dict:
    """Cross-check ``solve_jamming`` on the two-user channel ``ch`` (users
    in their original order) against the matching grid oracle.

    The NoJam solution of the degenerate case came from the sum-rate
    optimizer, so it is checked against ``grid_max_sum_rate`` on the
    default grid, within ``SUM_RATE_VERIFY_TOL``.  Any other solution is
    checked against ``grid_max_jamming`` within ``JAMMING_VERIFY_TOL``,
    on ``max(2, p2_steps)`` points of the jamming power axis
    ``[0, p2_max]``.

    Returns the ``"oracle"`` entry of the CLI's JSON document, whose
    ``kind`` names the oracle; raises InternalError beyond tolerance.
    """
    from .jamming import BRANCH_NO_JAM, CASE_DEGENERATE, TwoUserChannel
    if sol.case_tag == CASE_DEGENERATE and sol.branch == BRANCH_NO_JAM:
        powers, rate = grid_max_sum_rate(
            ch, GridSpec(steps_per_axis=_default_steps(ch)))
        gap = _gap(sol.secrecy_rate, rate, SUM_RATE_VERIFY_TOL,
                   "jamming dispatch and sum-rate oracle")
        return {"kind": "sum_rate", "p_star": list(powers), "rate": rate, "gap": gap}
    two, _ = TwoUserChannel.from_standard(ch)
    steps = max(2, p2_steps)
    p1, p2, rate = grid_max_jamming(two, GridSpec(steps_per_axis=steps), ch.rate_unit)
    gap = _gap(sol.secrecy_rate, rate, JAMMING_VERIFY_TOL,
               "jamming solver and grid oracle",
               f"; oracle found (p1, p2)=({p1}, {p2})")
    return {"kind": "jamming", "powers": [p1, p2], "rate": rate, "gap": gap}
