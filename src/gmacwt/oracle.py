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

import math
import sys

from .channel import StandardChannel
from .errors import InternalError, ValidationError
from .jamming import (
    BRANCH_NO_JAM, CASE_DEGENERATE, JammingSolution, TwoUserChannel)
from .record import Record, setfield
from .region import _capacities, _check_grid, _grid_axis, _infeasible
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
    """

    __slots__ = ("steps_per_axis",)

    def __init__(self, steps_per_axis=11):
        if steps_per_axis < 2:
            raise ValidationError(
                f"steps_per_axis: must be >= 2 (got {steps_per_axis})")
        setfield(self, "steps_per_axis", steps_per_axis)


#: Grid points times users evaluated at once; bounds the oracle's memory
#: and keeps the arrays cache-sized.
_BLOCK_ENTRIES = 1 << 16


def grid_max_sum_rate(ch: StandardChannel, spec: GridSpec):
    """Exhaustive sum-rate maximization over the feasible grid points.

    Feasibility comes from the gain-sorted prefixes of ``gmacwt.region``
    and the sum rate is the full set's bound, a block of points at a time;
    each block's points are built from their grid indices, so memory does
    not grow with the grid.

    Returns
    -------
    (powers, rate) : (tuple of float, float)
        The maximizing grid point (lexicographically smallest on ties)
        and its sum secrecy rate.
    """
    _check_grid("steps_per_axis", spec.steps_per_axis, ch.num_users)

    import numpy as np
    axes = [_grid_axis(p, spec.steps_per_axis) for p in ch.p_max]
    shape = tuple(len(axis) for axis in axes)
    size = math.prod(shape)
    best, best_rate = 0, -math.inf  # zero power is always feasible, so a max exists
    block = max(1, _BLOCK_ENTRIES // ch.num_users)
    for start in range(0, size, block):
        rest = np.arange(start, min(start + block, size))  # flat grid indices
        columns = [None] * ch.num_users
        hp = [None] * ch.num_users
        s_p = s_hp = 0.0
        for k in reversed(range(ch.num_users)):  # as the subset table adds
            rest, index = np.divmod(rest, shape[k])  # the index on axis k
            columns[k] = axes[k][index]
            hp[k] = ch.h[k] * columns[k]
            s_p = s_p + columns[k]
            s_hp = s_hp + hp[k]
        # the full set's bound; its complement is empty, so no interference
        rate = _capacities(s_p, ch.rate_unit) - _capacities(s_hp, ch.rate_unit)
        rate[_infeasible(columns, hp, ch.h)] = -math.inf
        i = int(rate.argmax())  # first max = lexicographically smallest
        if rate[i] > best_rate:
            best, best_rate = start + i, rate[i]
    index = np.unravel_index(best, shape)
    return tuple(float(axis[i]) for axis, i in zip(axes, index)), float(best_rate)


def _axis_blocks(p_max, steps, size):
    """``_grid_axis(p_max, steps)`` in consecutive slices of at most
    ``size`` points.

    Each slice is built from its indices as ``np.linspace`` builds them,
    ``i * step`` with the last point exactly ``p_max``.  When the step is
    below the smallest normal float (``p_max`` is 0 or tiny), rounding
    can repeat points, so the whole axis is built and deduplicated.
    """
    import numpy as np
    step = p_max / (steps - 1)
    if not step >= sys.float_info.min:
        axis = _grid_axis(p_max, steps)
        yield from (axis[i:i + size] for i in range(0, len(axis), size))
        return
    for start in range(0, steps, size):
        block = np.arange(start, min(start + size, steps), dtype=float)
        if start + size < steps:
            block *= step
        else:  # the last point is p_max itself; (steps - 1) * step may overflow
            block[:-1] *= step
            block[-1] = p_max
        yield block


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

    That is one evaluated point per jamming power, so ``steps_per_axis``
    itself is held to ``MAX_GRID_POINTS``.  The axis is evaluated in
    slices of ``_BLOCK_ENTRIES`` points, so memory does not grow with it;
    a slice's best point replaces the best so far only if strictly
    greater, which keeps the first (smallest ``p2``) maximum.

    Returns
    -------
    (p1, p2, rate) : (float, float, float)
    """
    _check_grid("steps_per_axis", spec.steps_per_axis, 1)

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


def verify_jamming(ch: StandardChannel, sol: JammingSolution, p2_steps) -> dict:
    """Cross-check ``solve_jamming`` on the two-user channel ``ch`` (users
    in their original order) against the matching grid oracle.

    The NoJam solution of the degenerate case came from the sum-rate
    optimizer, so it is checked against ``grid_max_sum_rate`` on the
    default grid, within ``SUM_RATE_VERIFY_TOL``.  Any other solution is
    checked against ``grid_max_jamming`` within ``JAMMING_VERIFY_TOL``,
    on ``max(2, p2_steps(p2_max))`` points of the jamming power axis
    ``[0, p2_max]``.  ``p2_steps`` is called only then, so a caller may
    validate its step inside it.

    Returns the ``"oracle"`` entry of the CLI's JSON document, whose
    ``kind`` names the oracle; raises InternalError beyond tolerance.
    """
    if sol.case_tag == CASE_DEGENERATE and sol.branch == BRANCH_NO_JAM:
        powers, rate = grid_max_sum_rate(
            ch, GridSpec(steps_per_axis=_default_steps(ch)))
        gap = _gap(sol.secrecy_rate, rate, SUM_RATE_VERIFY_TOL,
                   "jamming dispatch and sum-rate oracle")
        return {"kind": "sum_rate", "p_star": list(powers), "rate": rate, "gap": gap}
    two, _ = TwoUserChannel.from_standard(ch)
    steps = max(2, p2_steps(two.p2_max))
    p1, p2, rate = grid_max_jamming(two, GridSpec(steps_per_axis=steps), ch.rate_unit)
    gap = _gap(sol.secrecy_rate, rate, JAMMING_VERIFY_TOL,
               "jamming solver and grid oracle",
               f"; oracle found (p1, p2)=({p1}, {p2})")
    return {"kind": "jamming", "powers": [p1, p2], "rate": rate, "gap": gap}
