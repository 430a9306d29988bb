"""Brute-force grid verification of the closed-form optimizers.

Exhaustive evaluation over power grids, used by the tests and by the CLI
``--verify`` flag as an independent cross-check.  The sum-rate oracle
filters the grid through the allowable-power-set constraints (the set the
sum-rate optimizer works over); the jamming oracle searches the plain box
(the set the jamming solvers work over).  Ties are broken toward the
lexicographically smallest power vector so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import StandardChannel
from .errors import ValidationError
from .jamming import TwoUserChannel
from .region import (
    MAX_GRID_POINTS, _bounds, _capacities, _grid_axis, _grid_points, _infeasible)


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution for the brute-force oracles.

    Each axis is ``{0, step, ..., p_max}`` with ``step = p_max /
    (steps_per_axis - 1)``: ``steps_per_axis`` uniform points whose first
    and last are exactly 0 and ``p_max`` (the grid of ``union_sweep``).
    """

    steps_per_axis: int = 11

    def __post_init__(self):
        if self.steps_per_axis < 2:
            raise ValidationError(
                f"steps_per_axis: must be >= 2 (got {self.steps_per_axis})")


#: Grid points times users evaluated at once; bounds the oracle's memory
#: and keeps the arrays cache-sized.
_BLOCK_ENTRIES = 1 << 16


def grid_max_sum_rate(ch: StandardChannel, spec: GridSpec):
    """Exhaustive sum-rate maximization over the feasible grid points.

    Feasibility comes from the gain-sorted prefixes of ``gmacwt.region``
    and the sum rate is the full set's bound, a block of points at a time.

    Returns
    -------
    (powers, rate) : (tuple of float, float)
        The maximizing grid point (lexicographically smallest on ties)
        and its sum secrecy rate.
    """
    total = spec.steps_per_axis ** ch.num_users
    if total > MAX_GRID_POINTS:
        raise ValidationError(
            f"steps_per_axis: grid would have {total} points "
            f"(cap {MAX_GRID_POINTS})")

    points = _grid_points([_grid_axis(p, spec.steps_per_axis) for p in ch.p_max])
    best, best_rate = 0, -math.inf  # zero power is always feasible, so a max exists
    block = max(1, _BLOCK_ENTRIES // ch.num_users)
    for start in range(0, len(points), block):
        columns = points[start:start + block].T
        s_p = s_hp = 0.0
        for k in reversed(range(ch.num_users)):  # as the subset table adds
            s_p = s_p + columns[k]
            s_hp = s_hp + ch.h[k] * columns[k]
        rate = _bounds(s_p, s_hp, 0.0, ch.rate_unit)
        rate[_infeasible(columns, ch.h)] = -math.inf
        i = int(rate.argmax())  # first max = lexicographically smallest
        if rate[i] > best_rate:
            best, best_rate = start + i, rate[i]
    return tuple(float(x) for x in points[best]), float(best_rate)


def grid_max_jamming(ch: TwoUserChannel, spec: GridSpec, unit: str = "bits"):
    """Exhaustive maximization of the jamming objective over the box.

    The jamming power axis carries ``steps_per_axis`` points; the
    transmitter axis only needs the endpoints {0, p1_max}, because at
    fixed ``p2`` the objective is ``capacity(a*p1) - capacity(b*p1)`` with
    constants ``a``, ``b``, which is monotone in ``p1`` (its derivative
    has the constant sign of ``a - b``), so the maximum over ``p1`` is at
    an endpoint.  The reported rate is clamped at 0 (transmitting nothing
    always achieves 0).

    Returns
    -------
    (p1, p2, rate) : (float, float, float)
    """
    if 2 * spec.steps_per_axis > MAX_GRID_POINTS:
        raise ValidationError(
            f"steps_per_axis: grid would have {2 * spec.steps_per_axis} "
            f"points (cap {MAX_GRID_POINTS})")

    import numpy as np
    p2_axis = _grid_axis(ch.p2_max, spec.steps_per_axis)
    best = (-math.inf, 0.0, 0.0)
    for p1 in (0.0, ch.p1_max) if ch.p1_max > 0 else (0.0,):
        values = (_capacities(p1 / (1.0 + p2_axis), unit)
                  - _capacities(ch.h1 * p1 / (1.0 + ch.h2 * p2_axis), unit))
        values = np.maximum(values, 0.0)
        i = int(values.argmax())  # first max = smallest p2 on ties
        if values[i] > best[0]:
            best = (float(values[i]), float(p1), float(p2_axis[i]))
    return best[1], best[2], best[0]
