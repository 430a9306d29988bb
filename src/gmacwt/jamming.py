"""Two-user cooperative jamming in closed form.

A user whose standardized eavesdropper gain is >= 1 cannot achieve a
positive secrecy rate and stays silent under the sum-rate-optimal
allocation.  It can still help: transmitting white noise degrades the
eavesdropper more than the intended receiver whenever its gain exceeds 1,
so the other user's secrecy rate

    capacity(P1 / (1 + P2)) - capacity(h1 * P1 / (1 + h2 * P2))

can increase with the jamming power ``P2``.  Users are labeled so that
``h1 <= h2`` and user 2 is the candidate jammer.  Two regimes have
closed-form optima over the box ``0 <= P_k <= p_k_max``:

* case "A" (``h1 < 1 <= h2``): user 1 always transmits at full power; the
  optimal jamming power is the positive stationary root ``p_hi``, clamped
  to the box (``NoJam`` / ``InteriorRoot`` / ``FullJam``).
* case "B" (``1 <= h1 < h2``): positive secrecy requires enough jamming
  power to push user 1's effective channel past the eavesdropper's,
  ``p2 > (h1 - 1) / (h2 - h1)``; below that cap everyone stays silent
  (``AllSilent``), above it the solution has the same clamped-root form.
"""

from __future__ import annotations

import math

from .channel import (StandardChannel, ValidationError, _as_float, _check_rate_unit,
                      _check_totals, _Record, _secrecy_rate, setfield)

BRANCH_NO_JAM = "NoJam"
BRANCH_INTERIOR_ROOT = "InteriorRoot"
BRANCH_FULL_JAM = "FullJam"
BRANCH_ALL_SILENT = "AllSilent"

CASE_A = "A"
CASE_B = "B"
CASE_DEGENERATE = "Degenerate"

#: Gains equal within this are treated as the degenerate h1 == h2 case.
EQUAL_GAIN_TOL = 1e-12

#: ``sumrate.max_sum_rate``, imported at the degenerate case's first call, so
#: that ``jam`` never loads ``sumrate``; an import statement on every call made
#: that case about 40% slower in perfbench's feasibility-scan loop.
_max_sum_rate = None


class TwoUserChannel(_Record):
    """Two users with ``h1 <= h2``; user 2 is the candidate jammer."""

    __slots__ = ("h1", "h2", "p1_max", "p2_max")

    def __init__(self, h1, h2, p1_max, p2_max):
        for name, value in zip(self.__slots__, (h1, h2, p1_max, p2_max)):
            setfield(self, name, _as_float(name, value))
        p, h = (self.p1_max, self.p2_max), (self.h1, self.h2)
        _check_totals(p, h, "p1_max + p2_max", "p1_max*h1 + p2_max*h2")
        if self.h1 > self.h2:
            raise ValidationError(
                f"h1: must be <= h2 (got h1={self.h1}, h2={self.h2}); "
                f"relabel the users so the worse one jams")

    @classmethod
    def from_standard(cls, ch: StandardChannel):
        """Relabel a two-user standard channel so ``h1 <= h2``.

        Returns the channel and the permutation ``perm`` with sorted
        position ``i`` holding original user ``perm[i]`` (0-based).
        """
        if ch.num_users != 2:
            raise ValidationError(
                f"users: jamming analysis requires exactly 2 users "
                f"(got {ch.num_users})")
        perm = (0, 1) if ch.h[0] <= ch.h[1] else (1, 0)
        return cls(
            h1=ch.h[perm[0]], h2=ch.h[perm[1]],
            p1_max=ch.p_max[perm[0]], p2_max=ch.p_max[perm[1]]), perm


class JammingSolution(_Record):
    """Solution of the two-user jamming problem.

    ``branch`` records which piece of the closed form applied; ``case_tag``
    records the regime ("A", "B", or "Degenerate" when the jamming
    analysis does not apply: both gains below 1, or equal gains >= 1).
    Powers follow the ``h1 <= h2`` labeling of the input channel.
    """

    __slots__ = ("p1", "p2", "secrecy_rate", "branch", "case_tag", "rate_unit")

    def __init__(self, p1, p2, secrecy_rate, branch, case_tag, rate_unit):
        setfield(self, "p1", p1)
        setfield(self, "p2", p2)
        setfield(self, "secrecy_rate", secrecy_rate)
        setfield(self, "branch", branch)
        setfield(self, "case_tag", case_tag)
        setfield(self, "rate_unit", rate_unit)

    def to_json_dict(self, permutation=None) -> dict:
        doc = {
            "powers": [self.p1, self.p2],
            "secrecy_rate": self.secrecy_rate,
            "branch": self.branch,
            "case_tag": self.case_tag,
            "rate_unit": self.rate_unit,
        }
        if permutation is not None:
            doc["permutation"] = [k + 1 for k in permutation]
        return doc


def jam_objective(p1, p2, ch: TwoUserChannel, unit: str = "bits") -> float:
    """User 1's secrecy rate when user 2 transmits noise at power ``p2``.

    May be negative; the achievable rate is its positive part.  It is the
    one log ``C(N / D)`` with ``N = p1 ((1 - h1) + (h2 - h1) p2)`` and
    ``D = (1 + p2)(1 + h1 p1 + h2 p2)``, whose terms do not cancel in case
    A, also for gains next to 1.
    """
    p1, p2 = _as_float("p1", p1), _as_float("p2", p2)
    h1, h2 = ch.h1, ch.h2
    _check_totals((p1, p2), (h1, h2), "p1 + p2", "p1*h1 + p2*h2")
    _check_rate_unit(unit)
    return _secrecy_rate(p1 * ((1.0 - h1) + (h2 - h1) * p2),
                         p1, p2, h1 * p1, h2 * p2, unit)


def _p_hi(p1, h1, h2):
    """The larger root of ``a p^2 + 2 b p - c`` with ``a = h2 (h2 - h1)``,
    ``b = h2 (1 - h1)`` and ``c = h1 (h2 + (h2 - 1) p1) - 1``, whose
    discriminant ``b^2 + a c`` is ``disc``.

    Every term is divided by ``s = sqrt(a)``, and ``t = sqrt(disc) / s``
    is a product of square roots, so no intermediate overflows on the
    channels that ``_check_totals`` admits, which the tests sample from
    1e-300 to 1e300.  In case B (``h1 >= 1``) the root is ``(sqrt(disc) -
    b) / a``, a sum of nonnegative terms.  In case A it is ``c / (b +
    sqrt(disc))``, in which only ``c`` cancels, near the no-jam threshold,
    so ``c / s`` (and ``b / s``, which must round alike for ``h2 == 1`` to
    give exactly -1) is formed in integers and rounded once.
    """
    g = h2 - h1
    s = math.sqrt(h2) * math.sqrt(g)
    t = math.sqrt(h1) * math.sqrt(h2 - 1.0) * math.sqrt(p1 + (h2 - 1.0) / g)
    if h1 >= 1.0:
        return (t + (h1 - 1.0) * math.sqrt(h2 / g)) / s
    n1, d1 = h1.as_integer_ratio()
    n2, d2 = h2.as_integer_ratio()
    n3, d3 = p1.as_integer_ratio()
    ns, ds = s.as_integer_ratio()
    den = d1 * d2 * d3
    b = n2 * (d1 - n1) * ds / (d1 * d2 * ns)
    return (n1 * (n2 * d3 + (n2 - d2) * n3) - den) * ds / (den * ns) / (b + t)


def silence_threshold(ch: TwoUserChannel) -> float:
    """Largest ``p2_max`` for which nobody transmits in case B:
    ``(h1 - 1) / (h2 - h1)``.  At jamming powers up to this value user 1's
    effective channel is no better than the eavesdropper's."""
    if not 1.0 <= ch.h1 < ch.h2:
        raise ValidationError(
            f"h: threshold applies to 1 <= h1 < h2 (got h1={ch.h1}, h2={ch.h2})")
    return (ch.h1 - 1.0) / (ch.h2 - ch.h1)


def solve_jamming(ch: TwoUserChannel, unit: str = "bits") -> JammingSolution:
    """Closed-form optimum over the box ``0 <= P_k <= p_k_max``.

    Both gains below 1: there is no jammer; the sum-rate-optimal
    allocation is returned with branch ``NoJam``.  Equal gains >= 1:
    jamming works only through the gain ratio, which is 1 here, so
    everyone stays silent.  In case B nobody transmits up to the silence
    threshold on ``p2_max``, or when user 1 has no power.  Otherwise
    (case A, or case B past the threshold) user 1 transmits at full
    power, as its stationarity numerator is negative at the jamming power
    chosen, and user 2 jams at the positive root ``p_hi`` clamped to
    ``[0, p2_max]``: ``NoJam``, ``InteriorRoot`` (``p_hi <= p2_max``, ties
    included) or ``FullJam``.
    """
    _check_rate_unit(unit)
    if ch.h2 < 1.0:
        global _max_sum_rate
        if _max_sum_rate is None:
            from .sumrate import max_sum_rate as _max_sum_rate
        sol = _max_sum_rate(StandardChannel(
            h=(ch.h1, ch.h2), p_max=(ch.p1_max, ch.p2_max), rate_unit=unit))
        return JammingSolution(
            sol.powers[0], sol.powers[1], sol.sum_rate,
            BRANCH_NO_JAM, CASE_DEGENERATE, unit)
    if ch.h1 < 1.0:
        case = CASE_A
    elif ch.h2 - ch.h1 <= EQUAL_GAIN_TOL:
        return JammingSolution(0.0, 0.0, 0.0, BRANCH_ALL_SILENT, CASE_DEGENERATE, unit)
    elif ch.p2_max <= silence_threshold(ch) or ch.p1_max == 0.0:
        return JammingSolution(0.0, 0.0, 0.0, BRANCH_ALL_SILENT, CASE_B, unit)
    else:
        case = CASE_B
    # The regime checks above are _p_hi's preconditions: h2 > h1, h2 >= 1.
    p_hi = _p_hi(ch.p1_max, ch.h1, ch.h2) if ch.p1_max > 0.0 else 0.0
    if p_hi <= 0.0:
        p2, branch = 0.0, BRANCH_NO_JAM
    elif p_hi <= ch.p2_max:
        p2, branch = p_hi, BRANCH_INTERIOR_ROOT
    else:
        p2, branch = ch.p2_max, BRANCH_FULL_JAM
    rate = max(0.0, jam_objective(ch.p1_max, p2, ch, unit))
    return JammingSolution(ch.p1_max, p2, rate, branch, case, unit)
