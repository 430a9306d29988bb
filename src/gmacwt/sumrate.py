"""Power allocation maximizing the achievable sum secrecy rate.

Maximizing ``sum_secrecy_rate`` over the allowable power set is equivalent
to minimizing the total-SNR ratio ``(1 + sum h_k P_k) / (1 + sum P_k)``
seen by the eavesdropper relative to the receiver.  The optimum has a
threshold structure: with users ordered by non-decreasing ``h``, the first
``l`` users transmit at full power and the rest stay silent, where ``l``
is the largest count for which every transmitting user's gain stays below
the resulting ratio, within ``TIE_TOL``.  That one rule also keeps every
user with ``h_k >= 1`` silent (see ``max_sum_rate``).
"""

from __future__ import annotations

from .channel import (InternalError, StandardChannel, _checked_powers, _Record, _secrecy_rate,
                      setfield)

#: A gain matching the threshold ratio within this relative tolerance is a
#: tie; the tied user stays silent (the sum rate does not depend on its
#: power, so transmitting nothing conserves power).
TIE_TOL = 1e-12


def sum_secrecy_rate(powers, ch: StandardChannel) -> float:
    """``capacity(sum P_k) - capacity(sum h_k P_k)`` in the channel's rate
    unit; negative when the powers lie outside the allowable set."""
    return _sum_rate(_checked_powers(powers, ch), ch)


def _sum_rate(p, ch: StandardChannel) -> float:
    """``sum_secrecy_rate`` of float powers already checked for ``ch``, as
    the one log ``C(N / D)`` with ``N = sum P_k (1 - h_k)`` and ``D = 1 +
    sum h_k P_k``: no term of ``N`` cancels where every powered gain is
    below 1, as at ``max_sum_rate``'s allocation."""
    main = tap = gap = 0.0  # one pass, each sum in user order
    for h, v in zip(ch.h, p):
        main += v
        tap += h * v
        gap += v * (1.0 - h)
    return _secrecy_rate(gap, main, 0.0, tap, 0.0, ch.rate_unit)


class SumRateSolution(_Record):
    """Sum-rate-optimal power allocation.

    Attributes
    ----------
    powers : tuple of float
        Optimal per-user powers in the original user order.
    limiting_user : int
        Number ``l`` of users the scan admitted at full power, in gain-sorted
        order, zero-cap users included: ``l`` may exceed the number of users
        with power > 0, the only ones that ``to_json_dict``'s
        ``limiting_user`` lists.
    sum_rate : float
        Achieved sum secrecy rate (in ``rate_unit``).
    snr_ratio : float
        SNR ratio at the optimum; <= 1 whenever someone transmits.
    rate_unit : str
        "bits" or "nats".
    """

    __slots__ = ("powers", "limiting_user", "sum_rate", "snr_ratio", "rate_unit")

    def __init__(self, powers, limiting_user, sum_rate, snr_ratio, rate_unit):
        setfield(self, "powers", powers)
        setfield(self, "limiting_user", limiting_user)
        setfield(self, "sum_rate", sum_rate)
        setfield(self, "snr_ratio", snr_ratio)
        setfield(self, "rate_unit", rate_unit)

    def to_json_dict(self) -> dict:
        return {
            "p_star": list(self.powers),
            "limiting_user": [
                k + 1 for k, p in enumerate(self.powers) if p > 0.0
            ],
            "sum_rate": self.sum_rate,
            "rho_star": self.snr_ratio,
            "rate_unit": self.rate_unit,
        }


def max_sum_rate(ch: StandardChannel) -> SumRateSolution:
    """Sum-rate-optimal allocation via the limiting-user threshold scan.

    Users are sorted by gain (ties keep the original order) and admitted
    at full power one by one, each lowering the SNR ratio ``num / den``,
    until no users are left or the next gain is ``>= (num / den) * (1 -
    TIE_TOL)``; that user and all later ones stay silent.  This one rule
    silences every gain ``>= 1 - 1e-12``: each admitted gain is below a
    ratio of at most 1, so each ``h * p`` rounds to at most ``p``, ``num <=
    den``, ``fl(num / den) <= 1`` and ``fl((num / den) * (1 - TIE_TOL)) <=
    1.0 - 1e-12``.  (``num`` stays finite, as ``sum p_max`` is and every
    admitted gain is below ``1 - 1e-12``, so the ratio is never ``inf /
    inf``.)  The allocation is in the original user order and feasible by
    construction; ``ch`` was checked when it was built, so nothing is
    checked again.
    """
    powers = [0.0] * ch.num_users
    num = den = 1.0
    limit = 0
    top = 0.0  # the last admitted gain, the largest
    for k in sorted(range(ch.num_users), key=ch.h.__getitem__):  # stable: ties by index
        h = ch.h[k]
        if h >= (num / den) * (1.0 - TIE_TOL):
            break
        p = ch.p_max[k]
        num += h * p
        den += p
        powers[k] = p
        limit += 1
        top = h
    powers = tuple(powers)

    # Powered users all have h < 1, so every subset S has slack(S) >=
    # sum(P_k (1 - h_k), S) >= 0: feasible without a 2^K enumeration.
    if not top < 1.0:
        raise InternalError("optimal allocation powers a user with h >= 1, "
                            "which the scan excludes by construction")

    return SumRateSolution(
        powers=powers,
        limiting_user=limit,
        sum_rate=_sum_rate(powers, ch),
        snr_ratio=num / den,
        rate_unit=ch.rate_unit)
