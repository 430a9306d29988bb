"""Raw and standardized descriptions of the multiple-access wiretap channel.

A raw channel lists, per user, the power gain to the intended receiver and
to the eavesdropper, plus the noise variances at the two receivers and the
per-user transmit power limits.  Scaling user ``k``'s codewords by
``sqrt(gain_receiver_k / noise_var_receiver)`` (and the eavesdropper's
signal by the corresponding noise standard deviation) produces an
equivalent channel with unit gains and unit noise at the receiver, where
the eavesdropper is characterized solely by the standardized gains

    h_k = gain_eavesdropper_k * noise_var_receiver
          / (gain_receiver_k * noise_var_eavesdropper)

and the power limits become ``p_max_k = gain_receiver_k * power_limit_k /
noise_var_receiver``.  Both per-user SNRs are preserved, so every rate
quantity computed downstream is unchanged.  ``h_k < 1`` means user ``k``'s
channel to the intended receiver is relatively better than its channel to
the eavesdropper.

Every input rule is here, and so is the rate kernel that every rate shares:
``_secrecy_rate``, on ``_capacity`` (``_capacities`` for arrays).  So is what
every other module stands on: the two exception types, and ``_Record``, the
base of the package's channel, region and solution types.
"""

from __future__ import annotations

import io
import json
import math
import operator
import os
import stat
from itertools import repeat


class ValidationError(ValueError):
    """Invalid user input; the message names the offending field."""


class InternalError(RuntimeError):
    """An internal consistency check failed (not a user error).

    Raised when a closed-form result disagrees with a post-hoc check it
    should satisfy by construction, e.g. an optimizer returning an
    infeasible point or a brute-force cross-check disagreeing beyond
    tolerance.
    """


#: ``setfield(record, name, value)`` stores a field from ``__init__``,
#: past ``_Record.__setattr__``.  One call per field is faster than a loop.
setfield = object.__setattr__


class _Record:
    """Immutable record with value semantics.

    A subclass names its fields in ``__slots__`` and stores them from its
    ``__init__`` with ``setfield``.  Equality, hashing and ``repr`` go by the
    fields in slot order, as for a frozen dataclass: records are equal only
    to records of the same class, and ``repr`` reads ``Name(field=value,
    ...)``.  Assigning or deleting an attribute raises AttributeError.
    Defining such a class takes microseconds, where the ``dataclasses``
    import and a frozen dataclass's generated methods cost milliseconds at
    every start.
    """

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._values()


#: A region lists all 2^K - 1 user subsets.
MAX_USERS = 16

RATE_UNITS = ("bits", "nats")


def _check_rate_unit(unit):
    if unit not in RATE_UNITS:
        raise ValidationError(
            f"rate_unit: must be one of {list(RATE_UNITS)} (got {unit!r})")


def _check_user_count(n):
    if not 1 <= n <= MAX_USERS:
        raise ValidationError(
            f"users: must have between 1 and {MAX_USERS} users (got {n})")


def _as_float(name, value, sign=">="):
    """``value`` as a finite float that is ``>= 0`` or ``> 0`` (``sign``),
    or of any sign (``sign=None``)."""
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name}: must be a finite number") from None
    if not (math.isfinite(out) and (sign is None or (out > 0 if sign == ">" else out >= 0))):
        raise ValidationError(
            f"{name}: must be finite{'' if sign is None else f' and {sign} 0'} (got {out})")
    return out


def _as_int(name, value):
    """``value`` as an int: ints and numpy ints pass (``operator.index``),
    floats, strings and None are refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name}: must be an integer (got {value!r})") from None


def _as_float_tuple(name, values, sign=">=", users=None):
    """``values`` as a tuple of floats that pass ``_as_float(..., sign)``, in
    one C-level pass per rule; only a refusal walks them, to name the first
    bad one.  With ``users``, a wrong length is refused before any value."""
    try:
        out = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        out = values if hasattr(values, "__iter__") else ()  # walked below, to word the error
    else:
        if users is not None and len(out) != users:
            raise ValidationError(
                f"{name}: length {len(out)} does not match the channel's {users} users")
        if all(map(math.isfinite, out)) and (
                sign is None or not out or (min(out) > 0 if sign == ">" else min(out) >= 0)):
            return out
    for i, v in enumerate(out):
        _as_float(f"{name}[{i}]", v, sign)
    raise ValidationError(f"{name}: must be a sequence of numbers")


def _check_totals(p, h, name, h_name):
    """Refuse the powers ``p`` on gains ``h`` whose total (``name``) or total of
    ``h * p`` (``h_name``) overflows: they bound every subset sum inside the box."""
    for label, total in ((name, sum(p)), (h_name, sum(map(operator.mul, h, p)))):
        if not math.isfinite(total):
            raise ValidationError(f"{label}: the users' total overflows (got {total})")


def _checked_powers(powers, ch: StandardChannel) -> tuple[float, ...]:
    """``powers`` as one finite float >= 0 per user of ``ch``, with finite totals."""
    p = _as_float_tuple("powers", powers, ">=", ch.num_users)
    _check_totals(p, ch.h, "powers", "powers*h")
    return p


#: Hard cap on the number of grid points an oracle or a jamming sweep may
#: evaluate.
MAX_GRID_POINTS = 10_000_000


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


def _p2_points(step, p2_max):
    """``_step_points`` for ``--p2-step``, as the jamming sweep and an
    explicit oracle grid take it; refused past the cap."""
    step = _as_float("p2-step", step, ">")
    count = _step_points(step, p2_max)
    if count > MAX_GRID_POINTS:
        raise ValidationError(
            f"p2-step: {step} would put more than {MAX_GRID_POINTS} grid "
            f"points on [0, {p2_max}]")
    return count


def _capacity(x: float, unit: str) -> float:
    """``C(x) = 0.5 * log1p(x)`` in ``unit``, for any ``x > -1``; ``unit`` was
    checked on entry, so any unit but ``"bits"`` is nats."""
    nats = 0.5 * math.log1p(x)
    return nats / math.log(2) if unit == "bits" else nats


def _capacities(x, unit):
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
    finite, as ``_check_totals`` held.  ``region._bounds`` is its array twin.
    """
    d = (1.0 + c_m) * (1.0 + b + c_t)
    x = n / d + 0.0  # + 0.0: a zero numerator of either sign is the rate +0.0
    if -0.5 <= x < math.inf and d < math.inf:
        return _capacity(x, unit)
    return _capacity(a / (1.0 + c_m), unit) - _capacity(b / (1.0 + c_t), unit)


class ChannelParams(_Record):
    """Channel in raw (non-standard) form.

    Attributes
    ----------
    gains_to_receiver : tuple of float
        Linear power gains to the intended receiver, one per user, > 0.
    gains_to_eavesdropper : tuple of float
        Linear power gains to the eavesdropper, one per user, >= 0.
    noise_var_receiver, noise_var_eavesdropper : float
        Noise variances at the two receivers, > 0.
    power_limits : tuple of float
        Per-user transmit power limits, >= 0.
    """

    __slots__ = ("gains_to_receiver", "gains_to_eavesdropper", "noise_var_receiver",
                 "noise_var_eavesdropper", "power_limits")

    def __init__(self, gains_to_receiver, gains_to_eavesdropper, noise_var_receiver,
                 noise_var_eavesdropper, power_limits):
        for name, value in (("gains_to_receiver", gains_to_receiver),
                            ("gains_to_eavesdropper", gains_to_eavesdropper),
                            ("power_limits", power_limits)):
            setfield(self, name, _as_float_tuple(
                name, value, ">" if name == "gains_to_receiver" else ">="))
        for name, value in (("noise_var_receiver", noise_var_receiver),
                            ("noise_var_eavesdropper", noise_var_eavesdropper)):
            setfield(self, name, _as_float(name, value, ">"))

        k = len(self.gains_to_receiver)
        _check_user_count(k)
        for name in ("gains_to_eavesdropper", "power_limits"):
            if len(getattr(self, name)) != k:
                raise ValidationError(
                    f"{name}: length {len(getattr(self, name))} does not match "
                    f"the {k} users implied by gains_to_receiver")

    @property
    def num_users(self) -> int:
        return len(self.gains_to_receiver)


class StandardChannel(_Record):
    """Channel in standard form: unit receiver gains and unit noise.

    Attributes
    ----------
    h : tuple of float
        Standardized eavesdropper gains, one per user, >= 0.
    p_max : tuple of float
        Per-user power caps in standardized units, >= 0.
    rate_unit : str
        "bits" (log base 2) or "nats" (natural log); selects the logarithm
        base used by every downstream rate computation.
    """

    __slots__ = ("h", "p_max", "rate_unit")

    def __init__(self, h, p_max, rate_unit="bits"):
        setfield(self, "h", _as_float_tuple("h", h))
        setfield(self, "p_max", _as_float_tuple("p_max", p_max))
        setfield(self, "rate_unit", rate_unit)
        _check_user_count(len(self.h))
        if len(self.p_max) != len(self.h):
            raise ValidationError(
                f"p_max: length {len(self.p_max)} does not match the "
                f"{len(self.h)} users implied by h")
        _check_totals(self.p_max, self.h, "p_max", "h*p_max")
        _check_rate_unit(self.rate_unit)

    @property
    def num_users(self) -> int:
        return len(self.h)


def standardize(raw: ChannelParams, rate_unit: str = "bits") -> StandardChannel:
    """Convert a raw channel to the equivalent standard form.

    Both per-user SNRs are invariant:
    ``p_max_k == gains_to_receiver_k * power_limits_k / noise_var_receiver``
    (receiver side) and ``h_k * p_max_k == gains_to_eavesdropper_k *
    power_limits_k / noise_var_eavesdropper`` (eavesdropper side).
    """
    try:
        h = tuple(
            gw * raw.noise_var_receiver / (gm * raw.noise_var_eavesdropper)
            for gm, gw in zip(raw.gains_to_receiver, raw.gains_to_eavesdropper))
    except ZeroDivisionError:  # both factors are > 0, but their product underflowed
        raise ValidationError("h: gain_receiver * noise_var_eavesdropper underflows to 0") from None
    p_max = tuple(
        gm * p / raw.noise_var_receiver
        for gm, p in zip(raw.gains_to_receiver, raw.power_limits))
    return StandardChannel(h=h, p_max=p_max, rate_unit=rate_unit)


# ---------------------------------------------------------------------------
# JSON channel documents
# ---------------------------------------------------------------------------
#
# Raw form:
#   {"users": [{"gain_receiver": g, "gain_eavesdropper": g, "power_max": p},
#              ...],
#    "noise_var_receiver": v, "noise_var_eavesdropper": v,
#    "rate_unit": "bits"}
#
# Standard form ("standard": true):
#   {"standard": true,
#    "users": [{"h": h, "power_max": p}, ...],
#    "rate_unit": "bits"}


def _json_number(obj, field, prefix=""):
    """``obj[field]``, which must be present and a JSON number (a bool is
    not one); a refusal names ``prefix + field``."""
    if field not in obj:
        raise ValidationError(f"{prefix}{field}: required field is missing")
    value = obj[field]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{prefix}{field}: must be a number (got {value!r})")
    return value


def _user_numbers(users, fields):
    """Every user's number for each of ``fields``, one tuple per field, read
    field by field; a user that is not an object is refused as its first
    field is read."""
    prefixes = [f"users[{i}]." for i in range(len(users))]
    first = []
    for i, user in enumerate(users):
        if not isinstance(user, dict):
            raise ValidationError(f"users[{i}]: must be an object")
        first.append(_json_number(user, fields[0], prefixes[i]))
    return [tuple(first), *(tuple(map(_json_number, users, repeat(field), prefixes))
                            for field in fields[1:])]


def channel_from_json(doc: dict) -> StandardChannel:
    """Build a :class:`StandardChannel` from a channel JSON document.

    Raw documents are standardized; documents with ``"standard": true``
    supply ``h``/``power_max`` directly.  ``"standard"``, if present, must
    be a JSON boolean.
    """
    if not isinstance(doc, dict):
        raise ValidationError("channel document: must be a JSON object")
    users = doc.get("users")
    if not isinstance(users, list) or not users:
        raise ValidationError("users: must be a non-empty array")
    _check_user_count(len(users))
    rate_unit = doc.get("rate_unit", "bits")
    _check_rate_unit(rate_unit)

    standard = doc.get("standard", False)
    if not isinstance(standard, bool):  # no truthiness, as _json_number refuses a bool
        raise ValidationError(f"standard: must be true or false (got {standard!r})")
    if standard:
        h, p_max = _user_numbers(users, ("h", "power_max"))
        return StandardChannel(h=h, p_max=p_max, rate_unit=rate_unit)

    noise = [_json_number(doc, field) for field in ("noise_var_receiver", "noise_var_eavesdropper")]
    gains_r, gains_e, limits = _user_numbers(
        users, ("gain_receiver", "gain_eavesdropper", "power_max"))
    return standardize(ChannelParams(gains_r, gains_e, *noise, limits), rate_unit=rate_unit)


def channel_to_json(ch: StandardChannel) -> dict:
    """Standard-form JSON document for ``ch``; feeds back into
    :func:`channel_from_json` unchanged."""
    return {
        "standard": True,
        "rate_unit": ch.rate_unit,
        "users": [
            {"h": h, "power_max": p} for h, p in zip(ch.h, ch.p_max)
        ],
    }


#: The most characters a finite double takes written out in full: ``-0.``
#: and the 1074 decimals of 2^-1074, as every double below 1 has at most.
_MAX_NUMBER_CHARS = 1077

#: The most bytes of a channel document that ``load_channel`` reads.  The
#: largest document it accepts is a raw one with ``MAX_USERS`` users: three
#: numbers a user and the two noise variances.  Each of those numbers is
#: allowed its full decimal expansion and 1024 more bytes for its key,
#: punctuation and whitespace, far more than any indentation needs.  A longer
#: file, ``/dev/zero`` included, is refused after this many bytes and one more.
MAX_DOCUMENT_BYTES = (3 * MAX_USERS + 2) * (_MAX_NUMBER_CHARS + 1024)


def load_channel(path) -> StandardChannel:
    """Read a channel JSON file of at most ``MAX_DOCUMENT_BYTES`` and return
    its standard form.

    The path is opened without blocking, so that a FIFO with no writer
    does not hold up the open, and a FIFO or socket is refused before any
    read: no byte cap bounds how long a read from one may wait.  (On Linux
    the open itself fails on a socket, named or reached through
    ``/dev/stdin``, so that refusal is the ``cannot read`` one.)  Any other
    file is read in blocking mode.
    """
    try:
        with open(path, "rb", opener=lambda f, flags: os.open(f, flags | os.O_NONBLOCK)) as fh:
            mode = os.fstat(fh.fileno()).st_mode
            if stat.S_ISFIFO(mode) or stat.S_ISSOCK(mode):
                raise ValidationError(f"input: {path} is a pipe or socket, not a file")
            os.set_blocking(fh.fileno(), True)
            data = fh.read(MAX_DOCUMENT_BYTES + 1)
    except OSError as exc:
        raise ValidationError(f"input: cannot read {path}: {exc}") from None
    if len(data) > MAX_DOCUMENT_BYTES:
        raise ValidationError(f"input: {path} is longer than {MAX_DOCUMENT_BYTES} bytes")
    try:
        # decoded as a file opened in text mode as UTF-8 reads it, newlines included
        doc = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except (ValueError, RecursionError) as exc:  # bad JSON, a too-long integer, too deep nesting
        raise ValidationError(f"input: {path} is not valid JSON: {exc}") from None
    return channel_from_json(doc)
