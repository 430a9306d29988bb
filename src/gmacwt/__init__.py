"""Secrecy rate regions, optimal power allocation, and cooperative jamming
for the Gaussian multiple-access wiretap channel.

The names below are the public API.  The per-subset rate quantities, the
jamming thresholds and stationarity helpers, and the sum-rate pieces stay
importable from their modules (``gmacwt.region``, ``gmacwt.jamming``,
``gmacwt.sumrate``, ``gmacwt.channel``).
"""

from .channel import (
    ChannelParams,
    StandardChannel,
    channel_from_json,
    channel_to_json,
    load_channel,
    standardize,
)
from .errors import InternalError, ValidationError
from .jamming import JammingSolution, TwoUserChannel, jam_objective, solve_jamming
from .oracle import (
    GridSpec,
    grid_max_jamming,
    grid_max_sum_rate,
    verify_jamming,
    verify_sum_rate,
)
from .region import RateRegion, build_region, is_feasible, union_sweep
from .sumrate import SumRateSolution, max_sum_rate

__all__ = [
    "ChannelParams",
    "GridSpec",
    "InternalError",
    "JammingSolution",
    "RateRegion",
    "StandardChannel",
    "SumRateSolution",
    "TwoUserChannel",
    "ValidationError",
    "build_region",
    "channel_from_json",
    "channel_to_json",
    "grid_max_jamming",
    "grid_max_sum_rate",
    "is_feasible",
    "jam_objective",
    "load_channel",
    "max_sum_rate",
    "solve_jamming",
    "standardize",
    "union_sweep",
    "verify_jamming",
    "verify_sum_rate",
]

__version__ = "0.1.0"
