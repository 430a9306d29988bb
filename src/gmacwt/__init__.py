"""Secrecy rate regions, optimal power allocation, and cooperative jamming
for the Gaussian multiple-access wiretap channel.

The names below are the public API.  ``sum_secrecy_rate``
(``gmacwt.sumrate``) and ``silence_threshold`` (``gmacwt.jamming``) stay
importable from their modules.  The per-subset rate quantities, the jamming
stationarity helpers and no-jam threshold, and the sum-rate pieces that the
tests check against are test references in ``tests/helpers.py``.
"""

#: The module that defines each public name.  A name's module is imported
#: on first access (PEP 562), so ``import gmacwt.cli`` loads only what the
#: command runs.
_HOMES = {
    **dict.fromkeys(("ChannelParams", "InternalError", "StandardChannel", "ValidationError",
                     "channel_from_json", "channel_to_json", "load_channel", "standardize"),
                    "channel"),
    **dict.fromkeys(("JammingSolution", "TwoUserChannel", "jam_objective",
                     "solve_jamming"), "jamming"),
    **dict.fromkeys(("GridSpec", "grid_max_jamming", "grid_max_sum_rate",
                     "verify_jamming", "verify_sum_rate"), "oracle"),
    **dict.fromkeys(("RateRegion", "build_region", "is_feasible", "union_sweep"), "region"),
    **dict.fromkeys(("SumRateSolution", "max_sum_rate"), "sumrate"),
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
