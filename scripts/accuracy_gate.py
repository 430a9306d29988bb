"""Accuracy of the closed-form secrecy rates against 50-digit mpmath.

Draws a seeded corpus of standard channels (K = 1..4, a third of the gains
within 10^-12..10^-1 of 1 on either side, caps 10^-3..10^3, bits and
nats) and case-A jamming channels, and compares every bound of
``build_region``, ``max_sum_rate``'s sum rate and ``jam_objective`` with
references evaluated from the same float inputs at 50 digits.  Prints the
largest relative error of each kind, as JSON, and exits 1 if one of them
is above its limit in ``LIMITS``.

The corpus is fixed: seed ``SEED``, ``CHANNELS`` channels of each kind.
The references, and the gain and cap draws, are the tests' own
(``tests/helpers.py``).  Run it against any checkout by putting that
checkout's ``src`` first on the path.  ``--save FILE`` writes the values
computed, and ``--compare FILE`` reads another checkout's values and
counts how many of this checkout's values lie farther from the reference,
and by how many units in the last place (ulp) of the reference::

    PYTHONPATH=other/src python scripts/accuracy_gate.py --save other.json
    PYTHONPATH=src python scripts/accuracy_gate.py --compare other.json
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import mpmath
import numpy as np

from gmacwt import StandardChannel, build_region, max_sum_rate
from gmacwt.jamming import TwoUserChannel, jam_objective

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from helpers import cap, gain, mp_jam_objective, mp_subset_rate, rel_error  # noqa: E402

SEED = 15
CHANNELS = 3000

#: The largest relative error allowed for each kind: the maximum recorded on
#: this corpus, rounded up (1.0578e-13, 4.261e-16, 4.379e-16 and 5.382e-16).
#: These limits may only be tightened, never loosened.
LIMITS = {"bound": 1.06e-13, "bound_gains_below_1": 4.3e-16, "sum_rate": 4.4e-16,
          "jamming": 5.4e-16}


def corpus():
    """``CHANNELS`` channels with powers inside their box, and as many
    case-A jamming channels with a jamming power, each from ``SEED``."""
    gen = np.random.default_rng(SEED)
    channels, jams = [], []
    for i in range(CHANNELS):
        k = int(gen.integers(1, 5))
        unit = ("bits", "nats")[i % 2]
        ch = StandardChannel(h=[gain(gen, -12, -1) for _ in range(k)],
                             p_max=[cap(gen) for _ in range(k)], rate_unit=unit)
        powers = ch.p_max if i % 3 == 0 else tuple(p * float(gen.uniform()) for p in ch.p_max)
        channels.append((ch, powers))
        near = gen.integers(3) == 0
        h1 = 1.0 - 10.0 ** gen.uniform(-12, -1) if near else float(gen.uniform(0.0, 1.0))
        h2 = 1.0 + 10.0 ** gen.uniform(-12, -1) if near else float(gen.uniform(1.0, 3.0))
        jams.append((TwoUserChannel(h1, h2, cap(gen), cap(gen)), cap(gen), unit))
    return channels, jams


def values(channels, jams):
    """Every value and its reference, by kind: ``(value, reference, all
    gains below 1)``."""
    out = {"bound": [], "sum_rate": [], "jamming": []}
    for ch, powers in channels:
        k, unit = ch.num_users, ch.rate_unit
        for mask, bound in enumerate(build_region(powers, ch).bounds, 1):
            users = [j for j in range(k) if mask >> j & 1]
            out["bound"].append((bound, mp_subset_rate(ch.h, powers, users, unit),
                                 all(ch.h[j] < 1.0 for j in users)))
        sol = max_sum_rate(ch)
        out["sum_rate"].append((sol.sum_rate, mp_subset_rate(ch.h, sol.powers, range(k), unit),
                                True))
    for two, p2, unit in jams:
        ref = mp_jam_objective(two.h1, two.h2, two.p1_max, p2, unit)
        out["jamming"].append((jam_objective(two.p1_max, p2, two, unit), ref, True))
    return out


def _error(value, ref):
    """``|value - ref|``, formed at 50 digits."""
    with mpmath.workdps(50):
        return abs(mpmath.mpf(value) - ref)


def _ulps(value, ref):
    return float(_error(value, ref)) / math.ulp(float(ref))


def summary(out):
    report = {}
    for kind, rows in out.items():
        report[kind] = {"values": len(rows),
                        "max_rel_error": max(rel_error(v, r) for v, r, _ in rows)}
        if kind == "bound":
            report[kind]["max_rel_error_gains_below_1"] = max(
                rel_error(v, r) for v, r, below in rows if below)
    return report


def over_limit(report):
    """The kinds whose largest relative error is above its limit."""
    maxima = {kind: report[kind]["max_rel_error"] for kind in ("bound", "sum_rate", "jamming")}
    maxima["bound_gains_below_1"] = report["bound"]["max_rel_error_gains_below_1"]
    return sorted(kind for kind, value in maxima.items() if value > LIMITS[kind])


def compare(out, other):
    """How many values lie farther from the reference than ``other``'s,
    and by how many ulp of the reference (median and largest)."""
    report = {}
    for kind, rows in out.items():
        farther = [_ulps(v, r) - _ulps(o, r)
                   for (v, r, _), o in zip(rows, other[kind]) if _error(v, r) > _error(o, r)]
        report[kind] = {"farther": len(farther), "of": len(rows),
                        "median_ulp": statistics.median(farther) if farther else 0.0,
                        "max_ulp": max(farther, default=0.0),
                        "other_max_rel_error": max(rel_error(o, r) for (_, r, _), o
                                                   in zip(rows, other[kind]))}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", help="write the values computed to this JSON file")
    parser.add_argument("--compare", help="another checkout's values, from --save")
    args = parser.parse_args(argv)
    out = values(*corpus())
    report = {"seed": SEED, "channels": CHANNELS, **summary(out)}
    report["over_limit"] = over_limit(report)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({kind: [v for v, _, _ in rows] for kind, rows in out.items()}, fh)
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            report["compared_with"] = compare(out, json.load(fh))
    print(json.dumps(report, indent=2))
    return 1 if report["over_limit"] else 0


if __name__ == "__main__":
    sys.exit(main())
