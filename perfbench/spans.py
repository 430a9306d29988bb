"""Module-boundary spans for the traced run.

``install`` wraps the public entry points of each gmacwt module at every
name a caller looks them up by (``gmacwt.sumrate.is_feasible`` as well as
``gmacwt.region.is_feasible``), so nested calls such as ``max_sum_rate``
-> ``is_feasible`` become child spans.  Per-subset leaf helpers such as
``awgn_capacity`` are left alone: wrapping a call made once per subset
would cost more than the work it measures.

A span records its key (``"module.function|label"``), parent, start and
end, plus a result-derived ``note`` and a computed grid ``points`` count.
Spans sit in flat arrays so that hundreds of thousands of them add no
garbage-collector work; ``summarize`` turns them into per-key statistics,
with self time = duration minus the durations of direct children.
Only the standard library is used, so installing spans never imports
numpy ahead of the program.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from array import array


class Tracer:
    """In-memory span store with a stack for parent ids."""

    def __init__(self):
        self.keys = {}
        self.key = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.note = array("d")
        self.points = array("d")
        self._stack = []

    def begin(self):
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(sid)
        for column in (self.key, self.end, self.note, self.points):
            column.append(0)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid, end, key, note=0.0, points=0.0):
        self._stack.pop()
        self.end[sid] = end
        self.key[sid] = self.keys.setdefault(key, len(self.keys))
        self.note[sid] = note
        self.points[sid] = points

    def columns(self):
        """Every span, column by column (arrays; ``list`` them for JSON)."""
        return {"keys": list(self.keys), "key": self.key, "parent": self.parent,
                "start": self.start, "end": self.end, "note": self.note,
                "points": self.points}


def _wrap(tracer, name, fn, describe):
    def traced(*args, **kwargs):
        sid = tracer.begin()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid, time.perf_counter(), name + "|error")
            raise
        end = time.perf_counter()
        label, note, points = describe(args, result)
        tracer.close(sid, end, f"{name}|{label}", note, points)
        return result
    traced.__wrapped__ = fn
    return traced


def _k(ch):
    return f"k{ch.num_users}"


def _cli_label(argv, rc):
    if rc != 0:
        return "error"
    return argv[0] + ("-verify" if "--verify" in argv else "")


#: module -> function -> describe(args, result) -> (label, note, points).
#: Labels carry the size (K users, sweep steps, jamming grid decade), the
#: jamming branch, or the CLI command; ``note`` counts infeasible answers
#: and feasible sweep points; ``points`` is the grid size the caller asked
#: for, computed from the arguments.
DESCRIBE = {
    "channel": {
        "load_channel": lambda a, r: ("", 0, 0),
        "channel_from_json": lambda a, r: (_k(r), 0, 0),
    },
    "region": {
        "is_feasible": lambda a, r: (_k(a[1]), 0.0 if r[0] else 1.0, 0),
        "build_region": lambda a, r: (_k(a[1]), 0, 0),
        "union_sweep": lambda a, r: (f"s{a[1]}", len(r), a[1] ** 2),
    },
    "sumrate": {
        "max_sum_rate": lambda a, r: (_k(a[0]), 0, 0),
    },
    "jamming": {
        "solve_jamming": lambda a, r: (r.branch, 0, 0),
    },
    "oracle": {
        "grid_max_sum_rate": lambda a, r: (
            _k(a[0]), 0, a[1].steps_per_axis ** a[0].num_users),
        "grid_max_jamming": lambda a, r: (
            f"n1e{round(math.log10(a[1].steps_per_axis))}", 0, 2 * a[1].steps_per_axis),
    },
    "cli": {
        "main": lambda a, r: (_cli_label(a[0], r), 0, 0),
    },
}


def install(tracer):
    """Route the gmacwt entry points of every loaded module through
    ``tracer``.  Call after importing the modules to be traced; returns a
    function that puts the originals back."""
    loaded = [m for n, m in list(sys.modules.items())
              if n == "gmacwt" or n.startswith("gmacwt.")]
    replaced = []

    def replace(owner, attr, wrapped):
        replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    for modname, funcs in DESCRIBE.items():
        home = sys.modules.get(f"gmacwt.{modname}")
        if home is None:
            continue
        for fname, describe in funcs.items():
            original = getattr(home, fname)
            wrapped = _wrap(tracer, f"{modname}.{fname}", original, describe)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        replace(module, attr, wrapped)
    rate_region = sys.modules["gmacwt.region"].RateRegion
    replace(rate_region, "to_json_dict", _wrap(
        tracer, "region.to_json_dict", rate_region.to_json_dict,
        lambda a, r: (f"k{a[0].num_users}", 0, 0)))

    def restore():
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
    return restore


def merge(column_sets):
    """Concatenate span columns from several processes."""
    out = {"keys": [], "key": [], "parent": [], "start": [], "end": [],
           "note": [], "points": []}
    index = {}
    for cols in column_sets:
        base = len(out["start"])
        remap = [index.setdefault(k, len(index)) for k in cols["keys"]]
        out["key"] += [remap[k] for k in cols["key"]]
        out["parent"] += [p + base if p >= 0 else -1 for p in cols["parent"]]
        for name in ("start", "end", "note", "points"):
            out[name] += cols[name]
    out["keys"] = list(index)
    return out


def summarize(cols, cycles=1):
    """Per-key statistics; ``"name|*"`` pools every label of a name.

    Each entry has the span count ``n``, median duration ``p50_s``, median
    self time ``self_p50_s``, total duration ``sum_s``, summed ``note`` and
    ``points``, and ``cycles``, the number of workload cycles traced.
    """
    dur = [e - s for s, e in zip(cols["start"], cols["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(cols["parent"]):
        if p >= 0:
            child[p] += dur[i]
    groups = {}
    for i, k in enumerate(cols["key"]):
        key = cols["keys"][k]
        for group in (key, key.split("|")[0] + "|*"):
            g = groups.setdefault(group, ([], [], [0.0, 0.0]))
            g[0].append(dur[i])
            g[1].append(dur[i] - child[i])
            g[2][0] += cols["note"][i]
            g[2][1] += cols["points"][i]
    return {key: {"n": len(d), "p50_s": statistics.median(d),
                  "self_p50_s": statistics.median(s), "sum_s": math.fsum(d),
                  "note": acc[0], "points": acc[1], "cycles": cycles}
            for key, (d, s, acc) in groups.items()}
