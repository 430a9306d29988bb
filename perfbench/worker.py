"""Fresh-interpreter runner for set-up timing and the in-process workloads.

Usage::

    python perfbench/worker.py PLAN MODE OUT [SECONDS]

MODE is one of

* ``setup``      import gmacwt, parse the plan's channel documents, run the
                 warm-up tasks; report the time taken (``setup_s``);
* ``setup-cli``  the same for the CLI workload: import ``gmacwt.cli``, load
                 every channel file of a valid task, run the warm-up
                 commands in-process;
* ``timed``      set up, then run whole task cycles in a closed loop until
                 SECONDS have passed, with a calibration run (see
                 ``Calibration``) before each task;
* ``traced``     set up, then alternate whole cycles without and with spans
                 installed until SECONDS have passed;
* ``ladder``     set up for the ladder tasks and run them once, traced.

The result goes to OUT as JSON.  Only the standard library is imported
before gmacwt, so the program pays for its own numpy import.  The first
output of every task is sent back as JSON text for the parent to check;
later outputs of the same task must render to the same text.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent


class Calibration:
    """Fixed work timed next to the tasks, a pure-Python loop and a numpy
    ufunc pass, the two kinds of work the library does; run.py scales each
    task's time by it to a reference speed.  Built after set-up, so that
    the program still pays for its own numpy import."""

    def __init__(self):
        import numpy as np
        self.np = np
        self.array = np.linspace(0.0, 1.0, 200_000)
        self.out = np.empty_like(self.array)  # no allocation while timed

    def __call__(self):
        """Seconds the calibration work takes at this moment."""
        np = self.np
        t0 = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i
        np.multiply(self.array, 3.0, out=self.out)
        np.log1p(self.out, out=self.out)
        float(self.out.sum())
        return time.perf_counter() - t0


def _import_gmacwt():
    import gmacwt
    if not Path(gmacwt.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"gmacwt was imported from {gmacwt.__file__}, not from {ROOT / 'src'}")
    from gmacwt import channel, jamming, oracle, region, sumrate
    return channel, jamming, oracle, region, sumrate


class Runner:
    """Prepared arguments and calls for a list of in-process tasks."""

    def __init__(self, plan, tasks):
        channel, jamming, oracle, region, sumrate = _import_gmacwt()
        self.channel = channel
        self.calls = {
            "max_sum_rate": lambda t, a: sumrate.max_sum_rate(a),
            "is_feasible": lambda t, a: region.is_feasible(t["powers"], a),
            "build_region": lambda t, a: region.build_region(t["powers"], a).to_json_dict(),
            "solve_jamming": lambda t, a: jamming.solve_jamming(*a),
            "union_sweep": lambda t, a: region.union_sweep(a, t["steps"]),
            "grid_max_sum_rate": lambda t, a: oracle.grid_max_sum_rate(
                a, oracle.GridSpec(steps_per_axis=t["steps"])),
            "grid_max_jamming": lambda t, a: oracle.grid_max_jamming(
                a[0], oracle.GridSpec(steps_per_axis=t["steps"]), a[1]),
            "channel_from_json": lambda t, a: channel.channel_from_json(a),
        }
        parsed = {}
        self.args = []
        for task in tasks:
            doc = task["doc"]
            if doc not in parsed:
                obj = json.loads(plan["docs"][doc])
                parsed[doc] = (obj, channel.channel_from_json(obj))
            obj, ch = parsed[doc]
            if task["kind"] == "channel_from_json":
                self.args.append(obj)
            elif task["kind"] in ("solve_jamming", "grid_max_jamming"):
                self.args.append((jamming.TwoUserChannel.from_standard(ch)[0], ch.rate_unit))
            else:
                self.args.append(ch)
        self.tasks = tasks
        self.first = {}
        self.digests = {}
        self.errors = {}
        self.samples = []

    def call(self, i):
        task = self.tasks[i]
        return self.calls[task["kind"]](task, self.args[i])

    def render(self, kind, r):
        if kind in ("max_sum_rate", "solve_jamming"):
            return r.to_json_dict()
        if kind == "is_feasible":
            ok, w = r
            return {"feasible": ok, "witness": None if w is None else {
                "kind": w.kind, "users": [k + 1 for k in w.users]}}
        if kind == "union_sweep":
            return [[p1, p2] + [b for _, b in reg.halfspaces] for (p1, p2), reg in r]
        if kind == "grid_max_sum_rate":
            return {"powers": list(r[0]), "rate": r[1]}
        if kind == "grid_max_jamming":
            return {"p1": r[0], "p2": r[1], "rate": r[2]}
        if kind == "channel_from_json":
            return self.channel.channel_to_json(r)
        return r

    def run(self, i, record=True, cal_s=None):
        """Time one task; returns its duration in seconds.  ``cal_s`` is the
        calibration time recorded with the sample."""
        task = self.tasks[i]
        t0 = time.perf_counter()
        try:
            r = self.call(i)
        except Exception as exc:  # a failing task is reported, not fatal
            dt = time.perf_counter() - t0
            self.errors.setdefault(task["id"], f"{type(exc).__name__}: {exc}")
            status = "raised"
        else:
            dt = time.perf_counter() - t0
            text = json.dumps(self.render(task["kind"], r))
            digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
            if task["id"] not in self.digests:
                self.digests[task["id"]] = digest
                self.first[task["id"]] = text
            status = "ok" if self.digests[task["id"]] == digest else "differs"
        if record:
            self.samples.append((i, dt, status, cal_s))
        return dt

    def cycles(self, count):
        """Run ``count`` whole cycles; returns the summed task time."""
        return sum(self.run(i) for _ in range(count) for i in range(len(self.tasks)))

    def calibrated_cycle(self, calibration):
        """One whole cycle with a calibration run before each task."""
        for i in range(len(self.tasks)):
            self.run(i, cal_s=calibration())

    def result(self):
        return {"samples": self.samples, "first": self.first, "errors": self.errors}


def _setup_cli(plan, plan_dir):
    import gmacwt.cli
    from gmacwt.channel import load_channel
    docs = plan_dir / "docs"
    for doc in sorted({t["doc"] for t in plan["tasks"] if t["expect"] == "ok"}):
        load_channel(docs / f"{doc}.json")
    out = plan_dir / "warmup.out"
    for task in plan["warmup"]:
        argv = [a.replace("{doc}", str(docs / f"{task['doc']}.json")) for a in task["argv"]]
        if gmacwt.cli.main(argv + ["--out", str(out)]) != 0:
            raise SystemExit(f"warm-up command {argv} failed")


def main(argv):
    plan_path, mode, out_path = Path(argv[1]), argv[2], Path(argv[3])
    seconds = float(argv[4]) if len(argv) > 4 else 0.0
    plan = json.loads(plan_path.read_text(encoding="utf-8"))

    t0 = time.perf_counter()
    if mode == "setup-cli":
        _setup_cli(plan, plan_path.parent)
        out_path.write_text(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if mode == "ladder":
        runner = Runner(plan, plan["ladder"])
    else:
        runner = Runner(plan, plan["tasks"])
        warm = Runner(plan, plan["warmup"])
        for i in range(len(warm.tasks)):
            warm.run(i, record=False)
    out = {"setup_s": time.perf_counter() - t0}

    if mode == "timed":
        calibration = Calibration()
        deadline = time.perf_counter() + seconds
        while True:
            runner.calibrated_cycle(calibration)
            if time.perf_counter() >= deadline:
                break
        out.update(runner.result())
    elif mode == "traced":
        # Untraced and traced cycles alternate, so drift in machine speed
        # falls on both sides of the overhead ratio alike.
        tracer = spans.Tracer()
        cycles, untraced, traced = 0, 0.0, 0.0
        deadline = time.perf_counter() + seconds
        while cycles == 0 or time.perf_counter() < deadline:
            untraced += runner.cycles(1)
            restore = spans.install(tracer)
            traced += runner.cycles(1)
            restore()
            cycles += 1
        out.update(runner.result())
        out.update(untraced_s=untraced, traced_s=traced,
                   summary=spans.summarize(tracer.columns(), cycles))
    elif mode == "ladder":
        tracer = spans.Tracer()
        spans.install(tracer)
        runner.cycles(1)
        out.update(runner.result())
        out["summary"] = spans.summarize(tracer.columns())
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
