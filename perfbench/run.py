"""Layered benchmark of gmacwt.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory.  Workloads (the reason for each is in BENCHMARK.json):

* ``cli-oneshot``       closed loop of ``python -m gmacwt.cli`` processes;
* ``feasibility-scan``  in-process closed loop over ``max_sum_rate`` and
  ``is_feasible`` at K = 8, 12, 16, ``solve_jamming`` and ``union_sweep``;
* ``region-oracle``     in-process closed loop over ``build_region`` plus
  ``to_json_dict`` and the two grid oracles;
* ``all``               each of the above in turn.

``--trace 0`` measures the end-to-end metrics with nothing wrapped: whole
cycles of the workload's seeded task list run one task at a time (a
closed loop, one client) until SECONDS have passed.  A task is one CLI
process (start to reaped exit) or one library call.

On a shared machine the speed of code drifts by a third and more for
tens of seconds at a time, so task times are reported at a fixed
reference speed.  Before every task a fixed piece of the same kind of
work is timed: a bare interpreter start (``python -c pass``) before a CLI
process, a pure-Python loop plus a numpy ufunc pass before a library call
(``worker.Calibration``).  Each task time is multiplied by the
calibration's reference time over the median of the CAL_BLOCK
calibration runs of its block of consecutive tasks.  The reference times
are typical of the 2-vCPU machine the benchmark was tuned on, so the
figures read as seconds there; the units say ``ref``.  A program
change does not move the calibration work, only the task times.
``tasks_per_s`` is tasks over the sum of their scaled times;
``task_p50_ms`` and ``task_p90_ms`` are quantiles of the scaled task
times.  The run record gives the same three unscaled, as wall time.
``setup_s`` (wall time) is the median over 12 fresh interpreters, half
started before the timed loop and half after it, of the
time from before ``import gmacwt`` to the end of parsing the channel
documents and the warm-up tasks; ``peak_rss_mb`` is the peak resident
memory of the process doing the work (the largest CLI process).

``--trace 1`` is the separate traced run: whole cycles without and with
module-boundary spans, alternating for SECONDS, then the K ladder (every
layer at K = 2, 8, 12, 16) and two traced processes per CLI command; it
reports the per-layer metrics.

Every output is checked against references computed by ``reference.py``.
A failing task counts in ``failed``; the run is ``correct`` unless a task
fails outside the known-defect classes named in ``inputs.py``.  ``#``
lines give the run record, every metric with its unit, ``failed_frac``
and the failing task classes; the last line is the JSON result.  Files go
to ``.perfbench_work/`` (run records stay in ``.perfbench_work/records``).
"""

import os

# Child processes get the caller's environment unchanged; only this
# process's own reference numpy is held to one thread.
CHILD_ENV = dict(os.environ)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 6  # fresh interpreters before and again after the timed loop
REF_REPS = 5
TASK_TIMEOUT_S = 60
CAL_REF_CLI_S = 60e-3  # reference time of the interpreter-start calibration
CAL_REF_LIB_S = 1.5e-3  # and of worker.Calibration
CAL_BLOCK = 8
CLI_LABELS = ("standardize", "feasible", "region", "maxsum", "maxsum-verify",
              "jam", "jam-verify", "sweep")


class BenchError(Exception):
    """The benchmark could not run; nothing is reported."""


class Outcomes:
    """Timed samples (seconds, calibration seconds) in run order, attempts
    and failures by task class."""

    def __init__(self):
        self.samples = []
        self.attempted = 0
        self.failures = {}

    def add(self, task, seconds, reason, cal_s=None):
        self.attempted += 1
        self.samples.append((seconds, cal_s))
        if reason:
            f = self.failures.setdefault(task["cls"], {
                "count": 0, "reason": reason, "known_defect": task.get("known_defect")})
            f["count"] += 1

    @property
    def failed(self):
        return sum(f["count"] for f in self.failures.values())

    @property
    def correct(self):
        """No failure outside the known-defect classes."""
        return all(f["known_defect"] for f in self.failures.values())


# -- processes -------------------------------------------------------------------

def spawn(argv, work):
    """Run ``argv`` to completion; returns (exit code, seconds, peak RSS MB,
    stdout, stderr).  The clock covers process start to reaped exit."""
    out_path, err_path = work / "task.out", work / "task.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=CHILD_ENV, cwd=ROOT)
        timer = threading.Timer(TASK_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, seconds, usage.ru_maxrss / 1024,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def worker(plan_path, mode, work, seconds=0.0):
    out = work / f"worker-{mode}.json"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), mode, str(out),
             repr(seconds)],
            env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
            timeout=2 * seconds + 150)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} failed:\n{proc.stderr[-3000:]}")
    return json.loads(out.read_text())


def check_worker(result, tasks, checker, outcomes):
    verdicts = {}
    for i, seconds, status, cal_s in result["samples"]:
        task = tasks[i]
        tid = task["id"]
        if status == "raised":
            reason = "raised " + result["errors"][tid]
        elif status == "differs":
            reason = "output differs from this task's first output"
        else:
            if tid not in verdicts:
                verdicts[tid] = checker.inproc(task, result["first"][tid])
            reason = verdicts[tid]
        outcomes.add(task, seconds, reason, cal_s)


def cli_tasks(tasks, work, checker, outcomes, deadline=None, traced=False,
              calibrated=False):
    """Run CLI tasks one process at a time: the whole list once, or whole
    cycles of it until ``deadline`` has passed, ``calibrated`` with a bare
    interpreter start timed before each.  Returns (summed task time, peak child
    RSS MB, span columns of each traced process)."""
    docs = work / "docs"
    span_path = work / "spans.json"
    total, peak, span_sets = 0.0, 0.0, []
    i = 0
    while True:
        task = tasks[i % len(tasks)]
        args = [a.replace("{doc}", str(docs / f"{task['doc']}.json")) for a in task["argv"]]
        if traced:
            span_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "cli_launch.py"), str(span_path), *args]
        else:
            argv = [sys.executable, "-m", "gmacwt.cli", *args]
        cal_s = bare_start(work) if calibrated else None
        rc, seconds, rss, stdout, stderr = spawn(argv, work)
        outcomes.add(task, seconds, checker.cli(task, rc, stdout, stderr), cal_s)
        total += seconds
        peak = max(peak, rss)
        if traced and span_path.exists():
            span_sets.append(json.loads(span_path.read_text()))
        i += 1
        if i % len(tasks) == 0 and (deadline is None or time.perf_counter() >= deadline):
            break
    return total, peak, span_sets


def bare_start(work):
    """Seconds a bare ``python -c pass`` takes, start to reaped exit."""
    rc, seconds, _, _, stderr = spawn([sys.executable, "-c", "pass"], work)
    if rc != 0:
        raise BenchError(f"python -c pass failed:\n{stderr[-2000:]}")
    return seconds


def median_wall(code, work):
    """Median wall time of ``python -c code`` over REF_REPS processes."""
    walls = []
    for _ in range(REF_REPS):
        rc, seconds, _, _, stderr = spawn([sys.executable, "-c", code], work)
        if rc != 0:
            raise BenchError(f"python -c {code!r} failed:\n{stderr[-2000:]}")
        walls.append(seconds)
    return statistics.median(walls)


def cli_refs(work, bare_s):
    """``import gmacwt.cli`` beyond a bare interpreter, and whether it loads numpy."""
    rc, _, _, stdout, stderr = spawn(
        [sys.executable, "-c", "import sys, gmacwt.cli; print(int('numpy' in sys.modules))"],
        work)
    if rc != 0:
        raise BenchError(f"import gmacwt.cli failed:\n{stderr[-2000:]}")
    return {"bare_s": bare_s, "numpy_on_import": int(stdout.strip()),
            "import_s": median_wall("import gmacwt.cli", work) - bare_s}


# -- metrics --------------------------------------------------------------------

def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def task_times(samples, ref_s=None):
    """Task times in run order: wall time, or scaled to the reference speed
    at which the calibration takes ``ref_s``."""
    times = []
    for b in range(0, len(samples), CAL_BLOCK):
        block = samples[b:b + CAL_BLOCK]
        scale = ref_s / statistics.median(c for _, c in block) if ref_s else 1.0
        times += [seconds * scale for seconds, _ in block]
    return times


def time_metrics(times):
    return (len(times) / math.fsum(times), statistics.median(times) * 1e3,
            quantile(times, 90) * 1e3)


def timed_run(plan, plan_path, work, seconds, checker, outcomes):
    """End-to-end metrics, and the unscaled wall-time figures for the record."""
    cli = plan["workload"] == "cli-oneshot"

    def setups():
        return [worker(plan_path, "setup-cli" if cli else "setup", work)["setup_s"]
                for _ in range(SETUP_REPS)]

    setup = setups()
    if cli:
        _, peak, _ = cli_tasks(plan["tasks"], work, checker, outcomes,
                               deadline=time.perf_counter() + seconds, calibrated=True)
    else:
        result = worker(plan_path, "timed", work, seconds)
        check_worker(result, plan["tasks"], checker, outcomes)
        peak = result["peak_rss_mb"]
    setup += setups()
    names = ("tasks_per_s", "task_p50_ms", "task_p90_ms")
    ref_s = CAL_REF_CLI_S if cli else CAL_REF_LIB_S
    values = dict(zip(names, time_metrics(task_times(outcomes.samples, ref_s))))
    values.update(setup_s=statistics.median(setup), peak_rss_mb=peak)
    wall = dict(zip(("wall_" + n for n in names), time_metrics(task_times(outcomes.samples))))
    wall["calibration_ms"] = statistics.median(c for _, c in outcomes.samples) * 1e3
    return values, wall


def traced_run(plan, plan_path, work, seconds, checker, outcomes, refs):
    if plan["workload"] == "cli-oneshot":
        # Untraced and traced cycles alternate, as in the worker's traced mode.
        cycles, untraced, traced, span_sets = 0, 0.0, 0.0, []
        deadline = time.perf_counter() + seconds
        while cycles == 0 or time.perf_counter() < deadline:
            untraced += cli_tasks(plan["tasks"], work, checker, outcomes)[0]
            total, _, sets = cli_tasks(plan["tasks"], work, checker, outcomes, traced=True)
            traced += total
            span_sets += sets
            cycles += 1
        workload = spans.summarize(spans.merge(span_sets), cycles)
    else:
        result = worker(plan_path, "traced", work, seconds)
        check_worker(result, plan["tasks"], checker, outcomes)
        untraced, traced, workload = result["untraced_s"], result["traced_s"], result["summary"]
    ladder = worker(plan_path, "ladder", work)
    check_worker(ladder, plan["ladder"], checker, outcomes)
    _, _, span_sets = cli_tasks(plan["cli_ladder"] * 2, work, checker, outcomes, traced=True)
    summaries = [workload, ladder["summary"], spans.summarize(spans.merge(span_sets))]
    return per_layer(summaries, refs, traced / untraced - 1.0)


def per_layer(summaries, refs, overhead):
    """Per-layer metrics.  Each comes from the first summary that has its
    span key: the workload's own traced cycles, else the K ladder, else the
    per-command CLI ladder.  Counts are per traced cycle.  Grid points are
    computed from the grid sizes the benchmark passes in, not counted by
    the program."""
    def source(key):
        for s in summaries:
            if key in s:
                return s
        raise BenchError(f"no span {key!r} was recorded")

    def find(key):
        return source(key)[key]

    def ms(key, field="p50_s"):
        return find(key)[field] * 1e3

    def per_cycle(name, label):
        s = source(f"{name}|*")
        return s.get(f"{name}|{label}", {"n": 0})["n"] / s[f"{name}|*"]["cycles"]

    m = {
        "cli.bare_python_ms": refs["bare_s"] * 1e3,
        "cli.import_ms": refs["import_s"] * 1e3,
        "cli.numpy_on_import": refs["numpy_on_import"],
    }
    for label in CLI_LABELS:
        m[f"cli.main_ms.{label}"] = ms(f"cli.main|{label}", "self_p50_s")
    m["channel.load_channel_us"] = ms("channel.load_channel|") * 1e3
    m["channel.channel_from_json_us.k16"] = ms("channel.channel_from_json|k16") * 1e3
    for k in (2, 8, 12, 16):
        m[f"sumrate.max_sum_rate_ms.k{k}"] = ms(f"sumrate.max_sum_rate|k{k}")
    m["sumrate.max_sum_rate.self_ms.k16"] = ms("sumrate.max_sum_rate|k16", "self_p50_s")
    for k in (2, 8, 12, 16):
        m[f"region.is_feasible_ms.k{k}"] = ms(f"region.is_feasible|k{k}")
    feas = find("region.is_feasible|*")
    m["region.is_feasible.calls"] = feas["n"] / feas["cycles"]
    m["region.is_feasible.infeasible_ratio"] = feas["note"] / feas["n"]
    for s in (21, 51):
        m[f"region.union_sweep_ms.s{s}"] = ms(f"region.union_sweep|s{s}")
    sweep = find("region.union_sweep|*")
    m["region.union_sweep.points_per_s"] = sweep["points"] / sweep["sum_s"]
    m["region.union_sweep.feasible_ratio"] = sweep["note"] / sweep["points"]
    for k in (2, 8, 12, 16):
        m[f"region.build_region_ms.k{k}"] = ms(f"region.build_region|k{k}")
    m["region.build_region.self_ms.k16"] = ms("region.build_region|k16", "self_p50_s")
    m["region.to_json_dict_ms.k16"] = ms("region.to_json_dict|k16")
    m["jamming.solve_jamming_us"] = ms("jamming.solve_jamming|*") * 1e3
    for branch in ("NoJam", "InteriorRoot", "FullJam", "AllSilent"):
        m[f"jamming.branch.{branch}"] = per_cycle("jamming.solve_jamming", branch)
    m["oracle.grid_max_sum_rate_ms.k4"] = ms("oracle.grid_max_sum_rate|k4")
    m["oracle.grid_max_sum_rate_ms.k6"] = ms("oracle.grid_max_sum_rate|k6")
    gmsr = find("oracle.grid_max_sum_rate|*")
    m["oracle.grid_max_sum_rate.points_per_s"] = gmsr["points"] / gmsr["sum_s"]
    m["oracle.grid_max_jamming_ms.n1e4"] = ms("oracle.grid_max_jamming|n1e4")
    m["oracle.grid_max_jamming_ms.n1e6"] = ms("oracle.grid_max_jamming|n1e6")
    gmj = find("oracle.grid_max_jamming|*")
    m["oracle.grid_max_jamming.points_per_s"] = gmj["points"] / gmj["sum_s"]
    m["trace.overhead_frac"] = overhead
    return m


# -- one run --------------------------------------------------------------------

def git_sha():
    env = dict(CHILD_ENV, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_one(workload, seed, seconds, trace, declared):
    work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = inputs.generate(workload, seed)
        plan_path = inputs.write(plan, work)
        checker = reference.Checker(plan)
        outcomes = Outcomes()
        bare_s = median_wall("pass", work)
        wall = {}
        if trace:
            values = traced_run(plan, plan_path, work, seconds, checker, outcomes,
                                cli_refs(work, bare_s))
        else:
            values, wall = timed_run(plan, plan_path, work, seconds, checker, outcomes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared["per_layer" if trace else "end_to_end"]
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": reference.np.__version__,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "cli.bare_python_ms": bare_s * 1e3, "samples": outcomes.attempted, **wall,
    }
    result = {
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    report(record, result, outcomes)
    records = ROOT / ".perfbench_work" / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(
        {"record": record, "result": result, "failures": outcomes.failures}, indent=1))
    return result


def report(record, result, outcomes):
    print(f"# run record {json.dumps(record)}")
    for name, metric in result["metrics"].items():
        print(f"# {record['workload']:<17} {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"# {record['workload']:<17} {'failed_frac':<40} {frac:>14.6g} ratio"
          f" ({result['failed']} of {result['attempted']} tasks)")
    for cls, f in sorted(outcomes.failures.items()):
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"#   failing class {cls} x{f['count']} [{tag}] {f['reason']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gmacwt" / "__init__.py").is_file():
        print(f"error: no gmacwt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    CHILD_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [src, CHILD_ENV.get("PYTHONPATH")]))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in declared[kind]}
                for kind in ("end_to_end", "per_layer")}

    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace, declared)
                   for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
