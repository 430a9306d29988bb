"""Alternating pairs of benchmark runs, a base revision against the working
tree, with the claim rule applied in code.

Usage::

    python scripts/bench_pairs.py --base REV --workload W \\
        --seeds 2721-2730 [--claim METRIC] --out BENCH_N.json

The base is ``git archive REV`` and the change a copy of the working tree
(tracked files and untracked ones that ``.gitignore`` does not name),
each in its own temporary directory (under ``TMPDIR``), so both sides
run the same way and neither run writes into the repository.  There is
one pair per seed: pair ``i`` runs ``python3 perfbench/run.py --workload
W --seed SEEDS[i] --seconds S --trace 0`` on both sides, the base first
in even pairs and the change first in odd ones, where ``S`` is
``BENCHMARK.json``'s ``run_seconds``.

The output file holds one entry per workload under ``workloads``;
running again with the same ``--out`` and another workload adds that
workload and keeps the others, and the ``notes`` key, as they were.
Per metric, each side's median and quartiles (``statistics.quantiles``,
inclusive method), the pairs the change won (ties count for neither) and
a verdict under these rules:

* the claimed metric is ``met`` when the change wins at least 9 of every
  10 pairs, over at least 10 pairs, and the medians differ, in the
  better direction, by more than the base's interquartile range;
* every metric is ``within bound`` when the change's median is no worse
  than the base's by more than its ``BENCHMARK.json`` bound, relative to
  the base's median; ``worse than bound`` when it is;
* it is ``unresolved`` instead, whatever the medians, when the base's
  own interquartile range over its median passes that bound, unless
  every run of the change reads better than every run of the base
  (``better in every run``);
* ``failed_frac``, the failed tasks over those attempted on each side,
  must not grow, and every run must be ``correct``.
"""

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: A claim needs at least this share of the pairs won, over at least this
#: many pairs.
MIN_WON_SHARE = 0.9
MIN_PAIRS = 10


# -- the rules -------------------------------------------------------------------

def quartiles(values):
    """``(q1, median, q3)`` by ``statistics.quantiles``' inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _gain(parent, change, better):
    """How much better ``change`` reads than ``parent``: positive is better."""
    return change - parent if better == "higher" else parent - change


def pairs_won(parent, change, better):
    """Pairs, matched by index, in which the change reads strictly better."""
    return sum(_gain(p, c, better) > 0 for p, c in zip(parent, change, strict=True))


def claim_verdict(parent, change, better):
    """The claim rule on one metric's runs, matched by pair."""
    won = pairs_won(parent, change, better)
    q1, median, q3 = quartiles(parent)
    gain = _gain(median, statistics.median(change), better)
    n = len(parent)
    met = n >= MIN_PAIRS and won >= MIN_WON_SHARE * n and gain > q3 - q1
    return {"pairs": n, "pairs_won": won, "median_gain": gain, "parent_iqr": q3 - q1,
            "verdict": "met" if met else "not met"}


def bound_verdict(parent, change, better, bound):
    """The no-regression rule on one metric: ``within bound``, ``worse than
    bound``, ``unresolved`` or ``better in every run``."""
    q1, median, q3 = quartiles(parent)
    worse = -_gain(median, statistics.median(change), better) / median
    if (q3 - q1) / median > bound:
        if all(_gain(p, c, better) > 0 for p in parent for c in change):
            return "better in every run"
        return "unresolved"
    return "worse than bound" if worse > bound else "within bound"


def failed_verdict(parent_runs, change_runs):
    """Failed tasks over attempted ones per side, and whether the change's
    share grew or a run was not ``correct``."""
    frac = {side: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for side, runs in (("parent", parent_runs), ("change", change_runs))}
    correct = all(r["correct"] for r in (*parent_runs, *change_runs))
    ok = correct and frac["change"] <= frac["parent"]
    return {**frac, "all_correct": correct,
            "verdict": "no more failures" if ok else "more failures"}


def summarize(runs, declared, claim=None):
    """The per-metric summary and the verdicts of one workload's runs.
    ``runs`` lists ``(parent_run, change_run)`` per pair."""
    parent_runs = [p for p, _ in runs]
    change_runs = [c for _, c in runs]
    metrics = {}
    for m in declared:
        name, better = m["name"], m["better"]
        parent = [r["metrics"][name] for r in parent_runs]
        change = [r["metrics"][name] for r in change_runs]
        entry = {"unit": m["unit"], "better": better, "bound": m["bound"]}
        for side, values in (("parent", parent), ("change", change)):
            q1, median, q3 = quartiles(values)
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        base = entry["parent"]["median"]
        entry["change_vs_parent"] = (entry["change"]["median"] - base) / base
        entry["pairs_won"] = pairs_won(parent, change, better)
        entry["verdict"] = bound_verdict(parent, change, better, m["bound"])
        metrics[name] = entry
    claimed = None
    if claim is not None:
        m = next(m for m in declared if m["name"] == claim)
        claimed = {"metric": claim, **claim_verdict(
            [r["metrics"][claim] for r in parent_runs],
            [r["metrics"][claim] for r in change_runs], m["better"])}
    return {"metrics": metrics, "failed_frac": failed_verdict(parent_runs, change_runs),
            "claim": claimed}


# -- the runs --------------------------------------------------------------------

def parse_seeds(items):
    """Seeds from ``N`` and ``A-B`` (inclusive) items, in order."""
    seeds = []
    for item in items:
        first, _, last = item.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def export_base(rev, dest):
    with subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          stdout=subprocess.PIPE) as git:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout, check=True)
    if git.returncode:
        raise SystemExit(f"error: git archive {rev} failed")


def copy_tree(dest):
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_side(tree, workload, seed, seconds):
    """One untraced run: its result and the ``python``/``numpy``/``nproc``
    of its run record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: run failed in {tree}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = next(json.loads(line.removeprefix("# run record "))
                  for line in lines if line.startswith("# run record "))
    result = json.loads(lines[-1])
    run = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    return run, {k: record[k] for k in ("python", "numpy", "nproc")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="N or A-B, one pair per seed")
    parser.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["end_to_end"]
    if args.claim is not None and args.claim not in {m["name"] for m in declared}:
        parser.error(f"--claim: {args.claim} is not an end-to-end metric of BENCHMARK.json")
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip()

    runs, order = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        export_base(base_sha, trees["parent"])
        copy_tree(trees["change"])
        for i, seed in enumerate(seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(f"{sides[0]} first")
            pair = {}
            for side in sides:
                pair[side], machine = run_side(trees[side], args.workload, seed, seconds)
                print(f"# pair {i + 1}/{len(seeds)} seed {seed} {side}: "
                      f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
            runs.append((pair["parent"], pair["change"]))

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    if out.get("base", {}).get("sha", base_sha) != base_sha:
        raise SystemExit(f"error: {args.out} compares against another base")
    head = _git("rev-parse", "HEAD").strip()
    out.update({
        "base": {"rev": args.base, "sha": base_sha},
        "change": {"working_tree_of": head},
        "command": "python3 perfbench/run.py --workload W --seed S --seconds SECONDS"
                   " --trace 0, each side from its own directory",
        "machine": {**machine, "platform": platform.platform()},
        "rules": __doc__[__doc__.index("* the claimed"):].strip(),
    })
    out.setdefault("workloads", {})[args.workload] = {
        "seconds": seconds,
        "seeds": seeds,
        "order": order,
        "runs": [{"seed": seed, "parent": p, "change": c} for seed, (p, c) in zip(seeds, runs)],
        **summarize(runs, declared, args.claim),
    }
    out.setdefault("notes", {})
    args.out.write_text(json.dumps(out, indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
