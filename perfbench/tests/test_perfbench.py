"""Tests of the benchmark itself: the output checker, seeded inputs, spans
and short smoke runs of every workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from gmacwt import StandardChannel, build_region, max_sum_rate  # noqa: E402

DOC = {"standard": True, "rate_unit": "bits",
       "users": [{"h": 0.3, "power_max": 4.0}, {"h": 0.8, "power_max": 2.0},
                 {"h": 2.5, "power_max": 5.0}]}
CH = StandardChannel(h=(0.3, 0.8, 2.5), p_max=(4.0, 2.0, 5.0))
POWERS = [4.0, 2.0, 0.5]


def checker():
    return reference.Checker({"docs": {"d0": json.dumps(DOC)}})


def test_checker_accepts_program_sum_rate_and_flags_a_1e6_error():
    task = {"kind": "max_sum_rate", "doc": "d0"}
    out = max_sum_rate(CH).to_json_dict()
    assert checker().inproc(task, json.dumps(out)) is None
    out["sum_rate"] += 1e-6
    assert "sum_rate" in checker().inproc(task, json.dumps(out))


def test_checker_accepts_program_bounds_and_flags_a_1e6_error():
    task = {"kind": "build_region", "doc": "d0", "powers": POWERS}
    out = build_region(POWERS, CH).to_json_dict()
    assert checker().inproc(task, json.dumps(out)) is None
    out["halfspaces"][5]["bound"] -= 1e-6
    assert "bound of subset 6" in checker().inproc(task, json.dumps(out))


def test_checker_flags_nan_in_cli_output():
    task = {"argv": ["maxsum", "{doc}"], "doc": "d0", "expect": "ok"}
    out = max_sum_rate(CH).to_json_dict()
    stdout = json.dumps(out, indent=2) + "\n"
    assert checker().cli(task, 0, stdout, "") is None
    nan_out = stdout.replace(repr(out["rho_star"]), "NaN")
    assert "NaN" in nan_out
    assert "NaN" in checker().cli(task, 0, nan_out, "")


def test_checker_requires_one_error_line_for_invalid_input():
    task = {"argv": ["maxsum", "{doc}"], "doc": "d0", "expect": "error"}
    assert checker().cli(task, 1, "", "error: users: must be a non-empty array\n") is None
    assert checker().cli(task, 0, "{}", "") is not None
    assert checker().cli(task, 1, "", "Traceback (most recent call last):\nKeyError\n")


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    def files(seed, name):
        inputs.write(inputs.generate("cli-oneshot", seed), tmp_path / name)
        return {p.relative_to(tmp_path / name): p.read_bytes()
                for p in sorted((tmp_path / name).rglob("*")) if p.is_file()}

    first = files(7, "a")
    assert first == files(7, "b")
    assert first != files(8, "c")


def test_self_time_subtracts_direct_children():
    cols = {"keys": ["outer|", "inner|k2"], "key": [0, 1, 1], "parent": [-1, 0, 0],
            "start": [0.0, 1.0, 4.0], "end": [10.0, 2.0, 7.0],
            "note": [0.0, 1.0, 0.0], "points": [0.0, 0.0, 0.0]}
    summary = spans.summarize(spans.merge([cols, cols]), cycles=2)
    assert summary["outer|"]["self_p50_s"] == pytest.approx(6.0)
    assert summary["inner|*"]["n"] == 4
    assert summary["inner|k2"]["note"] == 2.0


def test_task_times_scale_each_block_to_the_reference_speed():
    block = run.CAL_BLOCK
    samples = [(0.010, 0.002)] * block + [(0.010, 0.001)] * block
    assert run.task_times(samples, ref_s=0.001) == pytest.approx(
        [0.005] * block + [0.010] * block)
    assert run.task_times(samples) == [0.010] * (2 * block)


def test_every_seed_gives_the_same_cycle_of_task_classes_and_failures():
    for workload in inputs.WORKLOADS:
        def cycle(seed):
            return [(t["cls"], bool(t.get("known_defect")))
                    for t in inputs.generate(workload, seed)["tasks"]]
        assert cycle(1) == cycle(2)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("cli-oneshot", 0), ("feasibility-scan", 0), ("region-oracle", 0),
    ("feasibility-scan", 1)])
def test_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "region-oracle", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
