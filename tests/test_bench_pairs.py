"""The rules of ``scripts/bench_pairs.py`` on synthetic runs: the claim
rule (at least 9 of 10 pairs won and a median gain past the base's
interquartile range), the no-regression rule with its ``unresolved``
case, and the failure count."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


def test_quartiles_are_the_inclusive_ones():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_a_claim_is_met_with_nine_of_ten_pairs_and_a_gain_past_the_iqr(better):
    step = 5.0 if better == "higher" else -5.0
    change = [p + step for p in PARENT]
    change[3] = PARENT[3] - step  # one pair lost
    verdict = bench_pairs.claim_verdict(PARENT, change, better)
    assert (verdict["pairs"], verdict["pairs_won"], verdict["verdict"]) == (10, 9, "met")
    assert verdict["median_gain"] > verdict["parent_iqr"]
    change[4] = PARENT[4] - step  # a second pair lost: 8 of 10
    assert bench_pairs.claim_verdict(PARENT, change, better)["verdict"] == "not met"


def test_ties_count_for_neither_side():
    change = [p + 5.0 for p in PARENT]
    change[0] = PARENT[0]
    change[1] = PARENT[1]
    verdict = bench_pairs.claim_verdict(PARENT, change, "higher")
    assert verdict["pairs_won"] == 8 and verdict["verdict"] == "not met"


def test_a_claim_within_the_base_iqr_is_not_met_even_if_every_pair_is_won():
    change = [p + 0.01 for p in PARENT]
    verdict = bench_pairs.claim_verdict(PARENT, change, "higher")
    assert verdict["pairs_won"] == 10
    assert verdict["median_gain"] < verdict["parent_iqr"]
    assert verdict["verdict"] == "not met"


def test_a_claim_needs_ten_pairs():
    verdict = bench_pairs.claim_verdict(PARENT[:9], [p + 5.0 for p in PARENT[:9]], "higher")
    assert (verdict["pairs_won"], verdict["verdict"]) == (9, "not met")


def test_the_bound_is_relative_to_the_base_median_and_signed_by_direction():
    assert bench_pairs.bound_verdict(PARENT, [p * 0.80 for p in PARENT], "higher",
                                     0.25) == "within bound"
    assert bench_pairs.bound_verdict(PARENT, [p * 0.70 for p in PARENT], "higher",
                                     0.25) == "worse than bound"
    assert bench_pairs.bound_verdict(PARENT, [p * 1.20 for p in PARENT], "lower",
                                     0.25) == "within bound"
    assert bench_pairs.bound_verdict(PARENT, [p * 1.30 for p in PARENT], "lower",
                                     0.25) == "worse than bound"
    assert bench_pairs.bound_verdict(PARENT, [p * 3.0 for p in PARENT], "higher",
                                     0.25) == "within bound"


def test_a_base_spread_past_the_bound_leaves_the_metric_unresolved():
    wide = [1.0, 2.0, 1.0, 2.0, 1.5]  # interquartile range 1.0 over a median of 1.5
    assert bench_pairs.bound_verdict(wide, [10.0] * 5, "lower", 0.25) == "unresolved"
    assert bench_pairs.bound_verdict(wide, [1.5] * 5, "lower", 0.25) == "unresolved"
    assert bench_pairs.bound_verdict(wide, [0.9] * 5, "lower", 0.25) == "better in every run"
    assert bench_pairs.bound_verdict(wide, [0.9, 0.9, 1.0], "lower", 0.25) == "unresolved"


def _run(failed, attempted=100, correct=True):
    return {"failed": failed, "attempted": attempted, "correct": correct}


def test_the_failed_fraction_may_not_grow():
    same = bench_pairs.failed_verdict([_run(2), _run(2)], [_run(1), _run(3)])
    assert (same["parent"], same["change"], same["verdict"]) == (0.02, 0.02, "no more failures")
    assert bench_pairs.failed_verdict([_run(2)], [_run(3)])["verdict"] == "more failures"
    assert bench_pairs.failed_verdict([_run(0)], [_run(0, correct=False)])["verdict"] == \
        "more failures"


def test_summarize_gives_every_declared_metric_a_verdict():
    declared = [{"name": "tasks_per_s", "unit": "1/ref_s", "better": "higher", "bound": 0.25},
                {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15}]
    runs = [({**_run(0), "metrics": {"tasks_per_s": p, "peak_rss_mb": 80.0}},
             {**_run(0), "metrics": {"tasks_per_s": p * 1.5, "peak_rss_mb": 76.0}})
            for p in PARENT]
    out = bench_pairs.summarize(runs, declared, claim="tasks_per_s")
    assert out["claim"]["verdict"] == "met" and out["claim"]["pairs_won"] == 10
    rss = out["metrics"]["peak_rss_mb"]
    assert (rss["parent"]["median"], rss["change"]["median"]) == (80.0, 76.0)
    assert rss["change_vs_parent"] == pytest.approx(-0.05)
    assert (rss["pairs_won"], rss["verdict"]) == (10, "within bound")
    assert out["failed_frac"]["verdict"] == "no more failures"
    assert bench_pairs.summarize(runs, declared)["claim"] is None


def test_seed_ranges_are_inclusive():
    assert bench_pairs.parse_seeds(["2721-2723", "9"]) == [2721, 2722, 2723, 9]
