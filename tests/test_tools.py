"""The verdict of ``tools/bench_pairs.py``, on synthetic results.

``summarize`` and ``problem`` read result dictionaries of the shape
``perfbench/run.py`` prints, so they are checked here without starting a
benchmark run.  The script is loaded from its file; ``main`` is not run.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "register_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "dice_mean", "better": "higher", "bound": 0.25}


def result(name, value, correct=True):
    return {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
            "metrics": {name: {"value": value}}}


def runs(metric, pairs):
    """One run per ``(parent, change)`` pair; ``None`` is a run that
    exited non-zero."""
    def side(value):
        if value is None:
            return {"error": "exit 1: killed"}
        return result(metric["name"], value)

    return [{"seed": i, "parent": side(p), "change": side(c)}
            for i, (p, c) in enumerate(pairs)]


class TestSummarize:
    def test_ties_count_for_neither_side(self):
        s = bench_pairs.summarize(LOWER, runs(LOWER, [(1.0, 1.0), (2.0, 2.0),
                                                      (1.0, 0.5)]))
        assert (s["pairs"], s["wins"], s["worse"]) == (3, 1, False)
        s = bench_pairs.summarize(HIGHER, runs(HIGHER, [(0.9, 0.9)] * 4))
        assert (s["pairs"], s["wins"], s["worse"]) == (4, 0, False)

    def test_bound_applies_to_a_lower_is_better_metric(self):
        assert bench_pairs.summarize(LOWER, runs(LOWER, [(1.0, 1.3)] * 3))[
            "worse"]
        s = bench_pairs.summarize(LOWER, runs(LOWER, [(1.0, 1.2)] * 3))
        assert (s["worse"], s["wins"]) == (False, 0)

    def test_bound_applies_to_a_higher_is_better_metric(self):
        # A Dice that falls by more than a quarter is worse; one that
        # falls by less, or rises, is not, and a rise wins the pair.
        assert bench_pairs.summarize(HIGHER, runs(HIGHER, [(0.8, 0.56)] * 3))[
            "worse"]
        assert not bench_pairs.summarize(
            HIGHER, runs(HIGHER, [(0.8, 0.64)] * 3))["worse"]
        s = bench_pairs.summarize(HIGHER, runs(HIGHER, [(0.5, 0.9)] * 3))
        assert (s["worse"], s["wins"]) == (False, 3)

    def test_pairs_missing_one_side_are_skipped(self):
        s = bench_pairs.summarize(LOWER, runs(LOWER, [
            (None, 9.0), (1.0, None), (1.0, 1.1), (3.0, 2.0)]))
        assert s["pairs"] == 2
        assert (s["parent_median"], s["change_median"]) == (2.0, 1.55)
        assert s["wins"] == 1

    def test_no_finished_pair(self):
        s = bench_pairs.summarize(LOWER, runs(LOWER, [(None, 1.0),
                                                      (1.0, None)]))
        assert s == {"pairs": 0, "worse": False}


class TestProblem:
    def test_correct_run_is_usable(self):
        assert bench_pairs.problem(result("register_s", 1.0)) is None

    def test_run_that_is_not_correct_is_reported(self):
        why = bench_pairs.problem(result("register_s", 1.0, correct=False))
        assert why == "not correct: 1 of 4 jobs failed"
        assert bench_pairs.problem({"metrics": {}}).startswith("not correct")

    def test_run_that_exited_is_reported(self):
        assert bench_pairs.problem({"error": "exit 1: killed"}) \
            == "exit 1: killed"
