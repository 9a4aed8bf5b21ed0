"""The verdict of ``tools/bench_pairs.py``, on synthetic results, and
what ``tools/compare_outputs.py`` says about a file that moved.

``summarize`` and ``problem`` read result dictionaries of the shape
``perfbench/run.py`` prints, so they are checked here without starting a
benchmark run, and ``location_note`` reads paths alone; ``moved`` reads
two files written here.  The scripts are loaded from their files; only
``reference_cost``'s ``main`` is run, at grid 4.
"""

import importlib.util
from pathlib import Path

import numpy as np

from densereg.geometry import DisplacementField
from densereg.io import write_field

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load("bench_pairs")
compare_outputs = load("compare_outputs")
reference_cost = load("reference_cost")

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


class TestLocationNote:
    def test_sibling_gets_no_note(self, tmp_path):
        assert bench_pairs.location_note(tmp_path / "parent",
                                         tmp_path / "change") is None

    def test_other_directory_gets_a_one_line_note(self, tmp_path):
        note = bench_pairs.location_note(tmp_path / "elsewhere" / "parent",
                                         tmp_path / "change")
        assert note.startswith("note: ") and "not a sibling" in note
        assert "\n" not in note


class TestMoved:
    def sides(self, tmp_path, name, old, new):
        paths = []
        for side, text in (("old", old), ("new", new)):
            (tmp_path / side).mkdir(exist_ok=True)
            paths.append(tmp_path / side / name)
            paths[-1].write_text(text)
        return paths

    def test_field_payload(self, tmp_path):
        """A 4^3 field's voxel factor is 2 per axis."""
        for side, value in (("old", 0.0), ("new", 0.125)):
            (tmp_path / side).mkdir()
            vectors = np.zeros((4, 4, 4, 3))
            vectors[1, 2, 3, 0] = value
            write_field(DisplacementField(vectors),
                        str(tmp_path / side / "field.hdr"))
        assert compare_outputs.moved(tmp_path / "old" / "field.raw",
                                     tmp_path / "new" / "field.raw") == [
            "max |diff| 0.125 (0.25 voxels), 1 of 192 values differ"]

    def test_key_value_lines(self, tmp_path):
        old, new = self.sides(tmp_path, "report.txt",
                              "a=1\nb=2\ngone=3\nexit=0\n",
                              "a=1\nb=2.5\nexit=0\nadded=4\n")
        assert compare_outputs.moved(old, new) == [
            "b=2 -> 2.5", "gone=3 -> (none)", "added=(none) -> 4"]

    def test_other_files_say_nothing(self, tmp_path):
        old, new = self.sides(tmp_path, "field.hdr", "dims=1\n", "dims=2\n")
        assert compare_outputs.moved(old, new) == []


class TestReferenceCost:
    def test_prints_the_child_run(self, capsys):
        assert reference_cost.main(["--grid", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("densereg register --grid 4 --steps 15 --q 0.4 "
                            "on a 64^3 phantom: exit 0")
        keys = [line.partition("=")[0] for line in lines[1:]]
        assert keys[-2:] == ["wall_s", "peak_rss_mib"]
        assert {"correlation", "regularization", "total"} <= set(keys)

    def test_passes_organs_to_the_phantom(self, capsys):
        assert reference_cost.main(["--grid", "4", "--organs", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "densereg register --grid 4 --steps 15 --q 0.4 on a 64^3 "
            "phantom with --organs 2: exit 0")
