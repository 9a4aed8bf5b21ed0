"""Smoke test for the scripts in ``demos/``: each one imports against the
current API and has a ``main``; the cheapest one also runs, and the
sweep's registration step runs once on a tiny pair."""

import importlib.util
import sys
from pathlib import Path

import pytest

from densereg.geometry import DisplacementSpace
from densereg.pipeline import register_pair
from densereg.transform import RegistrationConfig

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_imports_and_has_main(path):
    assert callable(load(path).main)


def test_tune_alphas_run_scores_like_the_pipeline():
    # run() registers without labels and scores the warped labels itself;
    # its numbers are those of a registration given the labels.
    demo = load(next(p for p in DEMOS if p.stem == "tune_alphas"))
    pair = demo.make_pairs([0], 16, 0.1)[0]
    params = demo.scaled_params(2500.0, 4.0, 1, 3)
    cfg = RegistrationConfig(grid_counts=(4,) * 3,
                             space=DisplacementSpace(0.4, 15),
                             reg_params=params)
    want = register_pair(pair.fixed, pair.moving, cfg,
                         fixed_labels=pair.fixed_labels,
                         moving_labels=pair.moving_labels).report
    assert demo.run(pair, 4, params) == (want.mean_dice,
                                         want.folding_fraction)


def test_calibrate_envelope_runs(monkeypatch, capsys):
    demo = load(next(p for p in DEMOS if p.stem == "calibrate_envelope"))
    monkeypatch.setattr(sys, "argv", ["calibrate_envelope.py", "--cases", "2"])
    demo.main()
    out = capsys.readouterr().out
    assert "selected curvature" in out
    assert "argmin agreement" in out
