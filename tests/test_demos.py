"""Smoke test for the scripts in ``demos/``: each one imports against the
current API and has a ``main``; the cheapest one also runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

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


def test_calibrate_envelope_runs(monkeypatch, capsys):
    demo = load(next(p for p in DEMOS if p.stem == "calibrate_envelope"))
    monkeypatch.setattr(sys, "argv", ["calibrate_envelope.py", "--cases", "2"])
    demo.main()
    out = capsys.readouterr().out
    assert "selected curvature" in out
    assert "argmin agreement" in out
