"""Every name the benchmark's tracer wraps, and every name a densereg
module exports, exists.

``perfbench/tracer.py`` wraps densereg functions by module attribute, so
a deleted or renamed target would otherwise show up only when the
benchmark runs.  The tracer is loaded from its file and only read:
nothing is wrapped here.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import densereg

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [f"{module}.{path}" for module, path, _, _ in tracer.TARGETS
               if not callable(_resolve(module, path))]
    assert missing == []


def test_every_exported_name_exists():
    modules = ["densereg"] + [f"densereg.{m.name}" for m in
                              pkgutil.iter_modules(densereg.__path__)]
    missing = [f"{name}.{attr}" for name in modules
               for attr in importlib.import_module(name).__all__
               if _resolve(name, attr) is None]
    assert missing == []
