"""In-memory span tracer for one ``densereg register`` job.

The tracer wraps, by module attribute, the public functions that
``densereg.cli``, ``densereg.pipeline``, ``densereg.regularizer`` and
``densereg.refine`` call, so no file of the program changes.  Each call
records a span: name, start, end, parent span, pair id, ``tracemalloc``
peak bytes above the span's starting allocation, and a few exact counts
taken from the call's arguments or result.  Spans stay in memory and are
written as one JSON file when the job ends.

Spans assume the wrapped calls run on one thread, as they do in the
program today; a call made from another thread starts a root span.
"""

import functools
import importlib
import json
import threading
import time
import tracemalloc

from scipy import ndimage


def _tensor_bytes(args, kwargs, result):
    return {"tensor_bytes": int(result.values.nbytes)}


def _feature_bytes(args, kwargs, result):
    return {"out_bytes": int(result.data.nbytes)}


def _flops(args, kwargs, result):
    return {"flops": int(result)}


def _label_classes(args, kwargs, result):
    classes = kwargs["num_classes"] if "num_classes" in kwargs else args[3]
    return {"classes": int(classes)}


def _refine_energies(args, kwargs, result):
    energies = [float(e) for e in result[1]]
    # Rejected proposals repeat the previous energy (refine_trace contract).
    accepted = sum(1 for a, b in zip(energies, energies[1:]) if b < a)
    return {"energy_first": energies[0], "energy_last": energies[-1],
            "steps_accepted": accepted,
            "steps_rejected": len(energies) - 1 - accepted}


def _filter_input_bytes(args, kwargs, result):
    return {"bytes": int(args[0].nbytes)}


# (module, attribute path, span name, attribute recorder)
TARGETS = (
    ("densereg.cli", "main", "cli", None),
    ("densereg.cli", "register_pair", "pipeline", None),
    ("densereg.io", "read_volume", "io.read", None),
    ("densereg.io", "write_volume", "io.write", None),
    ("densereg.io", "write_field", "io.write", None),
    ("densereg.pipeline", "extract_ssc", "features", _feature_bytes),
    ("densereg.pipeline", "extract_intensity_gradient", "features",
     _feature_bytes),
    ("densereg.pipeline", "dissimilarity_tensor", "correlation",
     _tensor_bytes),
    ("densereg.pipeline", "flop_estimate", "correlation.flop_estimate",
     _flops),
    ("densereg.pipeline", "regularize", "regularizer", None),
    ("densereg.regularizer", "min_convolution", "regularizer.min_convolution",
     None),
    ("densereg.regularizer", "mean_field_step", "regularizer.mean_field",
     None),
    ("densereg.pipeline", "softmax_probabilities", "transform.softmax", None),
    ("densereg.pipeline", "expected_displacement", "transform.expectation",
     None),
    ("densereg.pipeline", "nonlocal_label_loss", "transform.label_loss",
     _label_classes),
    ("densereg.pipeline", "upsample_field", "transform.upsample", None),
    ("densereg.pipeline", "warp", "transform.warp", None),
    ("densereg.pipeline", "refine_trace", "refine", _refine_energies),
    ("densereg.refine", "field_energy", "refine.energy", None),
    ("densereg.refine", "field_energy_grad", "refine.energy", None),
    ("densereg.pipeline", "jacobian_stats", "metrics.jacobian", None),
    ("densereg.pipeline", "dice", "metrics.dice", None),
    ("densereg.correlation", "CostTensor6D.__post_init__", "tensor.validate",
     None),
    ("densereg.transform", "ProbTensor6D.__post_init__", "tensor.validate",
     None),
)


class _CountingNdimage:
    """Stand-in for ``scipy.ndimage`` inside the regularizer module: every
    filter call becomes a ``regularizer.filter`` span; other attributes
    pass through."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        fn = getattr(ndimage, name)
        if name.endswith("_filter"):
            return self._tracer.wrap("regularizer.filter", fn,
                                     _filter_input_bytes)
        return fn


class Tracer:
    """Collects spans of one job; see the module docstring."""

    def __init__(self, pair_id: int):
        self.pair_id = pair_id
        self.spans = []
        self.missing = []
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _enter(self, name: str) -> dict:
        stack = self._stack()
        current, peak = tracemalloc.get_traced_memory()
        if stack:
            stack[-1]["_max"] = max(stack[-1]["_max"], peak)
        tracemalloc.reset_peak()
        span = {"id": len(self.spans), "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "pair": self.pair_id, "_base": current, "_max": current}
        self.spans.append(span)
        stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        _, peak = tracemalloc.get_traced_memory()
        span["_max"] = max(span["_max"], peak)
        span["peak_bytes"] = span["_max"] - span["_base"]
        stack.pop()
        if stack:
            stack[-1]["_max"] = max(stack[-1]["_max"], span["_max"])
        tracemalloc.reset_peak()

    def wrap(self, name: str, fn, recorder=None):
        """``fn`` with a span around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if recorder is not None:
                span["attrs"] = recorder(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in :data:`TARGETS` by its traced wrapper.

        A target the program no longer has is listed in ``missing`` and
        skipped; the metrics it fed then read 0, and the benchmark prints
        the target and reports the run as not correct.
        """
        for module_name, path, name, recorder in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(name, getattr(owner, attr),
                                           recorder))
        regularizer = importlib.import_module("densereg.regularizer")
        regularizer.ndimage = _CountingNdimage(self)

    def dump(self, path: str) -> None:
        spans = [{k: v for k, v in s.items() if not k.startswith("_")}
                 for s in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"pair": self.pair_id, "missing": self.missing,
                       "spans": spans}, fh)
