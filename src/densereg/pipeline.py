"""One-call driver for the full registration pipeline.

Stages run in a fixed order: feature extraction, dissimilarity correlation,
cost regularization, probabilistic transform extraction, optional
instance-wise refinement, the label loss when labels are given, field
upsampling, warping, evaluation.  Per-stage
wall times land in the report's ``runtimes``, which its text excludes,
so identical runs produce identical report bytes.

The 6D tensor is the largest object of a run, stored in float32 from
the correlation on, and without refinement only one is ever alive.  The
correlation's array is handed on (:func:`_hand_over`):
:func:`regularize` smooths it in place, and
:func:`softmax_probabilities` then writes the probabilities into the
same array, after which the pipeline holds no cost tensor.  Refinement
reads the regularized cost after the softmax, so with it the
probabilities get an array of their own and two tensors are alive.

Every non-finite value raises :class:`ArithmeticError`, so drivers can
tell numerical breakdown from configuration mistakes.  The volumes,
feature volumes, tensors and fields reject non-finite data themselves
when they are built, so the inputs are checked once when they are
wrapped and every later stage when it hands over its result; only the
Jacobian statistics, which are plain numbers, are checked here.
"""

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .correlation import dissimilarity_tensor, flop_estimate
# Unused here, extract_intensity_gradient stays as the tracer's target.
from .features import extract_intensity_gradient, extract_ssc  # noqa: F401
from .geometry import DisplacementField, Volume3D
from .metrics import RegistrationReport, dice, jacobian_stats
from .parallel import resolve_workers
from .refine import RefineConfig, refine_trace
from .regularizer import regularize
from .transform import (RegistrationConfig, expected_displacement,
                        nonlocal_label_loss, softmax_probabilities,
                        upsample_field, warp)

__all__ = ["RegistrationResult", "register_pair"]


@dataclass(frozen=True)
class RegistrationResult:
    """In-memory artifacts of one registration run."""

    control_field: DisplacementField
    field: DisplacementField
    warped: Volume3D
    warped_labels: Optional[Volume3D]
    report: RegistrationReport
    refine_energies: Optional[np.ndarray]


def _hand_over(tensor):
    """Make the array of a tensor the pipeline built writable again, and
    return the tensor.  A validated tensor's array is read-only, and
    :func:`regularize` and :func:`softmax_probabilities` write their
    result into their input's array only when it is writable; the
    tensor they return validates and freezes that array again.  Call it
    only on a tensor that nothing reads once the next stage has run."""
    tensor.values.flags.writeable = True
    return tensor


def register_pair(fixed: Volume3D, moving: Volume3D,
                  cfg: RegistrationConfig = None,
                  fixed_labels: Volume3D = None,
                  moving_labels: Volume3D = None,
                  refinement: RefineConfig = None,
                  threads: int = None) -> RegistrationResult:
    """Register ``moving`` onto ``fixed`` and evaluate the result.

    ``refinement`` enables instance-wise gradient descent on the regularized
    cost when given.  The cost must then outlive the softmax, so a
    refined run holds two 6D tensors at its peak, one without it holds
    one (see the module docstring).  When both label volumes are present
    the report gains per-label Dice plus the label-agreement loss: the
    one-hot label mismatch averaged under the displacement distribution
    (:func:`densereg.transform.nonlocal_label_loss`).

    ``threads`` caps the worker threads of the SSC features, the 6D
    tensor stages, the warps and the Jacobian statistics (default: the
    usable cores).  Every stage splits its work by feature channel,
    tensor plane or volume slab, so the result is identical for any
    thread count.

    Spacing is validated and written to the output headers, the warped
    volumes taking the fixed volume's, but registration works in
    normalized coordinates: an anisotropic pair is registered as if its
    voxels were cubes.
    """
    cfg = RegistrationConfig() if cfg is None else cfg
    if fixed.dims != moving.dims:
        raise ValueError(f"fixed dims {fixed.dims} and moving dims "
                         f"{moving.dims} differ")
    if (fixed_labels is None) != (moving_labels is None):
        raise ValueError("label volumes must be given for both sides or "
                         "neither")
    for labels in (fixed_labels, moving_labels):
        if labels is not None and labels.dims != fixed.dims:
            raise ValueError(f"label dims {labels.dims} differ from volume "
                             f"dims {fixed.dims}")
    workers = resolve_workers(threads)

    timings = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    feat_f = extract_ssc(fixed, workers=workers)
    feat_m = extract_ssc(moving, workers=workers)
    timings["features"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cost = dissimilarity_tensor(feat_f, feat_m, cfg.grid_counts, cfg.space,
                                workers=workers)
    timings["correlation"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cost = regularize(_hand_over(cost), cfg.reg_params, workers=workers)
    timings["regularization"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # Refinement reads the cost after the softmax; without it, the
    # probabilities take over the cost's array.
    if refinement is None:
        _hand_over(cost)
    prob = softmax_probabilities(cost, cfg.reg_params.temperature,
                                 workers=workers)
    ctrl = expected_displacement(prob, workers=workers)
    timings["transform"] = time.perf_counter() - t0

    energies = None
    if refinement is not None:
        t0 = time.perf_counter()
        ctrl, energies = refine_trace(cost, ctrl, refinement)
        timings["refinement"] = time.perf_counter() - t0
    del cost

    label_loss = None
    if fixed_labels is not None:
        num_classes = 1 + int(max(fixed_labels.data.max(),
                                  moving_labels.data.max()))
        t0 = time.perf_counter()
        label_loss = nonlocal_label_loss(prob, moving_labels, fixed_labels,
                                         num_classes, workers=workers)
        timings["label_loss"] = time.perf_counter() - t0
    del prob

    t0 = time.perf_counter()
    field = upsample_field(ctrl, fixed.dims)
    # The warped volumes lie on the fixed grid, so they take its spacing.
    warped = replace(warp(moving, field, workers=workers),
                     spacing=fixed.spacing)
    warped_labels = replace(warp(moving_labels, field, workers=workers),
                            spacing=fixed.spacing) \
        if moving_labels is not None else None
    timings["resample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    std_jac, folding = jacobian_stats(field, workers=workers)
    scores = {}
    if warped_labels is not None:
        scores = dice(fixed_labels, warped_labels)
    timings["evaluation"] = time.perf_counter() - t0
    if not np.isfinite(std_jac):
        raise ArithmeticError("non-finite Jacobian statistics")

    notes = {
        "grid": ",".join(str(c) for c in cfg.grid_counts),
        "capture_range": format(cfg.space.q, ".9g"),
        "steps": ",".join(str(s) for s in cfg.space.steps),
        "mean_field_iterations": str(cfg.reg_params.iterations),
        "refine_steps": str(refinement.steps if refinement is not None else 0),
        "flop_estimate": str(flop_estimate(cfg.grid_counts, cfg.space,
                                           feat_f.channels)),
    }
    if refinement is not None:
        notes["lambda"] = format(refinement.diffusion_weight, ".9g")
    if label_loss is not None:
        notes["label_loss"] = format(label_loss, ".9g")

    timings["total"] = time.perf_counter() - t_total
    report = RegistrationReport(per_label_dice=scores, std_jac=std_jac,
                                folding_fraction=folding, runtimes=timings,
                                notes=notes)
    return RegistrationResult(control_field=ctrl, field=field, warped=warped,
                              warped_labels=warped_labels, report=report,
                              refine_energies=energies)
