"""One-call driver for the full registration pipeline.

Stages run in a fixed order: feature extraction, dissimilarity correlation,
cost regularization, probabilistic transform extraction, optional
instance-wise refinement, field upsampling, warping, evaluation.  Per-stage
wall times land in the report's ``runtimes``, which both serializations
exclude, so identical runs produce identical report bytes.

Non-finite input volumes, a non-finite warped volume and non-finite
Jacobian statistics raise :class:`ArithmeticError`, so drivers can tell
numerical breakdown from configuration mistakes.  The feature volumes,
cost tensors and displacement fields in between reject non-finite values
themselves with :class:`ValueError`.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .correlation import dissimilarity_tensor, flop_estimate
from .features import extract_intensity_gradient, extract_ssc
from .geometry import DisplacementField, Volume3D, present_labels
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


def _check_finite(stage: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ArithmeticError(f"non-finite values in {stage}")


def _extract(vol: Volume3D, cfg: RegistrationConfig, workers: int):
    if cfg.feature == "ssc":
        return extract_ssc(vol, workers=workers)
    return extract_intensity_gradient(vol)


def _plain_label_mse(warped_labels: Volume3D,
                     fixed_labels: Volume3D) -> float:
    """Hard one-hot MSE between two label volumes over all voxels,
    averaged over the labels present in either volume (an absent class
    adds exactly 0, so label numbering does not change the result)."""
    a = warped_labels.data
    b = fixed_labels.data
    labels = present_labels(warped_labels, fixed_labels)
    total = 0.0
    for cls in labels:
        diff = (a == cls).astype(np.float64) - (b == cls)
        total += float(np.sum(diff * diff))
    return total / (a.size * len(labels))


def register_pair(fixed: Volume3D, moving: Volume3D,
                  cfg: RegistrationConfig = None,
                  fixed_labels: Volume3D = None,
                  moving_labels: Volume3D = None,
                  refinement: RefineConfig = None,
                  use_nonlocal_loss: bool = True,
                  threads: int = None) -> RegistrationResult:
    """Register ``moving`` onto ``fixed`` and evaluate the result.

    ``refinement`` enables instance-wise gradient descent on the regularized
    cost when given.  When both label volumes are present the report gains
    per-label Dice plus a label-agreement loss: the probability-weighted
    one-hot loss by default, or (``use_nonlocal_loss=False``) the plain
    one-hot MSE of the hard-warped labels.

    ``threads`` caps the worker threads of the SSC features, the 6D
    tensor stages, the warps and the Jacobian statistics (default: the
    usable cores).  Every stage splits its work by feature channel,
    tensor plane or volume slab, so the result is identical for any
    thread count.
    """
    cfg = RegistrationConfig() if cfg is None else cfg
    if fixed.dims != moving.dims:
        raise ValueError(f"fixed dims {fixed.dims} and moving dims "
                         f"{moving.dims} differ")
    if (fixed_labels is None) != (moving_labels is None):
        raise ValueError("label volumes must be given for both sides or "
                         "neither")
    workers = resolve_workers(threads)
    _check_finite("fixed volume", fixed.data)
    _check_finite("moving volume", moving.data)

    timings = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    feat_f = _extract(fixed, cfg, workers)
    feat_m = _extract(moving, cfg, workers)
    timings["features"] = time.perf_counter() - t0

    grid = cfg.control_grid()
    t0 = time.perf_counter()
    cost = dissimilarity_tensor(feat_f, feat_m, grid, cfg.space,
                                workers=workers)
    timings["correlation"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cost = regularize(cost, cfg.reg_params, workers=workers)
    timings["regularization"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    prob = softmax_probabilities(cost, cfg.reg_params.temperature,
                                 workers=workers)
    ctrl = expected_displacement(prob)
    timings["transform"] = time.perf_counter() - t0

    energies = None
    if refinement is not None:
        t0 = time.perf_counter()
        ctrl, energies = refine_trace(cost, ctrl, refinement)
        timings["refinement"] = time.perf_counter() - t0

    label_loss = None
    loss_kind = None
    num_classes = 0
    if fixed_labels is not None and moving_labels is not None:
        num_classes = 1 + int(max(fixed_labels.data.max(initial=0),
                                  moving_labels.data.max(initial=0)))
        if use_nonlocal_loss:
            t0 = time.perf_counter()
            label_loss = nonlocal_label_loss(prob, moving_labels,
                                             fixed_labels, num_classes,
                                             workers=workers)
            loss_kind = "nonlocal"
            timings["label_loss"] = time.perf_counter() - t0
    del prob

    t0 = time.perf_counter()
    field = upsample_field(ctrl, fixed.dims)
    warped = warp(moving, field, workers=workers)
    warped_labels = warp(moving_labels, field, workers=workers) \
        if moving_labels is not None else None
    timings["resample"] = time.perf_counter() - t0
    _check_finite("warped volume", warped.data)

    t0 = time.perf_counter()
    std_jac, folding = jacobian_stats(field, workers=workers)
    scores = {}
    if fixed_labels is not None and warped_labels is not None:
        scores = dice(fixed_labels, warped_labels)
        if not use_nonlocal_loss:
            label_loss = _plain_label_mse(warped_labels, fixed_labels)
            loss_kind = "plain-mse"
    timings["evaluation"] = time.perf_counter() - t0
    if not np.isfinite(std_jac):
        raise ArithmeticError("non-finite Jacobian statistics")

    notes = {
        "feature": cfg.feature,
        "grid": ",".join(str(c) for c in grid.counts),
        "capture_range": format(cfg.space.q, ".9g"),
        "steps": ",".join(str(s) for s in cfg.space.steps),
        "mean_field_iterations": str(cfg.reg_params.iterations),
        "refine_steps": str(refinement.steps if refinement is not None else 0),
        "flop_estimate": str(flop_estimate(grid, cfg.space, feat_f.channels)),
    }
    if refinement is not None:
        notes["lambda"] = format(refinement.diffusion_weight, ".9g")
    if label_loss is not None:
        notes["label_loss"] = format(label_loss, ".9g")
        notes["label_loss_kind"] = loss_kind

    timings["total"] = time.perf_counter() - t_total
    report = RegistrationReport(per_label_dice=scores, std_jac=std_jac,
                                folding_fraction=folding, runtimes=timings,
                                notes=notes)
    return RegistrationResult(control_field=ctrl, field=field, warped=warped,
                              warped_labels=warped_labels, report=report,
                              refine_energies=energies)
