"""From regularized costs to displacement fields, warps, and losses.

The cost tensor is converted to per-point probability distributions over
the displacement space with a stabilized softmax; the expected displacement
under that distribution gives a smooth control-grid field, which is
trilinearly upsampled to image resolution and used to warp the moving
volume.  The probabilistic label loss measures label agreement under the
distribution.
"""

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .correlation import CostTensor6D
from .geometry import (
    ControlGrid,
    DisplacementField,
    DisplacementSpace,
    Volume3D,
    _freeze,
    axis_centers,
    lerp_axis,
    lerp_axis_into,
    lerp_plan,
    normalized_to_index,
    present_labels,
    sample_points_linear,
    sample_points_nearest,
    sample_separable,
)
from .parallel import block_view, map_planes, map_slabs, row_blocks
from .regularizer import RegularizerParams

__all__ = [
    "ProbTensor6D",
    "RegistrationConfig",
    "softmax_probabilities",
    "expected_displacement",
    "upsample_field",
    "warp",
    "nonlocal_label_loss",
]


@dataclass(frozen=True)
class ProbTensor6D:
    """Displacement probabilities per control point, same layout as
    :class:`CostTensor6D`; each point's distribution sums to one.  The
    checks run per control plane on up to ``workers`` threads, which is
    not part of the tensor's value.  Like the cost tensor, it takes the
    array it is given and makes it read-only."""

    values: np.ndarray
    grid: ControlGrid
    space: DisplacementSpace
    workers: int = dc_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        want = tuple(self.grid.counts) + tuple(self.space.steps)
        if vals.shape != want:
            raise ValueError(f"probability tensor shape {vals.shape} does not "
                             f"match grid {self.grid.counts} x space {self.space.steps}")

        def plane(k):
            v = vals[k]
            return v.min(), v.max(), v.sum(axis=(2, 3, 4))

        checks = map_planes(plane, vals, 0, self.workers)
        # A NaN passes every comparison below, so it is caught first.
        if not all(np.isfinite(lo) and np.isfinite(hi) for lo, hi, _ in checks):
            raise ArithmeticError("probabilities must be finite")
        if any(lo < 0.0 or hi > 1.0 for lo, hi, _ in checks):
            raise ValueError("probabilities must lie in [0, 1]")
        if not all(np.allclose(sums, 1.0, atol=1e-5) for _, _, sums in checks):
            raise ValueError("distributions must sum to 1 per control point")
        object.__setattr__(self, "values", _freeze(vals))


@dataclass(frozen=True)
class RegistrationConfig:
    """End-to-end settings for one registration run.

    ``feature`` selects the extractor ("ssc" or "intensity-gradient"),
    which runs with its own defaults.  The displacement
    capture range must stay below 1 so the quantized offsets remain
    inside the normalized volume.  ``grid_counts`` (one int or three)
    needs at least 2 points per axis, the fewest the field upsampling
    can interpolate between.  A spatial smoothing kernel wider than the
    control grid shrinks to the largest odd width that fits its smallest
    extent, so coarse grids such as 4 per axis keep the tuned preset
    otherwise unchanged.  The diffusion weight belongs
    to the refinement (:class:`densereg.refine.RefineConfig`), the only
    stage that reads it.
    """

    space: DisplacementSpace = dc_field(default_factory=DisplacementSpace)
    grid_counts: tuple = (32, 32, 32)
    feature: str = "ssc"
    reg_params: RegularizerParams = dc_field(default_factory=RegularizerParams)

    def __post_init__(self):
        if not (0.0 < self.space.q < 1.0):
            raise ValueError(f"capture range must lie in (0, 1), got {self.space.q}")
        if self.feature not in ("ssc", "intensity-gradient"):
            raise ValueError(f"unknown feature choice: {self.feature!r}")
        counts = ControlGrid(self.grid_counts).counts
        if min(counts) < 2:
            raise ValueError(f"control grid needs >= 2 points per axis to "
                             f"upsample, got {counts}")
        object.__setattr__(self, "grid_counts", counts)
        fit = min(counts) - 1 + min(counts) % 2
        if self.reg_params.spatial_kernel > fit:
            object.__setattr__(self, "reg_params", replace(
                self.reg_params, spatial_kernel=fit))

    def control_grid(self) -> ControlGrid:
        return ControlGrid(self.grid_counts)


def softmax_probabilities(cost: CostTensor6D, temperature: float,
                          workers: int = None) -> ProbTensor6D:
    """Per-point softmax of negated scaled costs over the displacement dims.

    ``p(k, d) = exp(-T c(k, d)) / sum_d' exp(-T c(k, d'))``, computed with
    per-point max subtraction so arbitrarily large costs stay finite.  Any
    uniform bias on a point's costs cancels.  Evaluated per control plane
    on up to ``workers`` threads.
    """
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    vals = cost.values
    e = np.empty_like(vals)

    def plane(k):
        z = e[k]
        np.multiply(-temperature, vals[k], out=z)
        z -= z.max(axis=(2, 3, 4), keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=(2, 3, 4), keepdims=True)

    map_planes(plane, vals, 0, workers)
    return ProbTensor6D(e, cost.grid, cost.space, workers)


def expected_displacement(prob: ProbTensor6D) -> DisplacementField:
    """Probability-weighted mean displacement per control point.

    Marginalizes the distribution per displacement axis and takes the dot
    product with that axis's offsets; components are bounded by the capture
    range since they are convex combinations of the offsets.
    """
    vals = prob.values
    space = prob.space
    comps = []
    for a in range(3):
        reduce_axes = tuple(ax for ax in (3, 4, 5) if ax != a + 3)
        marginal = vals.sum(axis=reduce_axes)
        comps.append(marginal @ space.axis_offsets(a))
    return DisplacementField(np.stack(comps, axis=-1))


def upsample_field(ctrl: DisplacementField, dims) -> DisplacementField:
    """Trilinear upsampling of a control-grid field to full resolution.

    Both grids use center-aligned normalized coordinates, so a voxel
    center's position in control-grid index space is a direct coordinate
    conversion; beyond the outermost control points values clamp.
    """
    counts = ctrl.counts
    if any(c < 2 for c in counts):
        raise ValueError(f"control grid must have >= 2 points per axis, got {counts}")
    dims = (int(dims),) * 3 if np.isscalar(dims) else tuple(int(d) for d in dims)
    fracs = [normalized_to_index(axis_centers(dims[a]), counts[a]) for a in range(3)]
    out = np.stack([sample_separable(ctrl.vectors[..., c], fracs) for c in range(3)],
                   axis=-1)
    return DisplacementField(out)


def warp(vol: Volume3D, field: DisplacementField,
         workers: int = None) -> Volume3D:
    """Resample ``vol`` through the field: ``out(x) = vol(x + phi(x))``.

    The field must be at volume resolution.  Intensity volumes interpolate
    trilinearly, label volumes nearest-neighbor.  A zero field reproduces
    the input exactly in both cases.  The output is filled one axis-0
    slab at a time, the slabs spread over up to ``workers`` threads; every
    voxel goes through the same arithmetic as in a whole-volume pass, so
    the output does not depend on the slab size or the thread count.
    """
    dims = vol.dims
    if field.counts != dims:
        raise ValueError(f"field resolution {field.counts} does not match "
                         f"volume dims {dims}")
    if vol.is_label:
        sample, dtype = sample_points_nearest, vol.data.dtype
    else:
        sample, dtype = sample_points_linear, np.float64
    bases = [np.arange(n, dtype=np.float64) for n in dims]
    scales = [n / 2.0 for n in dims]
    data = np.empty(dims, dtype=dtype)

    def slab(s):
        vec = field.vectors[s]
        # x + phi in fractional index units: index i plus phi * n/2 per axis.
        fracs = np.empty(vec.shape)
        fracs[..., 0] = bases[0][s, None, None] + vec[..., 0] * scales[0]
        fracs[..., 1] = bases[1][:, None] + vec[..., 1] * scales[1]
        fracs[..., 2] = bases[2] + vec[..., 2] * scales[2]
        data[s] = sample(vol.data, fracs)

    map_slabs(slab, dims, workers)
    return Volume3D(data, spacing=vol.spacing, is_label=vol.is_label)


def nonlocal_label_loss(prob: ProbTensor6D, labels_moving: Volume3D,
                        labels_fixed: Volume3D, num_classes: int,
                        workers: int = None) -> float:
    """Probability-weighted label agreement.

    The moving segmentation's one-hot channels are trilinearly sampled at
    every displaced control position and averaged under the distribution;
    the squared difference to the fixed segmentation's one-hot channels,
    trilinearly sampled at the undisplaced control points, is averaged
    over points and the labels present in either volume.  Sampling both
    sides the same way makes the loss vanish for a perfectly aligned pair
    under a zero-displacement point mass, control-grid placement
    notwithstanding.

    Only labels present in either volume are visited and counted: an
    absent class has all-zero one-hot channels on both sides and adds
    exactly 0, so sparse label IDs change neither the cost nor the value.
    ``num_classes`` bounds the label values.  The expectation is evaluated
    per control plane on up to ``workers`` threads.
    """
    if not (labels_moving.is_label and labels_fixed.is_label):
        raise ValueError("label loss needs label volumes")
    num_classes = int(num_classes)
    top = max(int(labels_moving.data.max()), int(labels_fixed.data.max()))
    if top >= num_classes:
        raise ValueError(f"labels reach {top} but num_classes is {num_classes}")
    grid, space = prob.grid, prob.space
    ctrl = [grid.axis_coords(a) for a in range(3)]
    _, k2, k3 = grid.counts
    s1, s2, s3 = space.steps
    p = prob.values

    # Displaced sample positions factorize per axis, in moving-volume
    # fractional index units.
    m_fracs = [normalized_to_index(np.add.outer(ctrl[a], space.axis_offsets(a)).ravel(),
                                   labels_moving.dims[a]) for a in range(3)]
    f_fracs = [normalized_to_index(np.asarray(ctrl[a]), labels_fixed.dims[a])
               for a in range(3)]

    expect = np.empty(grid.counts)
    blocks = row_blocks(k2, s1 * s2 * k3 * s3 * p.itemsize)
    rows = blocks[0].stop
    _, height, width = labels_moving.dims
    plans = [lerp_plan(height, m_fracs[1][b.start * s2:b.stop * s2], 3, 1)
             for b in blocks]
    plan2 = lerp_plan(width, m_fracs[2], 3, 2)
    labels = present_labels(labels_moving, labels_fixed)
    loss = 0.0
    for cls in labels:
        onehot = (labels_moving.data == cls).astype(np.float64)

        def plane(k1):
            m_rows = lerp_axis(onehot, m_fracs[0][k1 * s1:(k1 + 1) * s1], 0)
            partial = [np.empty(s1 * rows * s2 * width) for _ in range(2)]
            sampled = [np.empty(s1 * rows * s2 * k3 * s3) for _ in range(3)]
            for blk, plan1 in zip(blocks, plans):
                n = blk.stop - blk.start
                mid = [block_view(b, (s1, n * s2, width)) for b in partial]
                m_at_kd, work = [block_view(b, (s1, n * s2, k3 * s3))
                                 for b in sampled[:2]]
                lerp_axis_into(m_rows, plan1, 1, *mid)
                lerp_axis_into(mid[0], plan2, 2, m_at_kd, work)
                # Same C-contiguous layout, so the same summation order,
                # as the product of the whole plane.
                prod = block_view(sampled[2], (n, k3, s1, s2, s3))
                np.multiply(p[k1, blk], m_at_kd.reshape(s1, n, s2, k3, s3)
                            .transpose(1, 3, 0, 2, 4), out=prod)
                expect[k1, blk] = np.sum(prod, axis=(2, 3, 4))

        map_planes(plane, p, 0, workers)
        target = sample_separable((labels_fixed.data == cls).astype(np.float64),
                                  f_fracs)
        diff = expect - target
        loss += float(np.sum(diff * diff))
    return loss / (grid.num_points * len(labels))
