"""From regularized costs to displacement fields, warps, and losses.

The cost tensor is converted to per-point probability distributions over
the displacement space with a stabilized softmax; the expected displacement
under that distribution gives a smooth control-grid field, which is
trilinearly upsampled to image resolution and used to warp the moving
volume.  The probabilistic label loss measures label agreement under the
distribution; it samples each moving label, cropped to its box, by
``correlation.map_displaced`` at the control points that can reach it.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .correlation import CostTensor6D, _checked_values, map_displaced
from .geometry import (
    DisplacementField,
    DisplacementSpace,
    Volume3D,
    _freeze,
    _three_ints,
    axis_centers,
    normalized_to_index,
    present_labels,
    sample_points_linear,
    sample_points_nearest,
    sample_separable,
)
from .parallel import map_planes, map_slabs
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
    """Displacement probabilities per control point, with the layout,
    ``counts`` and checks of :class:`CostTensor6D`; each point's
    distribution sums to one, to within 1e-5 in a float64 sum.  Like the
    cost tensor, it takes a float32 or float64 array as given and makes
    it read-only; in a run without refinement that array is the cost
    tensor's, which :func:`softmax_probabilities` overwrote."""

    values: np.ndarray
    space: DisplacementSpace

    def __post_init__(self):
        # A NaN passes every comparison below, so it is caught first.
        vals, lo, hi = _checked_values(self, "probability tensor")
        if lo < 0.0 or hi > 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        sums = vals.sum(axis=(3, 4, 5), dtype=np.float64)
        if not np.allclose(sums, 1.0, atol=1e-5):
            raise ValueError("distributions must sum to 1 per control point")
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def counts(self) -> tuple:
        return self.values.shape[:3]


@dataclass(frozen=True)
class RegistrationConfig:
    """End-to-end settings for one registration run, kept as given.

    The capture range must stay below 1 so the quantized offsets remain
    inside the normalized volume.  ``grid_counts`` (one int or three,
    stored as three) needs at least 2 points per axis to upsample.  On a
    grid axis narrower than ``reg_params.spatial_kernel`` the mean-field
    step pools what fits.  The diffusion weight belongs to
    :class:`densereg.refine.RefineConfig`, the only stage that reads it.
    """

    space: DisplacementSpace = dc_field(default_factory=DisplacementSpace)
    grid_counts: tuple = (32, 32, 32)
    reg_params: RegularizerParams = dc_field(default_factory=RegularizerParams)

    def __post_init__(self):
        if not (0.0 < self.space.q < 1.0):
            raise ValueError(f"capture range must lie in (0, 1), got {self.space.q}")
        counts = _three_ints(self.grid_counts, "grid_counts")
        if min(counts) < 2:
            raise ValueError(f"control grid needs >= 2 points per axis to "
                             f"upsample, got {counts}")
        object.__setattr__(self, "grid_counts", counts)


def softmax_probabilities(cost: CostTensor6D, temperature: float,
                          workers: int = None) -> ProbTensor6D:
    """Per-point softmax of negated scaled costs over the displacement dims.

    ``p(k, d) = exp(-T c(k, d)) / sum_d' exp(-T c(k, d'))``, computed with
    per-point max subtraction so arbitrarily large costs stay finite.  Any
    uniform bias on a point's costs cancels.  The probabilities take the
    costs' dtype; each point's sum is accumulated in float64.  Evaluated
    per control plane on up to ``workers`` threads.

    The probabilities go to a new array when ``cost``'s array is
    read-only, as a validated tensor's is, and ``cost`` is not written.
    A tensor the pipeline has handed over has a writable array; the
    probabilities then replace the costs in it, each plane's elementwise
    steps and per-point reductions reading the plane before writing it,
    so the result is the same bit for bit and ``cost`` is spent.
    """
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    vals = cost.values
    e = vals if vals.flags.writeable else np.empty_like(vals)

    def plane(k):
        z = e[k]
        np.multiply(-temperature, vals[k], out=z)
        z -= z.max(axis=(2, 3, 4), keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=(2, 3, 4), keepdims=True, dtype=np.float64)

    map_planes(plane, vals, 0, workers)
    return ProbTensor6D(e, cost.space)


def expected_displacement(prob: ProbTensor6D,
                          workers: int = None) -> DisplacementField:
    """Probability-weighted mean displacement per control point.

    Marginalizes the distribution per displacement axis, in float64, and
    takes the dot product with that axis's offsets.  The marginals are
    summed per control plane on up to ``workers`` threads, each with the
    bytes of a whole-tensor sum.  A component is a convex combination of
    the offsets up to the rounding of the stored probabilities, which
    can carry it just past the capture range, so it is clipped to
    ``[-q, q]``.
    """
    vals = prob.values
    space = prob.space
    marginals = [np.empty(prob.counts + (s,)) for s in space.steps]

    def plane(k):
        for a, marginal in enumerate(marginals):
            marginal[k] = vals[k].sum(
                axis=tuple(ax for ax in (2, 3, 4) if ax != a + 2),
                dtype=np.float64)

    map_planes(plane, vals, 0, workers)
    comps = [np.clip(m @ space.axis_offsets(a), -space.q, space.q)
             for a, m in enumerate(marginals)]
    return DisplacementField(np.stack(comps, axis=-1))


def upsample_field(ctrl: DisplacementField, dims) -> DisplacementField:
    """Trilinear upsampling of a control-grid field to full resolution
    ``dims`` (one int or three).

    Both grids use center-aligned normalized coordinates, so a voxel
    center's position in control-grid index space is a direct coordinate
    conversion; beyond the outermost control points values clamp.
    """
    counts = ctrl.counts
    if any(c < 2 for c in counts):
        raise ValueError(f"control grid must have >= 2 points per axis, got {counts}")
    dims = _three_ints(dims, "dims")
    fracs = [normalized_to_index(axis_centers(dims[a]), counts[a]) for a in range(3)]
    return DisplacementField(sample_separable(ctrl.vectors, fracs))


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


def _label_crop(data: np.ndarray, cls):
    """The one-hot of label ``cls`` in ``data``, cut to the label's
    bounding box plus one voxel on each side (clamped to the volume), as
    float64, with the box's first and last index per axis and the crop's
    first index per axis; None when no voxel holds ``cls``.

    Sampled at fractional indices minus the crop's first index, the crop
    gives the whole one-hot's samples bit for bit: the shift is exact,
    and a sample outside the box, where the whole one-hot reads +0, reads
    +0 from the zero margin or from a border the volume shares."""
    mask = data == cls
    box = []
    for a in range(3):
        hit = np.flatnonzero(mask.any(axis=tuple(b for b in range(3) if b != a)))
        if not hit.size:
            return None
        box.append((int(hit[0]), int(hit[-1])))
    crop = tuple(slice(max(lo - 1, 0), min(hi + 2, n))
                 for (lo, hi), n in zip(box, data.shape))
    return mask[crop].astype(np.float64), box, [c.start for c in crop]


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
    ``num_classes`` bounds the label values.

    Each side samples a label's one-hot cut to its bounding box plus a
    one-voxel margin (:func:`_label_crop`), with the same bits as the
    whole volume's.  A trilinear sample is non-zero only when one of its
    corners lies in the box, so the moving side walks only the sub-grid
    of control points with, on every axis, a displaced position whose
    clamped fractional index lies in ``(lo - 1, hi + 1)``; every other
    point's expectation is the +0 of a sum of ``p * 0``.  The cost of a
    label is in proportion to its sub-grid, and a label absent from the
    moving volume walks nothing.  The moving samples are
    :func:`~densereg.correlation.map_displaced`'s float32 ones: each is
    multiplied by its probability into float32, and each point's
    expectation is summed in float64 over its S1·S2·S3 products in one
    C-contiguous run, as for the whole grid.  The fixed side and the
    squared differences are float64.  The expectation is evaluated per
    control plane of the sub-grid on up to ``workers`` threads.
    """
    if not (labels_moving.is_label and labels_fixed.is_label):
        raise ValueError("label loss needs label volumes")
    num_classes = int(num_classes)
    labels = present_labels(labels_moving, labels_fixed)
    if labels[-1] >= num_classes:
        raise ValueError(f"labels reach {labels[-1]} but num_classes is {num_classes}")
    counts, p, space = prob.counts, prob.values, prob.space
    dims = labels_moving.dims
    centers = [axis_centers(n) for n in counts]
    # Each point's displaced fractional indices per axis, clamped as the
    # sampler clamps them.
    reach = [np.clip(normalized_to_index(np.add.outer(
        centers[a], space.axis_offsets(a)), dims[a]), 0.0, dims[a] - 1.0)
        for a in range(3)]
    f_fracs = [normalized_to_index(centers[a], labels_fixed.dims[a])
               for a in range(3)]

    def expectation(cls):
        expect = np.zeros(counts)
        crop = _label_crop(labels_moving.data, cls)
        if crop is None:
            return expect
        onehot, box, start = crop
        hits = [np.flatnonzero(((t > lo - 1) & (t < hi + 1)).any(axis=1))
                for t, (lo, hi) in zip(reach, box)]
        sub = tuple(slice(h[0], h[-1] + 1) if h.size else slice(0) for h in hits)
        p_sub, e_sub = p[sub], expect[sub]
        if not e_sub.size:
            return expect

        def block(k1, blk, sample, spare):
            # Same C-contiguous layout, so the same summation order, as
            # the product of the whole plane.
            prod = spare.reshape((blk.stop - blk.start,) + p_sub.shape[2:])
            np.multiply(p_sub[k1, blk], sample(0).transpose(1, 3, 0, 2, 4),
                        out=prod)
            e_sub[k1, blk] = np.sum(prod, axis=(2, 3, 4), dtype=np.float64)

        map_displaced([onehot], lambda a, x: normalized_to_index(
            x, dims[a]) - start[a], [c[s] for c, s in zip(centers, sub)],
            space, block, p_sub, workers)
        return expect

    def target(cls):
        crop = _label_crop(labels_fixed.data, cls)
        if crop is None:
            return np.zeros(counts)
        onehot, _, start = crop
        return sample_separable(onehot, [t - s for t, s in zip(f_fracs, start)])

    loss = 0.0
    for cls in labels:
        diff = expectation(cls) - target(cls)
        loss += float(np.sum(diff * diff))
    return loss / (diff.size * len(labels))
