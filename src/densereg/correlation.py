"""Dense dissimilarity evaluation over the displacement space.

For every control point k and quantized displacement d, the cost is the
mean squared feature difference between the fixed features at k and the
moving features at k + d.  Costs are stored positive (minimization
semantics); the probabilistic transform negates them inside its softmax.

The positions x_k + d factorize per axis, so :func:`map_displaced`
reads an array there in three 1D interpolation passes instead of one
gather per (k, d) pair, a control plane at a time and each plane in
cache-sized row blocks.  It takes the control positions per axis, so a
caller can walk a sub-grid of points: the label loss reads each label's
one-hot, cropped to the label's box, at the points whose displaced
positions reach that box (:func:`densereg.transform.nonlocal_label_loss`).
The passes along axes 0 and 2 run in float64 and are rounded to float32
once; the full-size pass along axis 1, and the differences,
squares and channel sums of the cost, run in float32.  The tensor is
written completely before it is wrapped in a :class:`CostTensor6D`,
which takes that array without a copy and makes it read-only.  It is
stored in float32: the tensor stages that follow move half the bytes,
and the rounding moved the control fields of 64³ phantoms by less than
1e-5 voxels.
"""

from dataclasses import dataclass

import numpy as np

from .features import FeatureVolume
from .geometry import (DisplacementSpace, _freeze, _three_ints, axis_centers,
                       lerp_axis, lerp_axis_into, lerp_plan)
from .parallel import block_view, map_planes, row_blocks

__all__ = ["CostTensor6D", "dissimilarity_tensor", "flop_estimate", "map_displaced"]


def _checked_values(tensor, what: str):
    """``tensor.values`` as a C-contiguous float32 or float64 array (any
    other dtype becomes float64), checked for shape and finiteness, with
    its minimum and maximum."""
    vals = np.asarray(tensor.values)
    keep = vals.dtype in (np.float32, np.float64)
    vals = np.ascontiguousarray(vals, dtype=vals.dtype if keep else np.float64)
    steps = tensor.space.steps
    if vals.shape[3:] != steps or 0 in vals.shape:
        raise ValueError(f"{what} shape {vals.shape} is not a non-empty "
                         f"control grid x space {steps}")
    lo, hi = vals.min(), vals.max()
    # min and max propagate NaN, so both finite means every value is.
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ArithmeticError(f"{what} must be finite")
    return vals, lo, hi


@dataclass(frozen=True)
class CostTensor6D:
    """Cost per (control point, displacement): shape ``(K1,K2,K3,S1,S2,S3)``.

    Values are non-negative and finite.  A float32 or float64 array is
    stored as given, and every later stage works in its dtype; any other
    dtype becomes float64.  All operations that transform a
    cost tensor (scaling, pooling, lower envelopes) preserve both
    properties, so the invariant holds along the whole pipeline.  The
    tensor takes the array it is given and makes it read-only, so no
    writer is left once it is validated: a stage that works in a buffer,
    as :func:`densereg.regularizer.regularize` does, finishes all its
    writes and then builds, and so validates, one tensor from the result.
    The one exception is the pipeline's hand-off
    (:func:`densereg.pipeline._hand_over`): it makes the array of a
    tensor it built and reads no more writable again, so that
    :func:`~densereg.regularizer.regularize` and then
    :func:`~densereg.transform.softmax_probabilities` write their results
    into it instead of a second tensor, and the tensor each builds from
    it freezes the array again.
    """

    values: np.ndarray
    space: DisplacementSpace

    def __post_init__(self):
        vals, lo, _ = _checked_values(self, "cost tensor")
        if lo < 0.0:
            raise ValueError("cost tensor must be non-negative")
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def counts(self) -> tuple:
        return self.values.shape[:3]


def map_displaced(arrays, to_index, centers, space: DisplacementSpace, block,
                  like, workers=None) -> None:
    """Sample the 3D ``arrays`` trilinearly, border-clamped, at every
    displaced control position x_k + d.

    ``centers`` holds the control positions along each axis in
    normalized coordinates: all of a grid's (:func:`axis_centers`), or a
    run of them.  ``to_index(axis, coords)`` maps normalized coordinates
    to the arrays' fractional indices.  The control planes and rows
    below index ``centers``, not a whole grid: for every control plane
    ``k1`` and block ``blk`` of its ``k2`` rows
    (:func:`densereg.parallel.row_blocks`) this calls
    ``block(k1, blk, sample, spare)``: ``sample(c)`` returns ``arrays[c]``
    at the block's positions, shaped ``(s1, rows, s2, k3, s3)``, in a
    buffer the next call overwrites; ``spare`` is a C-contiguous scratch
    buffer of that shape.  Both are float32.

    Each plane interpolates every array along axis 0 and then axis 2 in
    float64, by :func:`~densereg.geometry.lerp_axis`, and rounds the
    result to float32 once; the one full-size pass, along axis 1, then
    runs in float32 with float32 :func:`~densereg.geometry.lerp_plan`
    weights and copies contiguous rows of ``k3 * s3`` values.  Every
    element goes through the same arithmetic whatever the block size.
    ``like`` is an array whose first three extents are those of
    ``centers``, and whose planes size the threading: the planes run on
    up to ``workers`` threads
    (:func:`~densereg.parallel.map_planes`), so ``block`` runs for
    several planes at once.
    """
    fracs = [to_index(a, np.add.outer(centers[a], space.axis_offsets(a)).ravel())
             for a in range(3)]
    k2, k3 = len(centers[1]), len(centers[2])
    s1, s2, s3 = space.steps
    _, height, width = arrays[0].shape
    cols = k3 * s3
    blocks = row_blocks(k2, s1 * s2 * cols * 4)
    rows = blocks[0].stop
    # The sample positions of a block's rows, and of every block's
    # columns, are the same in every plane and array.
    plans = [lerp_plan(height, fracs[1][b.start * s2:b.stop * s2], 3, 1)
             for b in blocks]
    plans = [(i0, i1, w0.astype(np.float32), w1.astype(np.float32))
             for i0, i1, w0, w1 in plans]
    plan2 = lerp_plan(width, fracs[2], 3, 2)
    # The axis-2 pass takes a cache-sized slab of axis-0 slices at a time.
    slabs = row_blocks(s1, height * cols * 8)

    def plane(k1):
        # The passes along axes 0 and 2 are shared by every block.
        t0 = fracs[0][k1 * s1:(k1 + 1) * s1]
        wide = [np.empty(slabs[0].stop * height * cols) for _ in range(2)]
        across = [np.empty((s1, height, cols), np.float32) for _ in arrays]
        for a, dst in zip(arrays, across):
            mid = lerp_axis(a, t0, 0)
            for slab in slabs:
                shape = (slab.stop - slab.start, height, cols)
                dst[slab] = lerp_axis_into(mid[slab], plan2, 2,
                                           *[block_view(b, shape) for b in wide])
        # The float64 scratch goes before the block buffers come.
        del wide, mid
        sampled = [np.empty(s1 * rows * s2 * cols, np.float32)
                   for _ in range(3)]
        for blk, plan1 in zip(blocks, plans):
            n = blk.stop - blk.start
            out, work, spare = [block_view(b, (s1, n * s2, cols))
                                for b in sampled]

            def sample(c):
                lerp_axis_into(across[c], plan1, 1, out, work)
                return out.reshape(s1, n, s2, k3, s3)

            block(k1, blk, sample, spare.reshape(s1, n, s2, k3, s3))

    map_planes(plane, like, 0, workers)


def dissimilarity_tensor(fixed: FeatureVolume, moving: FeatureVolume,
                         counts: tuple, space: DisplacementSpace,
                         workers: int = None) -> CostTensor6D:
    """Mean squared feature distance for every (control point, displacement).

    ``cost[k, d] = (1/C) * sum_c (fixed_c(x_k) - moving_c(x_k + d))^2``
    on a grid of ``counts`` control points per axis, with border-clamped
    trilinear sampling of both feature volumes.  Both sides are sampled
    by :func:`map_displaced`, the fixed one over the zero offset alone,
    so a position reads the same float32 value from either side; the
    differences are squared and accumulated in float32.
    ``workers`` caps the threads that evaluate control planes (default:
    the usable cores); the result does not depend on it.
    """
    if fixed.channels != moving.channels:
        raise ValueError(f"channel mismatch: fixed {fixed.channels}, moving {moving.channels}")
    counts = _three_ints(counts, "counts")
    out = np.empty(counts + space.steps, dtype=np.float32)
    f_at_k = np.empty((fixed.channels,) + counts, dtype=np.float32)

    def gather(k1, blk, sample, spare):
        for c, f in enumerate(f_at_k):
            f[k1, blk] = sample(c)[0, :, 0, :, 0]

    centers = [axis_centers(n) for n in counts]
    map_displaced(fixed.data, fixed.axis_fracs, centers,
                  DisplacementSpace(space.q, 1), gather, f_at_k[0], workers)
    f_at_k = f_at_k[:, :, :, None, :, None]

    def block(k1, blk, sample, spare):
        # The channels accumulate in the sampler's layout; channel 0's
        # difference goes straight into the accumulator.
        for c, f in enumerate(f_at_k):
            m = sample(c)
            dst = m if c else spare
            np.subtract(f[k1, blk], m, out=dst)
            np.multiply(dst, dst, out=dst)
            if c:
                spare += dst
        spare /= len(f_at_k)
        out[k1, blk] = spare.transpose(1, 3, 0, 2, 4)

    map_displaced(moving.data, moving.axis_fracs, centers, space, block, out,
                  workers)
    return CostTensor6D(out, space)


def flop_estimate(counts: tuple, space: DisplacementSpace, channels: int) -> int:
    """Arithmetic cost of the dense evaluation: subtract, square and
    accumulate once per (control point, displacement, channel)."""
    counts = _three_ints(counts, "counts")
    return 3 * int(np.prod(counts)) * space.num_offsets * int(channels)
