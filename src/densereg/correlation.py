"""Dense dissimilarity evaluation over the displacement space.

For every control point k and quantized displacement d, the cost is the
mean squared feature difference between the fixed features at k and the
moving features at k + d.  Costs are stored positive (minimization
semantics); the probabilistic transform negates them inside its softmax.

The moving-feature sample positions factorize per axis (control coordinate
plus offset), so costs are built from three 1D interpolation passes per
channel instead of one gather per (k, d) pair.  The tensor is evaluated
one control plane ``k1`` at a time, and each plane in blocks of ``k2``
rows sized by :func:`densereg.parallel.row_blocks`: a block samples only
the moving rows its own offsets reach, accumulates its channels in the
sampler's ``(s1, rows, s2, k3, s3)`` layout, and is written to the tensor
with one transposed copy.  The block buffers are allocated once per plane
and fit in cache.  Planes run on :func:`densereg.parallel.map_planes`;
each plane's arithmetic is the same whatever the worker count or block
size.  The tensor is written completely before it is wrapped in a
:class:`CostTensor6D`, which takes that array without a copy and makes
it read-only.
"""

from dataclasses import dataclass, field

import numpy as np

from .features import FeatureVolume
from .geometry import (ControlGrid, DisplacementSpace, _freeze, lerp_axis,
                       lerp_axis_into, lerp_plan, sample_separable)
from .parallel import block_view, map_planes, row_blocks

__all__ = ["CostTensor6D", "dissimilarity_tensor", "flop_estimate"]


@dataclass(frozen=True)
class CostTensor6D:
    """Cost per (control point, displacement): shape ``(K1,K2,K3,S1,S2,S3)``.

    Values are non-negative and finite.  All operations that transform a
    cost tensor (scaling, pooling, lower envelopes) preserve both
    properties, so the invariant holds along the whole pipeline.  The
    checks run per control plane on up to ``workers`` threads (default:
    the usable cores), which is not part of the tensor's value.  The
    tensor takes the array it is given and makes it read-only, so no
    writer is left once it is validated: a stage that works in a buffer,
    as :func:`densereg.regularizer.regularize` does, finishes all its
    writes and then builds, and so validates, one tensor from the result.
    """

    values: np.ndarray
    grid: ControlGrid
    space: DisplacementSpace
    workers: int = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        want = tuple(self.grid.counts) + tuple(self.space.steps)
        if vals.shape != want:
            raise ValueError(f"cost tensor shape {vals.shape} does not match "
                             f"grid {self.grid.counts} x space {self.space.steps}")
        # min and max propagate NaN, so both finite means every value is.
        ranges = map_planes(lambda k: (vals[k].min(), vals[k].max()), vals, 0,
                            self.workers)
        if not all(np.isfinite(lo) and np.isfinite(hi) for lo, hi in ranges):
            raise ArithmeticError("cost tensor must be finite")
        if any(lo < 0.0 for lo, _ in ranges):
            raise ValueError("cost tensor must be non-negative")
        object.__setattr__(self, "values", _freeze(vals))


def dissimilarity_tensor(fixed: FeatureVolume, moving: FeatureVolume,
                         grid: ControlGrid, space: DisplacementSpace,
                         workers: int = None) -> CostTensor6D:
    """Mean squared feature distance for every (control point, displacement).

    ``cost[k, d] = (1/C) * sum_c (fixed_c(x_k) - moving_c(x_k + d))^2``
    with border-clamped trilinear sampling of both feature volumes.
    ``workers`` caps the threads that evaluate control planes (default:
    the usable cores); the result does not depend on it.
    """
    if fixed.channels != moving.channels:
        raise ValueError(f"channel mismatch: fixed {fixed.channels}, "
                         f"moving {moving.channels}")
    ctrl = [grid.axis_coords(a) for a in range(3)]
    f_fracs = [fixed.axis_fracs(a, ctrl[a]) for a in range(3)]
    m_fracs = [moving.axis_fracs(a, np.add.outer(ctrl[a], space.axis_offsets(a)).ravel())
               for a in range(3)]
    _, k2, k3 = grid.counts
    s1, s2, s3 = space.steps
    chans = fixed.channels
    _, height, width = moving.grid_counts
    f_at_k = [sample_separable(fixed.data[c], f_fracs)[:, :, None, :, None]
              for c in range(chans)]
    out = np.empty(grid.counts + space.steps)
    blocks = row_blocks(k2, s1 * s2 * k3 * s3 * out.itemsize)
    rows = blocks[0].stop
    # The sample positions of a block's rows, and of every block's
    # columns, are the same in every plane and channel.
    plans = [lerp_plan(height, m_fracs[1][b.start * s2:b.stop * s2], 3, 1)
             for b in blocks]
    plan2 = lerp_plan(width, m_fracs[2], 3, 2)

    def plane(k1):
        # The first-axis pass is shared by every block of the plane.
        t0 = m_fracs[0][k1 * s1:(k1 + 1) * s1]
        m_rows = [lerp_axis(moving.data[c], t0, 0) for c in range(chans)]
        partial = [np.empty(s1 * rows * s2 * width) for _ in range(2)]
        sampled = [np.empty(s1 * rows * s2 * k3 * s3) for _ in range(3)]
        for blk, plan1 in zip(blocks, plans):
            n = blk.stop - blk.start
            mid = [block_view(b, (s1, n * s2, width)) for b in partial]
            acc, diff, work = [block_view(b, (s1, n * s2, k3 * s3)) for b in sampled]
            for c in range(chans):
                dst = acc if c == 0 else diff
                lerp_axis_into(m_rows[c], plan1, 1, *mid)
                lerp_axis_into(mid[0], plan2, 2, dst, work)
                d5 = dst.reshape(s1, n, s2, k3, s3)
                np.subtract(f_at_k[c][k1, blk], d5, out=d5)
                np.multiply(dst, dst, out=dst)
                if c:
                    acc += diff
            acc /= chans
            # Clamp tiny negative rounding residue (cannot occur for sums
            # of squares, kept as a guard for future metric plug-ins).
            np.maximum(acc, 0.0, out=acc)
            out[k1, blk] = acc.reshape(s1, n, s2, k3, s3).transpose(1, 3, 0, 2, 4)

    map_planes(plane, out, 0, workers)
    return CostTensor6D(out, grid, space, workers)


def flop_estimate(grid: ControlGrid, space: DisplacementSpace, channels: int) -> int:
    """Arithmetic cost of the dense evaluation: subtract, square and
    accumulate once per (control point, displacement, channel)."""
    return 3 * grid.num_points * space.num_offsets * int(channels)
