"""Dense dissimilarity evaluation over the displacement space.

For every control point k and quantized displacement d, the cost is the
mean squared feature difference between the fixed features at k and the
moving features at k + d.  Costs are stored positive (minimization
semantics); the probabilistic transform negates them inside its softmax.

The moving-feature sample positions factorize per axis (control coordinate
plus offset), so costs are built from three 1D interpolation passes per
channel instead of one gather per (k, d) pair.  The tensor is evaluated
one control plane ``k1`` at a time: each plane samples only the moving
rows its own offsets reach and accumulates its channels in place into
``out[k1]``, so no temporary is larger than one plane.  Planes run on
:func:`densereg.parallel.map_planes`; each plane's arithmetic is the same
whatever the worker count.
"""

from dataclasses import dataclass

import numpy as np

from .features import FeatureVolume
from .geometry import ControlGrid, DisplacementSpace, sample_separable
from .parallel import map_planes

__all__ = ["CostTensor6D", "dissimilarity_tensor", "flop_estimate"]


@dataclass(frozen=True)
class CostTensor6D:
    """Cost per (control point, displacement): shape ``(K1,K2,K3,S1,S2,S3)``.

    Values are non-negative and finite.  All operations that transform a
    cost tensor (scaling, pooling, lower envelopes) preserve both
    properties, so the invariant holds along the whole pipeline.
    """

    values: np.ndarray
    grid: ControlGrid
    space: DisplacementSpace

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        want = tuple(self.grid.counts) + tuple(self.space.steps)
        if vals.shape != want:
            raise ValueError(f"cost tensor shape {vals.shape} does not match "
                             f"grid {self.grid.counts} x space {self.space.steps}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("cost tensor must be finite")
        if vals.size and vals.min() < 0.0:
            raise ValueError("cost tensor must be non-negative")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def grid_shape(self) -> tuple:
        return self.values.shape[:3]

    @property
    def disp_shape(self) -> tuple:
        return self.values.shape[3:]

    def replace_values(self, values: np.ndarray) -> "CostTensor6D":
        """New tensor over the same grid and displacement space."""
        return CostTensor6D(values, self.grid, self.space)


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
    f_at_k = [sample_separable(fixed.data[c], f_fracs)
              for c in range(fixed.channels)]
    out = np.zeros(grid.counts + space.steps)

    def plane(k1):
        acc = out[k1]
        diff = np.empty_like(acc)
        fracs = [m_fracs[0][k1 * s1:(k1 + 1) * s1], m_fracs[1], m_fracs[2]]
        for c in range(fixed.channels):
            m_at_kd = sample_separable(moving.data[c], fracs)
            m_at_kd = m_at_kd.reshape(s1, k2, s2, k3, s3).transpose(1, 3, 0, 2, 4)
            np.subtract(f_at_k[c][k1, :, :, None, None, None], m_at_kd, out=diff)
            np.multiply(diff, diff, out=diff)
            acc += diff
        acc /= fixed.channels
        # Clamp tiny negative rounding residue (cannot occur for sums of
        # squares, kept as a guard for future metric plug-ins).
        np.maximum(acc, 0.0, out=acc)

    map_planes(plane, out, 0, workers)
    return CostTensor6D(out, grid, space)


def flop_estimate(grid: ControlGrid, space: DisplacementSpace, channels: int) -> int:
    """Arithmetic cost of the dense evaluation: subtract, square and
    accumulate once per (control point, displacement, channel)."""
    return 3 * grid.num_points * space.num_offsets * int(channels)
