"""Handcrafted dense feature extraction.

Two extractors produce multi-channel feature volumes on a strided grid:

* self-similarity context (SSC): 12 channels comparing small patches around
  the 6-neighborhood of each voxel, invariant to global intensity shifts;
* intensity-gradient: 4 cheap channels (standardized smoothed intensity
  plus raw gradient components) used as a baseline and in fast tests.

Feature grids live in the same normalized coordinate frame as volumes, so
features extracted from differently strided grids stay comparable.

SSC is only ever read on its strided grid, so it is never computed
anywhere else: each channel's squared neighbor differences are
box-filtered and subsampled axis by axis, the normalization and the
exponential run on the strided grid only, and the 12 channels run as
separate tasks on :func:`densereg.parallel.map_planes`.  The values are
bit-identical to filtering and exponentiating every voxel first.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import ndimage

from .geometry import Volume3D, _freeze, _require_finite, index_to_normalized
from .parallel import map_planes

__all__ = [
    "FeatureVolume",
    "extract_ssc",
    "extract_intensity_gradient",
    "SSC_PAIRS",
]

# The 6-neighborhood offsets in a fixed order; channel j compares the j-th
# unordered pair of offsets lying on different axes (12 pairs total).
_NEIGHBORS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
SSC_PAIRS = tuple((a, b) for a, b in combinations(_NEIGHBORS, 2)
                  if np.argmax(np.abs(a)) != np.argmax(np.abs(b)))
assert len(SSC_PAIRS) == 12


@dataclass(frozen=True)
class FeatureVolume:
    """Multi-channel features on a regular grid in normalized coordinates.

    ``data`` has shape ``(C, G1, G2, G3)``.  Cell ``(i, j, k)`` of the grid
    sits at ``origin + step * (i, j, k)``; for a stride-s subsampling of an
    image the cells coincide with the source voxel centers they were
    extracted at.
    """

    data: np.ndarray
    origin: tuple
    step: tuple

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if data.ndim != 4:
            raise ValueError(f"feature data must be (C, G1, G2, G3), got {data.shape}")
        _require_finite(data, "feature data")
        origin = tuple(float(v) for v in self.origin)
        step = tuple(float(v) for v in self.step)
        if len(origin) != 3 or len(step) != 3 or any(s <= 0 for s in step):
            raise ValueError("origin and step must be three values, step positive")
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "step", step)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def grid_counts(self) -> tuple:
        return self.data.shape[1:]

    def axis_coords(self, axis: int) -> np.ndarray:
        """Normalized coordinates of grid cells along one axis."""
        return self.origin[axis] + self.step[axis] * np.arange(self.grid_counts[axis])

    def axis_fracs(self, axis: int, coords) -> np.ndarray:
        """Fractional grid indices of normalized coordinates along one axis."""
        return (np.asarray(coords, dtype=np.float64) - self.origin[axis]) / self.step[axis]


def _shifted(data: np.ndarray, offset, out=None) -> np.ndarray:
    """Border-replicated shift along one axis: out[v] = data[clip(v + offset)]."""
    axis = int(np.flatnonzero(offset)[0])
    n = data.shape[axis]
    idx = np.clip(np.arange(n) + offset[axis], 0, n - 1)
    return np.take(data, idx, axis=axis, out=out, mode="clip")


def _grid_frame(dims, stride: int):
    """Origin and step of the stride-``stride`` grid that keeps the center
    voxel of every stride-block."""
    offset = stride // 2
    origin = tuple(float(index_to_normalized(offset, n)) for n in dims)
    step = tuple(2.0 * stride / n for n in dims)
    return origin, step


def _subsample(full: np.ndarray, dims, stride: int):
    """Keep the center voxel of every stride-block; return data + grid frame."""
    offset = stride // 2
    takes = [np.arange(offset, n, stride) for n in dims]
    sub = full[np.ix_(np.arange(full.shape[0]), *takes)]
    return (sub,) + _grid_frame(dims, stride)


def _box_mean_strided(diff2: np.ndarray, size: int, stride: int) -> np.ndarray:
    """``ndimage.uniform_filter(diff2, size, mode="nearest")`` read at the
    centers of the stride-blocks.

    ``uniform_filter`` is one ``uniform_filter1d`` pass per axis in axis
    order.  A 1D pass treats every line on its own, so the lines a later
    pass or the final grid never reads can be dropped right after the pass
    along their axis: the kept values are the same bits, and the work is
    1 + 1/s + 1/s^2 full-volume passes instead of 3.
    """
    out = diff2
    keep = slice(stride // 2, None, stride)
    for axis in range(3):
        if size > 1:
            out = ndimage.uniform_filter1d(out, size, axis=axis, mode="nearest")
        out = out[(slice(None),) * axis + (keep,)]
    return out


def extract_ssc(vol: Volume3D, patch_radius: int = 1, stride: int = 3,
                workers: int = None) -> FeatureVolume:
    """Self-similarity context descriptors.

    Channel j at voxel v is ``exp(-D_j(v) / sigma2(v))`` where ``D_j`` is
    the mean squared distance between the patches centered at ``v + n_a``
    and ``v + n_b`` for the j-th neighbor pair, and ``sigma2`` is the local
    mean of the 12 distances.  Where ``sigma2 == 0`` (constant regions) the
    value is 1.0 by definition: a constant image is perfectly self-similar.
    Values lie in [0, 1]; adding a constant to the image leaves them
    unchanged.

    Only the stride-block centers are kept, so each channel's squared
    differences are box-filtered and subsampled axis by axis, and the
    normalization and exponential run on the strided grid alone.  The 12
    channels are computed on up to ``workers`` threads; the result is the
    same for any worker count.
    """
    if patch_radius < 0 or stride < 1:
        raise ValueError("patch_radius must be >= 0 and stride >= 1")
    dims = vol.dims
    need = 2 * patch_radius + 3
    if any(n < need for n in dims):
        raise ValueError(f"volume dims {dims} too small for patch radius "
                         f"{patch_radius} (need >= {need} per axis)")
    data = vol.data
    size = 2 * patch_radius + 1
    dists = np.empty((12,) + tuple(len(range(stride // 2, n, stride))
                                   for n in dims))

    def channel(j):
        na, nb = SSC_PAIRS[j]
        diff2 = _shifted(data, na, out=np.empty(dims))
        diff2 -= _shifted(data, nb)
        np.square(diff2, out=diff2)
        dists[j] = _box_mean_strided(diff2, size, stride)

    map_planes(channel, dists, 0, workers, plane_bytes=data.nbytes)
    # the sliding-sum box filter can leave tiny negative residues on
    # constant regions; clamp so the exponent below stays <= 0
    np.maximum(dists, 0.0, out=dists)
    # Add the channels one after another, as dists.mean(axis=0) does on
    # every grid but a single point, where it sums them pairwise.
    sigma2 = sum(dists[1:], dists[0].copy()) / len(dists)
    safe = np.where(sigma2 > 0, sigma2, 1.0)
    chans = np.where(sigma2 > 0, np.exp(-dists / safe), 1.0)
    return FeatureVolume(chans, *_grid_frame(dims, stride))


def extract_intensity_gradient(vol: Volume3D, smooth_sigma: float = 1.0,
                               stride: int = 3) -> FeatureVolume:
    """Baseline features: standardized smoothed intensity + raw gradients.

    Channel 0 is the Gaussian-smoothed intensity standardized to zero mean
    and unit variance over the volume (all zeros for a constant volume);
    channels 1-3 are central-difference gradients of the raw intensity per
    voxel step, one-sided at the borders.
    """
    dims = vol.dims
    if any(n < 3 for n in dims):
        raise ValueError(f"volume dims {dims} too small (need >= 3 per axis)")
    data = vol.data
    smooth = ndimage.gaussian_filter(data, smooth_sigma, mode="nearest")
    std = smooth.std()
    ch0 = (smooth - smooth.mean()) / std if std > 0 else np.zeros(dims)
    grads = np.gradient(data)
    full = np.stack([ch0] + list(grads), axis=0)
    sub, origin, step = _subsample(full, dims, stride)
    return FeatureVolume(sub, origin, step)
