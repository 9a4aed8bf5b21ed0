"""Smoothing of the 6D cost tensor before probabilities are extracted.

:func:`regularize` alternates two blocks for ``iterations`` rounds: an
approximate min-convolution over the three displacement dimensions (one
min-pool then two average-pools, all :data:`DISP_KERNEL` wide, stride 1
with replicate padding) and a mean-field step that average-pools over the
three spatial dimensions, ``spatial_kernel`` wide.  On an axis of extent
``n`` every pool is ``min(kernel, n - 1 + n % 2)`` wide, the widest odd
window that fits, so an extent-1 axis is not pooled.  It then multiplies
the result by ``output_scale``.  Every block is 1-homogeneous, so a scale
applied before any block would come out as the same factor on the output:
one scale is all a chain of per-block scales can express.
``output_scale`` times the softmax ``temperature`` sets the sharpness of the probabilities, and
``output_scale`` alone weighs the data term against the diffusion penalty
during refinement.

The min-pool is exact and needs no filter: shifted ``np.minimum`` calls
along each displacement axis, on blocks of rows that fit in cache.  A
window clamped to the array already holds the values that replicate
padding would add, and ``min`` does not round, so the result equals
``ndimage.minimum_filter(mode="nearest")`` bit for bit.  The average
pools are ``ndimage.uniform_filter`` calls.

Both blocks are evaluated plane by plane on
:func:`densereg.parallel.map_planes`: the min-convolution per control
plane (axis 0), the mean-field step per displacement plane (axis 3).  A
plane is filtered by the same 1D passes as the whole tensor would be, so
the result does not depend on the worker count.  Each block reads a
plane completely before writing it, and nothing else reads that plane,
so :func:`regularize` runs every block and the output scale in one
working buffer.  A validated tensor's array is read-only, and then the
buffer is a new one: a caller's tensor is read once and never written.
A tensor the pipeline has handed over has a writable array, and that
array is the buffer, so the smoothing adds no second tensor.  The
blocks take and return plain arrays; :func:`regularize` checks the
result once, when it wraps it in a :class:`CostTensor6D`.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .correlation import CostTensor6D
from .geometry import _is_int
from .parallel import map_planes, row_blocks

__all__ = [
    "RegularizerParams",
    "DISP_KERNEL",
    "min_convolution",
    "mean_field_step",
    "regularize",
]

# Width of the min-pool and of both average pools over each displacement
# axis.
DISP_KERNEL = 3

_DISP_AXES = (3, 4, 5)
_SPATIAL_AXES = (0, 1, 2)


@dataclass(frozen=True)
class RegularizerParams:
    """Configuration for :func:`regularize` and the softmax that follows.

    ``iterations`` rounds of min-convolution and a ``spatial_kernel``-wide
    mean-field step, then a multiplication by ``output_scale``;
    ``iterations = 0`` keeps only the scaling (the no-smoothing
    ablation).  ``temperature`` multiplies the costs inside
    :func:`densereg.transform.softmax_probabilities`.  The defaults are
    the end-to-end preset that demos/tune_alphas.py fitted on the
    phantom suite.
    """

    output_scale: float = 2500.0
    temperature: float = 4.0
    iterations: int = 5
    spatial_kernel: int = 5

    def __post_init__(self):
        for name in ("output_scale", "temperature"):
            value = float(getattr(self, name))
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
            object.__setattr__(self, name, value)
        k = self.spatial_kernel
        if not (_is_int(k) and k >= 1 and k % 2):
            raise ValueError(f"spatial_kernel must be an odd int >= 1, got {k!r}")
        if not (_is_int(self.iterations) and self.iterations >= 0):
            raise ValueError(f"iterations must be an int >= 0, got {self.iterations!r}")


def _pool_size(shape: tuple, axes: tuple, kernel: int) -> tuple:
    """Per-axis filter size: the odd ``kernel`` narrowed to the widest odd
    window that fits each pooled axis, 1 on every other axis."""
    size = [1] * len(shape)
    for a in axes:
        size[a] = min(kernel, shape[a] - 1 + shape[a] % 2)
    return tuple(size)


def _min_pool(src: np.ndarray, size: tuple, out: np.ndarray,
              work: np.ndarray) -> np.ndarray:
    """Minimum over a box of odd per-axis widths ``size`` with replicate
    padding, written into ``out``: ``ndimage.minimum_filter(src, size,
    mode="nearest")``, exactly.  Per axis, the box minimum is the running
    ``np.minimum`` of the input shifted by each offset in the window.
    ``work`` is scratch of the same shape; neither may overlap ``src``."""
    axes = [a for a, k in enumerate(size) if k > 1]
    if not axes:
        np.copyto(out, src)
        return out
    # Alternate between the two buffers so the last axis lands in out.
    dsts = (out, work) if len(axes) % 2 else (work, out)
    cur = src
    for n, axis in enumerate(axes):
        dst = dsts[n % 2]
        np.copyto(dst, cur)
        head = (slice(None),) * axis
        for s in range(1, size[axis] // 2 + 1):
            lo, hi = head + (slice(None, -s),), head + (slice(s, None),)
            np.minimum(dst[hi], cur[lo], out=dst[hi])
            np.minimum(dst[lo], cur[hi], out=dst[lo])
        cur = dst
    return out


def min_convolution(values: np.ndarray, out: np.ndarray = None,
                    workers: int = None) -> np.ndarray:
    """Approximate min-convolution over the displacement dimensions of a
    6D cost array: one min-pool followed by two average-pools, spatial
    dimensions untouched.  Evaluated per control plane on up to
    ``workers`` threads.  The result goes to ``out`` when given, which
    may be ``values`` itself: each plane is read into scratch before it
    is written.  The output is not checked here; :func:`regularize`
    validates the tensor it builds from it."""
    size = _pool_size(values.shape, _DISP_AXES, DISP_KERNEL)[1:]
    out = np.empty_like(values) if out is None else out
    blocks = row_blocks(values.shape[1], values[0, 0].nbytes)
    block_shape = (blocks[0].stop,) + values.shape[2:]

    def plane(k):
        pooled = np.empty(values.shape[1:])
        work = np.empty(block_shape)
        for blk in blocks:
            _min_pool(values[k, blk], size, pooled[blk],
                      work[:blk.stop - blk.start])
        dst = out[k]
        ndimage.uniform_filter(pooled, size=size, output=pooled,
                               mode="nearest")
        ndimage.uniform_filter(pooled, size=size, output=dst, mode="nearest")
        # Sliding-sum rounding can dip epsilon below zero; the true value
        # of a mean of non-negative numbers cannot.
        np.maximum(dst, 0.0, out=dst)

    map_planes(plane, values, 0, workers)
    return out


def mean_field_step(values: np.ndarray, spatial_kernel: int,
                    out: np.ndarray = None, workers: int = None) -> np.ndarray:
    """Average-pool a 6D cost array over the spatial dimensions with a
    ``spatial_kernel``-wide window (narrower on an axis it does not fit),
    one pass, independently per displacement bin.  Evaluated per
    displacement plane (axis 3) on up to ``workers`` threads.  The
    result goes to ``out`` when given, which may be ``values`` itself:
    ndimage reads a batch of lines before it writes them, as it does
    between its own 1D passes.  The output is not checked here;
    :func:`regularize` validates the tensor it builds from it."""
    size = _pool_size(values.shape, _SPATIAL_AXES, spatial_kernel)
    size = size[:3] + size[4:]
    out = np.empty_like(values) if out is None else out

    def plane(j):
        dst = out[:, :, :, j]
        ndimage.uniform_filter(values[:, :, :, j], size=size, output=dst,
                               mode="nearest")
        np.maximum(dst, 0.0, out=dst)

    map_planes(plane, values, 3, workers)
    return out


def regularize(cost: CostTensor6D, p: RegularizerParams,
               workers: int = None) -> CostTensor6D:
    """Alternate min-convolution with mean-field averaging for
    ``p.iterations`` rounds, then multiply by ``p.output_scale``.
    ``workers`` caps the threads of each block (default: the usable
    cores); the result does not depend on it.  Every step after the first
    read of ``cost`` works in place in one buffer of the tensor's size.
    That buffer is ``cost``'s own array when it is writable, as it is
    only after the pipeline handed the tensor over; a validated
    tensor's array is read-only, and such a ``cost`` is never written.
    Either way the result is the same, bit for bit.  Every block clamps
    at zero and carries a NaN through, so the one check of the returned
    tensor stands in for a check after every block."""
    vals = cost.values
    buf = vals if vals.flags.writeable else np.empty_like(vals)
    for _ in range(p.iterations):
        vals = min_convolution(vals, out=buf, workers=workers)
        vals = mean_field_step(vals, p.spatial_kernel, out=buf,
                               workers=workers)

    def scale(k):
        np.multiply(vals[k], p.output_scale, out=buf[k])

    map_planes(scale, vals, 0, workers)
    return replace(cost, values=buf)
