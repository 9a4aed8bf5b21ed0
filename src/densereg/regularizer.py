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
``output_scale`` times the softmax ``temperature`` sets the sharpness of
the probabilities, and ``output_scale`` alone weighs the data term
against the diffusion penalty during refinement.

The min-pool is exact and needs no filter: shifted ``np.minimum`` calls
along each displacement axis.  A window clamped to the array already
holds the values that replicate padding would add, and ``min`` does not
round, so the result equals ``ndimage.minimum_filter(mode="nearest")``
bit for bit.  An average pool is one :func:`densereg.geometry.running_mean`
pass per pooled axis, in axis order: the running sum of
``ndimage.uniform_filter1d`` with that filter's own arithmetic, so the
pools equal ``ndimage.uniform_filter(mode="nearest")`` bit for bit too,
and smoothing loads no scipy.

Both blocks run on one walker, plane by plane on
:func:`densereg.parallel.map_planes`: the min-convolution per control
plane (axis 0), the mean-field step per displacement plane (axis 3).  A
plane is filtered by the same 1D passes as the whole tensor would be, so
the result does not depend on the worker count.  Inside a plane, the
walker reads blocks of rows transposed to ``(pooled, pooled, pooled,
rows, rest)`` into one of two scratch buffers and hands each block
between them, one pass after another, so that every pass walks long
contiguous runs.  A worker's two buffers hold at most one control plane
plus one row block of :data:`densereg.parallel.BLOCK_BYTES`, or one row
each when a row is larger.  Each block reads its rows into scratch
before it writes them back, and nothing else reads those rows, so
:func:`regularize` runs every block and the output scale in one working
buffer.  A validated tensor's array is read-only, and then the buffer
is a new one: a caller's tensor is read once and never written.  A
tensor the pipeline has handed over has a writable array, and that
array is the buffer, so the smoothing adds no second tensor.
The blocks take and return plain arrays; :func:`regularize` checks the
result once, when it wraps it in a :class:`CostTensor6D`.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import parallel
from .correlation import CostTensor6D
from .geometry import _is_int, running_mean
from .parallel import block_view, map_planes, row_blocks

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


def _windows(extents: tuple, kernel: int) -> list:
    """Pool width on each axis of ``extents``: the odd ``kernel``
    narrowed to the widest odd window that fits the axis."""
    return [min(kernel, n - 1 + n % 2) for n in extents]


def _min_pool1d(src: np.ndarray, size: int, axis: int,
                dst: np.ndarray) -> None:
    """Minimum over a ``size``-wide window (odd, > 1) along ``axis`` with
    replicate padding, written into ``dst``, which may not overlap
    ``src``: the running ``np.minimum`` of ``src`` shifted by each offset
    in the window, clamped to the array."""
    head = (slice(None),) * axis

    def cut(start, stop):
        return head + (slice(start, stop),)

    # Offset +1 goes with the copy of src: one pass instead of two.
    np.minimum(src[cut(None, -1)], src[cut(1, None)], out=dst[cut(None, -1)])
    np.copyto(dst[cut(-1, None)], src[cut(-1, None)])
    for s in range(1, size // 2 + 1):
        if s > 1:
            np.minimum(dst[cut(None, -s)], src[cut(s, None)],
                       out=dst[cut(None, -s)])
        np.minimum(dst[cut(s, None)], src[cut(None, -s)],
                   out=dst[cut(s, None)])


def _pool_planes(values: np.ndarray, axis: int, perm: tuple, passes: list,
                 out: np.ndarray, workers) -> np.ndarray:
    """Run ``passes``, 1D pools ``(pool, block_axis, size)``, on every
    plane of ``values`` along ``axis`` on up to ``workers`` threads,
    clamp at 0, and write the result to ``out`` (a new array when None;
    may be ``values``).

    Each plane is walked in blocks of rows
    (:func:`~densereg.parallel.row_blocks`): a block transposed by
    ``perm`` to ``(pooled, pooled, pooled, rows, rest)`` is read into one
    of two scratch buffers, and each pass writes the other buffer with
    its pooled axis leading, so that the pass's slices are contiguous.
    The two buffers hold at most one control plane plus one
    :data:`~densereg.parallel.BLOCK_BYTES` block, or one row each."""
    out = np.empty_like(values) if out is None else out
    src, dst = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    # perm[3] is the plane axis that the row blocks split.
    head = (slice(None),) * perm[3]
    count = src.shape[1 + perm[3]]
    blocks = row_blocks(count, 2 * src[0].nbytes // count,
                        values[0].nbytes + parallel.BLOCK_BYTES)
    scratch = src[0][head + (blocks[0],)].size

    def plane(k):
        bufs = [np.empty(scratch), np.empty(scratch)]
        for blk in blocks:
            rows = src[k][head + (blk,)].transpose(perm)
            cur = block_view(bufs[0], rows.shape)
            np.copyto(cur, rows)
            for pool, a, size in passes:
                shape = cur.shape
                lead = (shape[a],) + shape[:a] + shape[a + 1:]
                nxt = np.moveaxis(block_view(bufs[1], lead), 0, a)
                pool(cur, size, a, nxt)
                cur = nxt
                bufs.reverse()
            # Sliding-sum rounding can dip epsilon below zero; the true
            # value of a mean of non-negative numbers cannot.
            np.maximum(cur, 0.0, out=cur)
            np.copyto(dst[k][head + (blk,)].transpose(perm), cur)

    map_planes(plane, values, axis, workers)
    return out


def min_convolution(values: np.ndarray, out: np.ndarray = None,
                    workers: int = None) -> np.ndarray:
    """Approximate min-convolution over the displacement dimensions of a
    6D cost array: one min-pool followed by two average-pools, spatial
    dimensions untouched.  Evaluated per control plane (axis 0) on up to
    ``workers`` threads, in blocks of the plane's rows transposed to
    ``(S1, S2, S3, rows, K3)``.  The result goes to ``out`` when given,
    which may be ``values`` itself.  The output is not checked here;
    :func:`regularize` validates the tensor it builds from it."""
    size = _windows(values.shape[3:], DISP_KERNEL)
    axes = [a for a in range(3) if size[a] > 1]
    passes = ([(_min_pool1d, a, size[a]) for a in axes]
              + [(running_mean, a, size[a]) for a in axes + axes])
    return _pool_planes(values, 0, (2, 3, 4, 0, 1), passes, out, workers)


def mean_field_step(values: np.ndarray, spatial_kernel: int,
                    out: np.ndarray = None, workers: int = None) -> np.ndarray:
    """Average-pool a 6D cost array over the spatial dimensions with a
    ``spatial_kernel``-wide window (narrower on an axis it does not fit),
    one pass, independently per displacement bin.  Evaluated per
    displacement plane (axis 3) on up to ``workers`` threads, in blocks
    of the plane's ``S2`` rows, ``(K1, K2, K3, rows, S3)``.  The result
    goes to ``out`` when given, which may be ``values`` itself.  The
    output is not checked here; :func:`regularize` validates the tensor
    it builds from it."""
    size = _windows(values.shape[:3], spatial_kernel)
    passes = [(running_mean, a, size[a]) for a in range(3) if size[a] > 1]
    return _pool_planes(values, 3, (0, 1, 2, 3, 4), passes, out, workers)


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
