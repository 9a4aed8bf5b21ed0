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
bit for bit.  An average pool is linear: on an axis of extent ``n`` it
is an ``n`` x ``n`` matrix whose row ``i`` holds ``1 / width`` for each
position of the window around ``i``, clamped to the axis (replicate
padding).  The min-convolution's two average pools on an axis are one
product with that matrix squared; the mean field is one product per
spatial axis.  The matrices are built in float64 and stored in the
tensor's dtype, and every product is a BLAS ``gemm`` through
``np.matmul``.  Their entries are non-negative, so a pool of
non-negative costs needs no clamp, and a NaN or an infinity spreads
along its line to the one check of the result.  The pools agree with
``ndimage.uniform_filter(mode="nearest")`` to the tensor's rounding, not
bit for bit, and smoothing loads no scipy.  Each product runs under
:data:`PRODUCT_MACS` multiply-adds, below the size at which OpenBLAS
starts threads of its own, so it runs on the worker that issued it.

Both blocks run on one walker, plane by plane on
:func:`densereg.parallel.map_planes`: the min-convolution per control
plane (axis 0), the mean-field step per displacement plane (axis 3).
The planes, their row blocks and the column split of every product are
fixed by the tensor's shape, never by the worker count, so the result
does not depend on it, nor on the number of BLAS threads.  Its bytes do
depend on the BLAS build and on the CPU kernel that build selects.
Inside a plane, the walker reads blocks of rows transposed to
``(pooled, pooled, pooled, rows, rest)`` into one of two scratch buffers,
and each pass writes the other one in the same layout, reading the block
as a stack of matrices with the pooled axis as rows.  A min-convolution
block holds at most :data:`densereg.parallel.BLOCK_BYTES`: a control
plane's rows are contiguous in the tensor, and a small block stays in
cache through its six passes.  A displacement plane's block is read in
runs of rows x ``S3`` values, one control point apart, and longer
blocks read longer runs, so the mean field's two buffers hold up to one
control plane plus one row block.  Either way a row larger than that is
a block of its own.  Each block reads its rows into scratch before it
writes them back, and nothing else reads those rows, so
:func:`regularize` runs every block and the output scale in one working
buffer of the tensor's dtype, as are the scratch buffers.  A validated
tensor's array is read-only, and then the buffer is a new one: a
caller's tensor is read once and never written.  A tensor the pipeline
has handed over has a writable array, and that array is the buffer, so
the smoothing adds no second tensor.  The blocks take and return plain
arrays; :func:`regularize` checks the result once, when it wraps it in a
:class:`CostTensor6D`.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import parallel
from .correlation import CostTensor6D
from .geometry import _is_int
from .parallel import block_view, map_planes, row_blocks

__all__ = [
    "RegularizerParams",
    "DISP_KERNEL",
    "min_convolution",
    "mean_field_step",
    "regularize",
]

# Width of the min-pool and of both average pools over each displacement
# axis; :func:`_min_pool1d` is written for this width.
DISP_KERNEL = 3

# Multiply-adds of one matrix product.  OpenBLAS runs a product of
# 2**18 or more on threads of its own, on top of the workers: unsplit,
# the min-convolution took 0.198 s on two workers against 0.124 s on one
# (2-core VM).
PRODUCT_MACS = 1 << 17


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


def _min_pool1d(src: np.ndarray, axis: int, dst: np.ndarray) -> None:
    """Minimum over a 3-wide window along ``axis`` with replicate
    padding, written into ``dst``, which may not overlap ``src``: the
    running ``np.minimum`` of ``src`` shifted by +1 and by -1, clamped to
    the array."""
    head = (slice(None),) * axis

    def cut(start, stop):
        return head + (slice(start, stop),)

    # Offset +1 goes with the copy of src: one pass instead of two.
    np.minimum(src[cut(None, -1)], src[cut(1, None)], out=dst[cut(None, -1)])
    np.copyto(dst[cut(-1, None)], src[cut(-1, None)])
    np.minimum(dst[cut(1, None)], src[cut(None, -1)], out=dst[cut(1, None)])


@functools.lru_cache(maxsize=64)
def _pool_matrix(n: int, size: int, power: int, dtype) -> np.ndarray:
    """Read-only ``n`` x ``n`` matrix, in ``dtype``, of ``power`` average
    pools ``size`` wide (odd) with replicate padding on an axis of extent
    ``n``: row ``i`` holds ``1 / size`` for each offset of the window
    around ``i``, clamped to the axis.  The power is taken in float64."""
    rows = np.arange(n)
    pool = np.zeros((n, n))
    for offset in range(-(size // 2), size // 2 + 1):
        pool[rows, np.clip(rows + offset, 0, n - 1)] += 1.0
    pool = np.linalg.matrix_power(pool / size, power).astype(dtype)
    pool.flags.writeable = False
    return pool


def _column_split(n: int, cols: int) -> list:
    """How a product of an ``n`` x ``n`` matrix with ``cols`` columns is
    cut: ``(count, width)`` pairs, ``count`` products of ``width``
    columns each, in column order.  As few products as keep each within
    :data:`PRODUCT_MACS` multiply-adds (``n * n * width``), or within
    three columns where even that exceeds it (``n`` over 209), with
    widths that differ by at most one, widest first; so a product holds
    at least two columns when ``cols`` does."""
    fit = max(3, PRODUCT_MACS // (n * n))
    products = -(-cols // fit)
    width, wider = divmod(cols, products)
    return [(count, w) for count, w in ((wider, width + 1),
                                        (products - wider, width)) if count]


def _matrix_pool(src: np.ndarray, axis: int, dst: np.ndarray,
                 matrix: np.ndarray) -> None:
    """``matrix`` applied along ``axis`` of the C-contiguous ``src``,
    written into ``dst`` of the same shape.  ``src`` is read as
    ``(lead, n, cols)``, and one ``np.matmul`` per width of
    :func:`_column_split` runs every product of that width."""
    n = src.shape[axis]
    x = src.reshape(math.prod(src.shape[:axis]), n, -1)
    y = dst.reshape(x.shape)
    if x.shape[2] == 1:
        # numpy hands a one-column product to gemv, which rounds
        # differently from gemm: pad it to two columns.
        y[...] = np.matmul(matrix, np.repeat(x, 2, axis=2))[..., :1]
        return
    start = 0
    for count, width in _column_split(n, x.shape[2]):
        stop = start + count * width
        xs, ys = (a[..., start:stop].reshape(len(a), n, count, width)
                  .swapaxes(1, 2) for a in (x, y))
        np.matmul(matrix, xs, out=ys)
        start = stop


def _pool_planes(values: np.ndarray, axis: int, perm: tuple, passes: list,
                 budget: int, out: np.ndarray, workers) -> np.ndarray:
    """Run ``passes``, 1D pools ``pool(src, block_axis, dst)``, on
    every plane of ``values`` along ``axis`` on up to ``workers``
    threads, and write the result to ``out`` (a new array when None; may
    be ``values``).

    Each plane is walked in blocks of rows
    (:func:`~densereg.parallel.row_blocks`): a block transposed by
    ``perm`` to ``(pooled, pooled, pooled, rows, rest)`` is read into one
    of two scratch buffers, and each pass writes the other one in the
    same layout.  The two buffers hold at most ``budget`` bytes, or one
    row each."""
    out = np.empty_like(values) if out is None else out
    src, dst = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    # perm[3] is the plane axis that the row blocks split.
    head = (slice(None),) * perm[3]
    count = src.shape[1 + perm[3]]
    blocks = row_blocks(count, 2 * src[0].nbytes // count, budget)
    scratch = src[0][head + (blocks[0],)].size

    def plane(k):
        bufs = [np.empty(scratch, values.dtype) for _ in range(2)]
        for blk in blocks:
            rows = src[k][head + (blk,)].transpose(perm)
            cur = block_view(bufs[0], rows.shape)
            np.copyto(cur, rows)
            for pool, a in passes:
                nxt = block_view(bufs[1], cur.shape)
                pool(cur, a, nxt)
                cur = nxt
                bufs.reverse()
            np.copyto(dst[k][head + (blk,)].transpose(perm), cur)

    map_planes(plane, values, axis, workers)
    return out


def min_convolution(values: np.ndarray, out: np.ndarray = None,
                    workers: int = None) -> np.ndarray:
    """Approximate min-convolution over the displacement dimensions of a
    6D cost array: one min-pool followed by two average-pools, spatial
    dimensions untouched.  Evaluated per control plane (axis 0) on up to
    ``workers`` threads, in blocks of the plane's ``K2`` rows transposed
    to ``(S1, S2, S3, rows, K3)``.  The two average pools on an axis are
    one product with the square of its pool matrix.  The result goes to
    ``out`` when given, which may be ``values`` itself.  The output is
    not checked here; :func:`regularize` validates the tensor it builds
    from it."""
    extents = values.shape[3:]
    axes = [a for a in range(3) if extents[a] >= DISP_KERNEL]
    passes = ([(_min_pool1d, a) for a in axes]
              + [(functools.partial(_matrix_pool, matrix=_pool_matrix(
                  extents[a], DISP_KERNEL, 2, values.dtype)), a)
                 for a in axes])
    return _pool_planes(values, 0, (2, 3, 4, 0, 1), passes,
                        2 * parallel.BLOCK_BYTES, out, workers)


def mean_field_step(values: np.ndarray, spatial_kernel: int,
                    out: np.ndarray = None, workers: int = None) -> np.ndarray:
    """Average-pool a 6D cost array over the spatial dimensions with a
    ``spatial_kernel``-wide window (narrower on an axis it does not fit),
    one product with the pool matrix per spatial axis, independently per
    displacement bin.  Evaluated per displacement plane (axis 3) on up to
    ``workers`` threads, in blocks of the plane's ``S2`` rows,
    ``(K1, K2, K3, rows, S3)``.  The result goes to ``out`` when given,
    which may be ``values`` itself.  The output is not checked here;
    :func:`regularize` validates the tensor it builds from it."""
    extents = values.shape[:3]
    size = [min(spatial_kernel, n - 1 + n % 2) for n in extents]
    passes = [(functools.partial(_matrix_pool, matrix=_pool_matrix(
        extents[a], size[a], 1, values.dtype)), a)
              for a in range(3) if size[a] > 1]
    return _pool_planes(values, 3, (0, 1, 2, 3, 4), passes,
                        values[0].nbytes + parallel.BLOCK_BYTES, out, workers)


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
    Either way the result is the same, bit for bit.  Every block carries
    a NaN or an infinity through, so the one check of the returned
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
