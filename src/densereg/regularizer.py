"""Smoothing of the 6D cost tensor before probabilities are extracted.

:func:`regularize` alternates two blocks for ``iterations`` rounds: an
approximate min-convolution over the three displacement dimensions (one
min-pool then two average-pools, all :data:`DISP_KERNEL` wide, stride 1
with replicate padding) and a mean-field step that average-pools over the
three spatial dimensions.  It then multiplies the result by
``output_scale``.  Every block is 1-homogeneous, so a scale applied before
any block would come out as the same factor on the output: one scale is
all a chain of per-block scales can express.  ``output_scale`` times the
softmax ``temperature`` sets the sharpness of the probabilities, and
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
working buffer: the caller's tensor is read once and never written.  The
blocks take and return plain arrays; :func:`regularize` checks the
result once, when it wraps it in a :class:`CostTensor6D`.

``exact_lower_envelope`` computes the true lower envelope of parabolas for
a 1D cost row; it serves as the reference the pooled approximation is
audited against, and as a drop-in alternative for small problems.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .correlation import CostTensor6D
from .parallel import map_planes, row_blocks

__all__ = [
    "RegularizerParams",
    "DISP_KERNEL",
    "min_convolution",
    "mean_field_step",
    "regularize",
    "exact_lower_envelope",
    "lower_envelope_3d",
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
        if k < 1 or k % 2 == 0:
            raise ValueError(f"spatial_kernel must be odd and >= 1, got {k}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")


def _pool_size(shape: tuple, axes: tuple, kernel: int) -> tuple:
    """Per-axis filter size: full kernel where the extent allows it, 1 on
    degenerate (extent-1) axes, error in between.  An extent-1 axis has
    nothing to pool over; an axis shorter than the kernel but longer than 1
    would silently change the window semantics, so it is rejected."""
    size = [1] * len(shape)
    for a in axes:
        n = shape[a]
        if n == 1:
            continue
        if n < kernel:
            raise ValueError(f"axis {a} extent {n} smaller than kernel {kernel}")
        size[a] = kernel
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
    ``spatial_kernel``-wide window, one pass, independently per
    displacement bin.  Evaluated per displacement plane (axis 3) on up to
    ``workers`` threads.  The result goes to ``out`` when given, which
    may be ``values`` itself: ndimage reads a batch of lines before it
    writes them, as it does between its own 1D passes.  The output is
    not checked here; :func:`regularize` validates the tensor it builds
    from it."""
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
    read of ``cost`` works in place in one buffer of the tensor's size;
    ``cost`` itself is never written.  Every block clamps at zero and
    carries a NaN through, so the one check of the returned tensor
    stands in for a check after every block."""
    buf = np.empty_like(cost.values)
    vals = cost.values
    for _ in range(p.iterations):
        vals = min_convolution(vals, out=buf, workers=workers)
        vals = mean_field_step(vals, p.spatial_kernel, out=buf,
                               workers=workers)

    def scale(k):
        np.multiply(vals[k], p.output_scale, out=buf[k])

    map_planes(scale, vals, 0, workers)
    return replace(cost, values=buf)


# ---------------------------------------------------------------------------
# Exact lower envelope of parabolas (reference for the pooled approximation)
# ---------------------------------------------------------------------------

def exact_lower_envelope(cost_row, curvature: float) -> np.ndarray:
    """Lower envelope of parabolas rooted at each index of a 1D cost row:
    ``out[i] = min_j cost[j] + curvature * (i - j)^2``.

    Linear-time two-pass algorithm; +inf entries are allowed and simply
    contribute no parabola.
    """
    f = np.asarray(cost_row, dtype=np.float64)
    if f.ndim != 1:
        raise ValueError(f"cost row must be 1D, got shape {f.shape}")
    if not curvature > 0.0:
        raise ValueError(f"curvature must be positive, got {curvature}")
    n = f.size
    finite = np.flatnonzero(np.isfinite(f))
    if finite.size == 0:
        return f.copy()
    x = finite.astype(np.float64)
    g = f[finite]
    m = finite.size
    v = np.zeros(m, dtype=np.intp)     # indices (into x/g) of envelope parabolas
    z = np.empty(m + 1)                # boundaries between envelope segments
    z[0], z[1] = -np.inf, np.inf
    k = 0

    def intersect(p, q):
        return ((g[q] + curvature * x[q] ** 2) - (g[p] + curvature * x[p] ** 2)) \
            / (2.0 * curvature * (x[q] - x[p]))

    for q in range(1, m):
        s = intersect(v[k], q)
        while s <= z[k]:
            k -= 1
            s = intersect(v[k], q)
        k += 1
        v[k] = q
        z[k] = s
        z[k + 1] = np.inf

    out = np.empty(n)
    k = 0
    for i in range(n):
        while z[k + 1] < i:
            k += 1
        r = v[k]
        out[i] = g[r] + curvature * (i - x[r]) ** 2
    return out


def lower_envelope_3d(cost: CostTensor6D, curvature: float) -> CostTensor6D:
    """Separable 3D lower envelope over the displacement dimensions.

    The squared displacement metric separates per axis, so three 1D passes
    compute the exact 3D envelope.
    """
    out = cost.values.copy()
    for axis in _DISP_AXES:
        if out.shape[axis] > 1:
            out = np.apply_along_axis(exact_lower_envelope, axis, out, curvature)
    return replace(cost, values=out)
