"""Smoothing of the 6D cost tensor before probabilities are extracted.

Two alternating blocks: an approximate min-convolution over the three
displacement dimensions (one min-pool then two average-pools, all stride 1
with replicate padding) and a mean-field step that average-pools over the
three spatial dimensions.  Scale/bias pairs are applied before each block.

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
so :func:`regularize` runs every block and scale/bias pair in one working
buffer: the caller's tensor is read once and never written.

``exact_lower_envelope`` computes the true lower envelope of parabolas for
a 1D cost row; it serves as the reference the pooled approximation is
audited against, and as a drop-in alternative for small problems.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .correlation import CostTensor6D
from .parallel import map_planes, row_blocks

__all__ = [
    "RegularizerParams",
    "DEFAULT_ALPHAS",
    "TUNED_ALPHAS",
    "tuned_params",
    "min_convolution",
    "mean_field_step",
    "regularize",
    "exact_lower_envelope",
    "lower_envelope_3d",
]

# (scale, bias) pairs; the sixth pair is the softmax temperature used by
# the transform extraction, not consumed here.
DEFAULT_ALPHAS = ((1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (10.0, 0.0))

# End-to-end registration preset fitted by the coarse grid search in
# demos/tune_alphas.py on the synthetic phantom suite.  Pair 5 sets the
# scale of the regularized cost (and with it the data term seen by the
# gradient refinement, relative to the diffusion weight); pair 5 times
# pair 6 is the effective softmax sharpness.
TUNED_ALPHAS = ((1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2500.0, 0.0), (4.0, 0.0))

_DISP_AXES = (3, 4, 5)
_SPATIAL_AXES = (0, 1, 2)


@dataclass(frozen=True)
class RegularizerParams:
    """Configuration for :func:`regularize`.

    ``alphas`` holds six (scale, bias) pairs consumed in order: pair 1
    before the first min-convolution, pair 2 before the first mean-field
    step, pairs 3/4 for the second iteration, pair 5 on the final output,
    pair 6 as the softmax temperature.  ``iterations = 0`` skips all
    pooling and returns the pair-5-adjusted input (the no-smoothing
    ablation).  Iterations beyond the second reuse pairs 3/4.
    """

    alphas: tuple = DEFAULT_ALPHAS
    iterations: int = 2
    minpool_kernel: int = 3
    avgpool_kernel: int = 3
    spatial_kernel: int = 3

    def __post_init__(self):
        alphas = tuple((float(s), float(b)) for s, b in self.alphas)
        if len(alphas) != 6:
            raise ValueError(f"need six (scale, bias) pairs, got {len(alphas)}")
        flat = [v for pair in alphas for v in pair]
        if not all(np.isfinite(flat)):
            raise ValueError("alpha scales and biases must be finite")
        if alphas[5][0] <= 0.0:
            raise ValueError("softmax temperature (pair 6 scale) must be positive")
        for name in ("minpool_kernel", "avgpool_kernel", "spatial_kernel"):
            k = getattr(self, name)
            if k < 1 or k % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 1, got {k}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        object.__setattr__(self, "alphas", alphas)

    @property
    def temperature(self) -> float:
        return self.alphas[5][0]


def tuned_params() -> RegularizerParams:
    """Regularizer settings used by the end-to-end registration default.

    Five smoothing iterations with a 5-wide spatial kernel and the
    TUNED_ALPHAS scales; reproduced by demos/tune_alphas.py.
    """
    return RegularizerParams(alphas=TUNED_ALPHAS, iterations=5,
                             spatial_kernel=5)


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


def min_convolution(cost: CostTensor6D, p: RegularizerParams,
                    workers: int = None, out: np.ndarray = None) -> CostTensor6D:
    """Approximate min-convolution over the displacement dimensions: one
    min-pool followed by two average-pools, spatial dimensions untouched.
    Evaluated per control plane on up to ``workers`` threads.  The result
    goes to ``out`` when given, which may be the buffer ``cost`` views:
    each plane is read into scratch before it is written."""
    vals = cost.values
    smin = _pool_size(vals.shape, _DISP_AXES, p.minpool_kernel)[1:]
    savg = _pool_size(vals.shape, _DISP_AXES, p.avgpool_kernel)[1:]
    out = np.empty_like(vals) if out is None else out
    blocks = row_blocks(vals.shape[1], vals[0, 0].nbytes)
    block_shape = (blocks[0].stop,) + vals.shape[2:]

    def plane(k):
        pooled = np.empty(vals.shape[1:])
        work = np.empty(block_shape)
        for blk in blocks:
            _min_pool(vals[k, blk], smin, pooled[blk],
                      work[:blk.stop - blk.start])
        dst = out[k]
        ndimage.uniform_filter(pooled, size=savg, output=pooled,
                               mode="nearest")
        ndimage.uniform_filter(pooled, size=savg, output=dst, mode="nearest")
        # Sliding-sum rounding can dip epsilon below zero; the true value
        # of a mean of non-negative numbers cannot.
        np.maximum(dst, 0.0, out=dst)

    map_planes(plane, vals, 0, workers)
    return cost.replace_values(out)


def mean_field_step(cost: CostTensor6D, p: RegularizerParams,
                    workers: int = None, out: np.ndarray = None) -> CostTensor6D:
    """Average-pool over the spatial dimensions, one pass, independently
    per displacement bin.  Evaluated per displacement plane (axis 3) on up
    to ``workers`` threads.  The result goes to ``out`` when given, which
    may be the buffer ``cost`` views: ndimage reads a batch of lines
    before it writes them, as it does between its own 1D passes."""
    vals = cost.values
    size = _pool_size(vals.shape, _SPATIAL_AXES, p.spatial_kernel)
    size = size[:3] + size[4:]
    out = np.empty_like(vals) if out is None else out

    def plane(j):
        dst = out[:, :, :, j]
        ndimage.uniform_filter(vals[:, :, :, j], size=size, output=dst,
                               mode="nearest")
        np.maximum(dst, 0.0, out=dst)

    map_planes(plane, vals, 3, workers)
    return cost.replace_values(out)


def _affine(cost: CostTensor6D, pair, out: np.ndarray,
            workers: int) -> CostTensor6D:
    """``cost * scale + bias`` written into ``out`` (which may be the
    buffer ``cost`` views), or ``cost`` itself for the identity pair."""
    scale, bias = pair
    if scale == 1.0 and bias == 0.0:
        return cost
    vals = cost.values

    def plane(k):
        np.multiply(vals[k], scale, out=out[k])
        out[k] += bias

    map_planes(plane, vals, 0, workers)
    return cost.replace_values(out)


def regularize(cost: CostTensor6D, p: RegularizerParams,
               workers: int = None) -> CostTensor6D:
    """Alternate scale/bias + min-convolution with scale/bias + mean-field
    averaging for ``p.iterations`` rounds, then apply the output pair.
    ``workers`` caps the threads of each block (default: the usable
    cores); the result does not depend on it.  Every step after the first
    read of ``cost`` works in place in one buffer of the tensor's size;
    ``cost`` itself is never written."""
    buf = np.empty_like(cost.values)
    out = cost
    for it in range(p.iterations):
        base = min(2 * it, 2)
        out = min_convolution(_affine(out, p.alphas[base], buf, workers), p,
                              workers, out=buf)
        out = mean_field_step(_affine(out, p.alphas[base + 1], buf, workers),
                              p, workers, out=buf)
    return _affine(out, p.alphas[4], buf, workers)


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
    return cost.replace_values(out)
