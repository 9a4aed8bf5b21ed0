"""Volumes, normalized coordinates, interpolation and box means.

Spatial positions are continuous coordinates in (-1, +1) per axis.  A grid
with ``n`` cells along an axis places cell centers at ``2*(i+0.5)/n - 1``,
so the mapping between integer indices and normalized coordinates is an
affine bijection shared by image volumes, feature grids, control grids and
full-resolution displacement fields; an array's shape is its grid.

Sampling outside (-1, 1) clamps to the border value: large displacements
near the volume edge degrade gracefully instead of reading zeros.

The validated array types (:class:`Volume3D`, :class:`DisplacementField`,
and the feature, cost and probability tensors of the other modules) share
one contract.  A container takes the array it is given, converted only
when its dtype or layout differs, and never copies it; once the array is
validated, :func:`_freeze` makes it read-only, so nothing writes it
afterwards; only the pipeline hands the array of a 6D tensor it built
on to the next stage to write (:mod:`densereg.pipeline`).  Non-finite
data raises :class:`ArithmeticError` (a numerical failure); shape,
sign, range and normalization violations raise :class:`ValueError`.
"""

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Volume3D",
    "DisplacementSpace",
    "DisplacementField",
    "index_to_normalized",
    "normalized_to_index",
    "axis_centers",
    "lerp_plan",
    "lerp_axis",
    "lerp_axis_into",
    "sample_separable",
    "running_mean",
    "sample_points_linear",
    "sample_points_nearest",
    "present_labels",
]


# ---------------------------------------------------------------------------
# Coordinate conventions
# ---------------------------------------------------------------------------

def index_to_normalized(i, n: int):
    """Normalized coordinate of cell center ``i`` on an axis with ``n`` cells."""
    return 2.0 * (np.asarray(i, dtype=np.float64) + 0.5) / n - 1.0


def normalized_to_index(x, n: int):
    """Fractional cell index of normalized coordinate ``x`` (inverse of
    :func:`index_to_normalized`)."""
    return (np.asarray(x, dtype=np.float64) + 1.0) * (n / 2.0) - 0.5


def axis_centers(n: int) -> np.ndarray:
    """Normalized coordinates of all cell centers along an axis."""
    return index_to_normalized(np.arange(n), n)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _freeze(arr: np.ndarray) -> np.ndarray:
    """Make ``arr`` itself read-only and return it: the container that
    validated it now owns it."""
    arr.flags.writeable = False
    return arr


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ArithmeticError(f"{what} must be finite")


def _is_int(value) -> bool:
    """Whether ``value`` is an integer and not a boolean."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _three_ints(value, what: str) -> tuple:
    """One positive int, standing for all three axes, or three of them, as
    a tuple of three ints; anything else raises :class:`ValueError`."""
    values = (value,) * 3 if np.ndim(value) == 0 else tuple(value)
    if len(values) != 3 or not all(_is_int(v) and v > 0 for v in values):
        raise ValueError(f"{what} must be one or three positive ints, got {value!r}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class Volume3D:
    """Scalar 3D image: ``data`` indexed ``[z, y, x]``-style as ``(D, H, W)``.

    Intensity volumes hold finite float64 data; label volumes hold
    non-negative integers and are sampled nearest-neighbor.
    """

    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)
    is_label: bool = False

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ValueError(f"volume data must be 3D, got shape {data.shape}")
        if any(s <= 0 for s in data.shape):
            raise ValueError(f"volume dimensions must be positive, got {data.shape}")
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 3 or not all(0.0 < s < np.inf for s in spacing):
            raise ValueError(f"spacing must be three positive finite values, "
                             f"got {self.spacing}")
        if self.is_label:
            if not np.issubdtype(data.dtype, np.integer):
                _require_finite(data, "volume data")
                if not np.all(data == np.round(data)):
                    raise ValueError("label volume requires integer values")
                data = data.astype(np.int32)
            if data.min(initial=0) < 0:
                raise ValueError("label volume requires non-negative values")
            data = np.ascontiguousarray(data)
        else:
            data = np.ascontiguousarray(data, dtype=np.float64)
            _require_finite(data, "volume data")
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple:
        return self.data.shape


@dataclass(frozen=True)
class DisplacementSpace:
    """Quantized displacement offsets ``L``: the cartesian product of
    ``q * linspace(-1, 1, steps)`` per axis.

    ``steps`` must be odd so the zero offset is in ``L``; the set is
    symmetric (``-d in L`` for every ``d``).  An axis with a single step
    contributes only the zero offset.
    """

    q: float = 0.4
    steps: tuple = (15, 15, 15)

    def __post_init__(self):
        q = float(self.q)
        if not (q > 0.0):
            raise ValueError(f"capture range q must be positive, got {q}")
        steps = _three_ints(self.steps, "steps")
        if any(s % 2 == 0 for s in steps):
            raise ValueError(f"steps must be odd per axis, got {steps}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "steps", steps)

    @property
    def num_offsets(self) -> int:
        return int(np.prod(self.steps))

    def axis_offsets(self, axis: int) -> np.ndarray:
        s = self.steps[axis]
        if s == 1:
            return np.zeros(1)
        return self.q * np.linspace(-1.0, 1.0, s)

    def spacing(self, axis: int) -> float:
        """Distance between adjacent offsets along an axis (0 for a single step)."""
        s = self.steps[axis]
        return 0.0 if s == 1 else 2.0 * self.q / (s - 1)


@dataclass(frozen=True)
class DisplacementField:
    """3-vector field in normalized units on a center-aligned grid.

    ``vectors`` has shape ``(G1, G2, G3, 3)``; the grid may be a control
    grid or the full image resolution, both share the center-aligned
    coordinate convention.
    """

    vectors: np.ndarray

    def __post_init__(self):
        vec = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if vec.ndim != 4 or vec.shape[-1] != 3:
            raise ValueError(f"field vectors must have shape (G1, G2, G3, 3), got {vec.shape}")
        _require_finite(vec, "field vectors")
        object.__setattr__(self, "vectors", _freeze(vec))

    @property
    def counts(self) -> tuple:
        return self.vectors.shape[:3]


# ---------------------------------------------------------------------------
# Interpolation primitives (fractional-index space)
# ---------------------------------------------------------------------------

def lerp_plan(n: int, t, ndim: int, axis: int) -> tuple:
    """Linear interpolation at fractional indices ``t`` (1D) along an
    axis of extent ``n``, clamped to the border: lower and upper neighbour
    indices and their weights ``(i0, i1, w0, w1)``, the weights shaped to
    broadcast over an ``ndim``-dimensional array along ``axis``.  On an
    extent-1 axis every sample is the one value and ``i1, w0, w1`` are
    ``None``."""
    t = np.clip(np.asarray(t, dtype=np.float64), 0.0, n - 1.0)
    if n == 1:
        return np.zeros(len(t), dtype=np.intp), None, None, None
    i0 = np.minimum(t.astype(np.intp), n - 2)
    shape = [1] * ndim
    shape[axis] = len(t)
    w = (t - i0).reshape(shape)
    return i0, i0 + 1, 1.0 - w, w


def lerp_axis(data: np.ndarray, t: np.ndarray, axis: int) -> np.ndarray:
    """Linear interpolation of ``data`` along ``axis`` at fractional indices
    ``t`` (1D), clamped to the border, as float64 in a new array.  The
    axis length becomes ``len(t)``."""
    data = np.asarray(data, dtype=np.float64)
    plan = lerp_plan(data.shape[axis], t, data.ndim, axis)
    shape = data.shape[:axis] + (len(plan[0]),) + data.shape[axis + 1:]
    return lerp_axis_into(data, plan, axis, np.empty(shape), np.empty(shape))


def lerp_axis_into(data: np.ndarray, plan: tuple, axis: int,
                   out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Linear interpolation of float64 ``data`` along ``axis`` by a
    :func:`lerp_plan`, written into ``out`` with ``work`` (same shape) as
    scratch and no other temporary.  A plan made once serves every array
    and block sampled at the same positions."""
    i0, i1, w0, w1 = plan
    np.take(data, i0, axis=axis, out=out, mode="clip")
    if w1 is not None:
        out *= w0
        np.take(data, i1, axis=axis, out=work, mode="clip")
        work *= w1
        out += work
    return out


def sample_separable(data: np.ndarray, fracs) -> np.ndarray:
    """Trilinear sampling of a 3D array on the outer-product grid of three
    1D fractional-index vectors.  Exploits separability of the trilinear
    interpolant; equivalent to pointwise sampling at every grid node.
    Trailing axes of ``data`` (a field's components) are carried along."""
    out = data
    for axis, t in enumerate(fracs):
        out = lerp_axis(out, t, axis)
    return out


def running_mean(src: np.ndarray, size: int, axis: int, out=None,
                 stride: int = 1) -> np.ndarray:
    """``ndimage.uniform_filter1d(src, size, axis, mode="nearest")`` read
    at positions ``stride // 2, stride // 2 + stride, ...`` along
    ``axis``, bit for bit.

    The running sum repeats ndimage's arithmetic on the edge-replicated
    line ``p`` (``p_i`` is slice ``i - size // 2``, the nearest one at
    either end): ``S_0 = ((0 + p_0) + p_1) + ... + p_(size-1)``, then
    ``S_l = S_(l-1) + d_l`` with ``d_l = p_(l+size-1) - p_(l-1)``, and
    ``out_l = S_l / size``.  Every numpy call takes whole slices, and
    the sums take as few calls as the case allows:

    * At ``stride`` 1, every ``d_l`` is taken in at most four slab
      subtractions into ``out``, the sums added up there slice by
      slice, and all of them divided in one pass.
    * Otherwise the sum walks one slice at a time, and only the kept
      positions are divided and stored, so a long strided line costs
      one subtract and one add per step.

    ``out`` (a new array when None) may not overlap ``src``.
    """
    n = src.shape[axis]
    r = size // 2
    keep = range(stride // 2, n, stride)
    if out is None:
        out = np.empty(src.shape[:axis] + (len(keep),) + src.shape[axis + 1:])
    elif np.may_share_memory(src, out):
        raise ValueError("running_mean: out overlaps src")
    if not keep:
        return out
    x = np.moveaxis(src, axis, 0)
    y = np.moveaxis(out, axis, 0)
    # Slices as arrays (0-d on a 1D line), never as numpy scalars.
    ys = [y[i, ...] for i in range(len(keep))]
    total = np.zeros(x.shape[1:])
    for i in range(size):
        total += x[min(max(i - r, 0), n - 1), ...]
    if stride == 1:
        np.copyto(ys[0], total)
        # d_l = x[min(l + r, n - 1)] - x[max(l - 1 - r, 0)] for l in
        # [lo, hi): each bound is either shifted or clamped on a slab.
        cuts = sorted({1, n} | {c for c in (r + 1, n - r) if 1 < c < n})
        for lo, hi in zip(cuts, cuts[1:]):
            new = x[lo + r:hi + r] if hi <= n - r else x[n - 1:]
            old = x[lo - 1 - r:hi - 1 - r] if lo > r else x[:1]
            np.subtract(new, old, out=y[lo:hi])
        for pos in range(1, n):
            np.add(ys[pos - 1], ys[pos], out=ys[pos])
        np.divide(out, size, out=out)
        return out
    step = np.empty_like(total)
    k = 0
    for pos in range(keep[-1] + 1):
        if pos:
            np.subtract(x[min(pos + r, n - 1), ...],
                        x[max(pos - 1 - r, 0), ...], out=step)
            total += step
        if pos == keep[k]:
            np.divide(total, size, out=ys[k])
            k += 1
    return out


def sample_points_linear(data: np.ndarray, fracs: np.ndarray) -> np.ndarray:
    """Trilinear sampling of a 3D array at arbitrary fractional-index
    points ``fracs`` of shape ``(..., 3)``, clamped to the border by
    :func:`lerp_plan`'s rule.  Axes of ``data`` after the first three (a
    vector field's components) are sampled together and trail the
    result; each is computed exactly as if it were sampled alone."""
    fracs = np.asarray(fracs, dtype=np.float64)
    shape = fracs.shape[:-1]
    corners = []
    for axis in range(3):
        plan = lerp_plan(data.shape[axis], fracs[..., axis].ravel(), 1, 0)
        i0, i1, w0, w1 = (a if a is None else a.reshape(shape) for a in plan)
        # An extent-1 axis has one corner, of weight 1.
        corners.append([(i0, w0), (i1, w1)] if i1 is not None
                       else [(i0, np.float64(1.0))])
    out = np.zeros(shape + data.shape[3:], dtype=np.float64)
    trail = (...,) + (None,) * (data.ndim - 3)
    for (i0, w0), (i1, w1), (i2, w2) in itertools.product(*corners):
        out += data[i0, i1, i2] * (w0 * w1 * w2)[trail]
    return out


def sample_points_nearest(data: np.ndarray, fracs: np.ndarray) -> np.ndarray:
    """Nearest-neighbor sampling at fractional-index points, clamped."""
    fracs = np.asarray(fracs, dtype=np.float64)
    idx = []
    for axis in range(3):
        n = data.shape[axis]
        i = np.rint(np.clip(fracs[..., axis], 0.0, n - 1.0)).astype(np.intp)
        idx.append(i)
    return data[tuple(idx)]


# ---------------------------------------------------------------------------
# Operations on volumes and fields
# ---------------------------------------------------------------------------

def present_labels(*volumes: Volume3D) -> np.ndarray:
    """Sorted label values that occur in at least one of the label
    volumes.  A histogram pass per volume is cheaper than sorting, but
    its bins span every value up to the largest label; when those
    outnumber the voxels, the volumes are sorted instead, so a sparse
    large ID (say 2**30) costs memory in proportion to the voxels."""
    top = max(int(vol.data.max()) for vol in volumes)
    if top + 1 > sum(vol.data.size for vol in volumes):
        each = [np.unique(vol.data) for vol in volumes]
        return np.unique(np.concatenate(each)).astype(np.intp)
    seen = np.zeros(top + 1, dtype=bool)
    for vol in volumes:
        seen |= np.bincount(vol.data.ravel(), minlength=top + 1) > 0
    return np.flatnonzero(seen)

