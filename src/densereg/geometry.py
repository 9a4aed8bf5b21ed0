"""Volumes, normalized coordinates and interpolation.

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
when its dtype or layout differs, and never copies it.  Each type has
one dtype (int labels keep theirs), except the 6D cost and probability
tensors, which store float32 as well as float64 and convert any other
dtype to float64; the pipeline's are float32.  Once the array is
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
    integers from 0 to 2**31 - 1 and are sampled nearest-neighbor.
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
            integral = np.issubdtype(data.dtype, np.integer)
            if not integral:
                _require_finite(data, "volume data")
                if not np.all(data == np.round(data)):
                    raise ValueError("label volume requires integer values")
            low, top = int(data.min(initial=0)), int(data.max(initial=0))
            if low < 0 or top > 2 ** 31 - 1:
                raise ValueError(f"label values must lie in 0 .. 2**31 - 1 = "
                                 f"{2 ** 31 - 1}, got {low} .. {top}")
            data = np.ascontiguousarray(data if integral
                                        else data.astype(np.int32))
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
        if not (np.isfinite(q) and q > 0.0):
            raise ValueError(f"capture range q must be finite and > 0, got {q}")
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
    extent-1 axis both neighbours are index 0 and the second corner has
    weight 0, so every sample is the one value, bit for bit."""
    t = np.clip(np.asarray(t, dtype=np.float64), 0.0, n - 1.0)
    i0 = np.minimum(t.astype(np.intp), max(n - 2, 0))
    shape = [1] * ndim
    shape[axis] = len(t)
    # A +0 weight, not the -0 of a clamped t = -0.0, keeps -0.0 data exact.
    w = (t - i0 if n > 1 else np.zeros(len(t))).reshape(shape)
    return i0, np.minimum(i0 + 1, n - 1), 1.0 - w, w


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
    """Linear interpolation of ``data`` along ``axis`` by a
    :func:`lerp_plan`, written into ``out`` with ``work`` (same shape) as
    scratch and no other temporary.  The arithmetic runs in the dtype of
    ``out``, ``work`` and the plan's weights: float64 for a plan as
    :func:`lerp_plan` makes it, float32 for float32 weights and
    buffers.  A plan made once serves every array and block sampled at
    the same positions; on an extent-1 axis, the second corner, of
    weight 0, adds ``x * 0.0`` to every value ``x``."""
    i0, i1, w0, w1 = plan
    np.take(data, i0, axis=axis, out=out, mode="clip")
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


def sample_points_linear(data: np.ndarray, fracs: np.ndarray) -> np.ndarray:
    """Trilinear sampling of a 3D array at arbitrary fractional-index
    points ``fracs`` of shape ``(..., 3)``, clamped to the border by
    :func:`lerp_plan`'s rule (an extent-1 axis's second corner, of weight
    0, adds ``±0`` to sums begun at ``+0``).  Axes of ``data`` after the
    first three (a vector field's components) are sampled together and
    trail the result; each is computed exactly as if it were sampled alone."""
    fracs = np.asarray(fracs, dtype=np.float64)
    shape = fracs.shape[:-1]
    corners = []
    for axis in range(3):
        plan = lerp_plan(data.shape[axis], fracs[..., axis].ravel(), 1, 0)
        i0, i1, w0, w1 = (a.reshape(shape) for a in plan)
        corners.append([(i0, w0), (i1, w1)])
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

