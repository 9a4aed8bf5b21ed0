"""Independent brute-force reference implementations.

Everything here is written as plain loops from the mathematical definition,
deliberately ignoring how the library computes the same quantity, so tests
can compare the two routes.  Slow on purpose; use tiny inputs.  The
exceptions are the exact envelopes of parabolas that the pooled
min-convolution is audited against: :func:`exact_lower_envelope`, the
linear-time algorithm, and :func:`lower_envelope_rows`, the quadratic
definition evaluated for all rows at once, which
:func:`lower_envelope_3d` runs.  Both are checked against
:func:`naive_lower_envelope`.
"""

import math
from dataclasses import replace

import numpy as np

from scipy import ndimage

from densereg.correlation import CostTensor6D
from densereg.features import SSC_PAIRS, FeatureVolume
from densereg.geometry import (DisplacementField, Volume3D, axis_centers,
                               index_to_normalized,
                               normalized_to_index, present_labels,
                               sample_points_linear, sample_points_nearest,
                               sample_separable)
from densereg.regularizer import DISP_KERNEL


def offset_grid(space):
    """All offsets of a displacement space as a ``(S1, S2, S3, 3)`` array
    in row-major order."""
    axes = [space.axis_offsets(a) for a in range(3)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def naive_trilinear(data, point_norm):
    """Trilinear interpolation at one normalized point, clamped borders.

    Direct 8-corner evaluation from the textbook formula.
    """
    dims = data.shape
    fracs = []
    for a in range(3):
        t = (point_norm[a] + 1.0) * (dims[a] / 2.0) - 0.5
        fracs.append(min(max(t, 0.0), dims[a] - 1.0))
    i0 = [min(int(math.floor(t)), dims[a] - 2) if dims[a] > 1 else 0
          for a, t in enumerate(fracs)]
    w = [fracs[a] - i0[a] if dims[a] > 1 else 0.0 for a in range(3)]
    val = 0.0
    for b0 in (0, 1):
        for b1 in (0, 1):
            for b2 in (0, 1):
                c = data[min(i0[0] + b0, dims[0] - 1),
                         min(i0[1] + b1, dims[1] - 1),
                         min(i0[2] + b2, dims[2] - 1)]
                weight = ((w[0] if b0 else 1 - w[0])
                          * (w[1] if b1 else 1 - w[1])
                          * (w[2] if b2 else 1 - w[2]))
                val += float(c) * weight
    return val


def naive_gradient(vectors, spacings):
    """Per-component spatial gradient by explicit stencils.

    Central differences in the interior, one-sided first-order at borders,
    per normalized coordinate (divide by the grid spacing).
    """
    g1, g2, g3 = vectors.shape[:3]
    out = np.zeros((g1, g2, g3, 3, 3))
    for c in range(3):
        f = vectors[..., c]
        for a in range(3):
            n = vectors.shape[a]
            h = spacings[a]
            for idx in np.ndindex(g1, g2, g3):
                i = idx[a]
                lo = list(idx)
                hi = list(idx)
                if i == 0:
                    hi[a] = 1
                    d = (f[tuple(hi)] - f[tuple(idx)]) / h
                elif i == n - 1:
                    lo[a] = n - 2
                    d = (f[tuple(idx)] - f[tuple(lo)]) / h
                else:
                    lo[a] = i - 1
                    hi[a] = i + 1
                    d = (f[tuple(hi)] - f[tuple(lo)]) / (2.0 * h)
                out[idx + (c, a)] = d
    return out


def clamped_shift(data, offset):
    """Integer shift with border replication: out[v] = data[clip(v + offset)]."""
    out = np.empty_like(data)
    dims = data.shape
    for idx in np.ndindex(*dims):
        src = tuple(min(max(idx[a] + offset[a], 0), dims[a] - 1) for a in range(3))
        out[idx] = data[src]
    return out


def naive_box_mean(data, radius):
    """Mean filter with window (2r+1)^3 and border replication, plain loops."""
    dims = data.shape
    out = np.zeros_like(data, dtype=np.float64)
    for idx in np.ndindex(*dims):
        acc = 0.0
        for d0 in range(-radius, radius + 1):
            for d1 in range(-radius, radius + 1):
                for d2 in range(-radius, radius + 1):
                    src = (min(max(idx[0] + d0, 0), dims[0] - 1),
                           min(max(idx[1] + d1, 0), dims[1] - 1),
                           min(max(idx[2] + d2, 0), dims[2] - 1))
                    acc += data[src]
        out[idx] = acc / (2 * radius + 1) ** 3
    return out


def ssc_pairs():
    """The 12 unordered pairs of distinct 6-neighborhood offsets lying on
    different axes, in a fixed canonical order."""
    offs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    pairs = []
    for i in range(len(offs)):
        for j in range(i + 1, len(offs)):
            axis_i = [k for k, v in enumerate(offs[i]) if v != 0][0]
            axis_j = [k for k, v in enumerate(offs[j]) if v != 0][0]
            if axis_i != axis_j:
                pairs.append((offs[i], offs[j]))
    return pairs


def naive_ssc(data, patch_radius):
    """Self-similarity context channels at full resolution, by loops.

    For each of the 12 neighbor pairs (a, b): the mean squared patch
    distance between border-clamped shifted copies, box-averaged with
    replication; sigma^2 is the local mean of the 12 distances; channel is
    exp(-dist / sigma^2), defined as 1.0 where sigma^2 == 0.
    """
    pairs = ssc_pairs()
    dists = []
    for na, nb in pairs:
        a = clamped_shift(data, na)
        b = clamped_shift(data, nb)
        dists.append(naive_box_mean((a - b) ** 2, patch_radius))
    dists = np.stack(dists, axis=0)
    sigma2 = dists.mean(axis=0)
    out = np.ones_like(dists)
    nz = sigma2 > 0
    for c in range(len(pairs)):
        out[c][nz] = np.exp(-dists[c][nz] / sigma2[nz])
    return out


def gaussian_kernel_1d(sigma, truncate=4.0):
    radius = int(truncate * sigma + 0.5)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def naive_gaussian_smooth(data, sigma, truncate=4.0):
    """Separable Gaussian smoothing with replicate borders, plain loops."""
    k = gaussian_kernel_1d(sigma, truncate)
    radius = (len(k) - 1) // 2
    out = data.astype(np.float64)
    for axis in range(3):
        src = out.copy()
        n = data.shape[axis]
        out = np.zeros_like(src)
        for idx in np.ndindex(*data.shape):
            acc = 0.0
            for o in range(-radius, radius + 1):
                j = list(idx)
                j[axis] = min(max(idx[axis] + o, 0), n - 1)
                acc += k[o + radius] * src[tuple(j)]
            out[idx] = acc
    return out


def naive_dissimilarity(feat_f, feat_m, origin_f, spacing_f, origin_m, spacing_m,
                        ctrl_coords, offsets):
    """Quadruple loop over (control point, displacement): mean squared
    feature difference, each channel sampled with naive_trilinear.

    feat_* have shape (C, G1, G2, G3); ctrl_coords is a list of three
    per-axis coordinate arrays; offsets likewise per axis.
    """
    c_count = feat_f.shape[0]
    k_shape = tuple(len(c) for c in ctrl_coords)
    s_shape = tuple(len(o) for o in offsets)
    out = np.zeros(k_shape + s_shape)
    for k0, x0 in enumerate(ctrl_coords[0]):
        for k1, x1 in enumerate(ctrl_coords[1]):
            for k2, x2 in enumerate(ctrl_coords[2]):
                for a, d0 in enumerate(offsets[0]):
                    for b, d1 in enumerate(offsets[1]):
                        for c, d2 in enumerate(offsets[2]):
                            acc = 0.0
                            for ch in range(c_count):
                                pf = [(x0 - origin_f[0]) / spacing_f[0],
                                      (x1 - origin_f[1]) / spacing_f[1],
                                      (x2 - origin_f[2]) / spacing_f[2]]
                                pm = [(x0 + d0 - origin_m[0]) / spacing_m[0],
                                      (x1 + d1 - origin_m[1]) / spacing_m[1],
                                      (x2 + d2 - origin_m[2]) / spacing_m[2]]
                                vf = naive_frac_trilinear(feat_f[ch], pf)
                                vm = naive_frac_trilinear(feat_m[ch], pm)
                                acc += (vf - vm) ** 2
                            out[(k0, k1, k2, a, b, c)] = acc / c_count
    return out


def naive_frac_trilinear(data, frac):
    """Trilinear interpolation at one fractional-index point, clamped."""
    dims = data.shape
    t = [min(max(frac[a], 0.0), dims[a] - 1.0) for a in range(3)]
    i0 = [min(int(math.floor(t[a])), dims[a] - 2) if dims[a] > 1 else 0 for a in range(3)]
    w = [t[a] - i0[a] if dims[a] > 1 else 0.0 for a in range(3)]
    val = 0.0
    for b0 in (0, 1):
        for b1 in (0, 1):
            for b2 in (0, 1):
                c = data[min(i0[0] + b0, dims[0] - 1),
                         min(i0[1] + b1, dims[1] - 1),
                         min(i0[2] + b2, dims[2] - 1)]
                weight = ((w[0] if b0 else 1 - w[0])
                          * (w[1] if b1 else 1 - w[1])
                          * (w[2] if b2 else 1 - w[2]))
                val += float(c) * weight
    return val


def _vol_fracs(vol, points):
    points = np.asarray(points, dtype=np.float64)
    fracs = np.empty_like(points)
    for axis in range(3):
        fracs[..., axis] = normalized_to_index(points[..., axis], vol.dims[axis])
    return fracs


def sample_volume(vol, points):
    """Sample a volume at normalized points of shape ``(..., 3)`` through
    the library samplers; trilinear for intensity volumes,
    nearest-neighbor for label volumes."""
    fracs = _vol_fracs(vol, points)
    if vol.is_label:
        return sample_points_nearest(vol.data, fracs)
    return sample_points_linear(vol.data, fracs)


def trilinear_sample(vol, p):
    """Trilinear interpolant of ``vol`` at one normalized point ``p``
    through the library sampler; coordinates outside (-1, 1) clamp to the
    border value."""
    fracs = _vol_fracs(vol, np.asarray(p, dtype=np.float64).reshape(1, 3))
    return float(sample_points_linear(vol.data, fracs)[0])


def sample_features_at(fvol, points):
    """Feature vectors at normalized points of shape ``(..., 3)``: each
    channel trilinearly interpolated on the feature grid through
    ``FeatureVolume.axis_fracs``, border clamped; shape ``(..., C)``."""
    points = np.asarray(points, dtype=np.float64)
    fracs = np.stack([fvol.axis_fracs(a, points[..., a]) for a in range(3)],
                     axis=-1)
    return np.stack([sample_points_linear(fvol.data[c], fracs)
                     for c in range(fvol.channels)], axis=-1)


def naive_min_pool(data, kernel, axes):
    """Min pool with stride 1 and replicate padding over selected axes,
    one axis at a time (box window), plain loops."""
    out = np.asarray(data, dtype=np.float64).copy()
    r = (kernel - 1) // 2
    for axis in axes:
        n = out.shape[axis]
        if n == 1:
            continue
        src = out.copy()
        moved = np.moveaxis(src, axis, 0)
        dst = np.moveaxis(out, axis, 0)
        for i in range(n):
            lo = [min(max(i + o, 0), n - 1) for o in range(-r, r + 1)]
            dst[i] = np.min([moved[j] for j in lo], axis=0)
    return out


def naive_avg_pool(data, kernel, axes):
    """Average pool with stride 1 and replicate padding over selected axes."""
    out = np.asarray(data, dtype=np.float64).copy()
    r = (kernel - 1) // 2
    for axis in axes:
        n = out.shape[axis]
        if n == 1:
            continue
        src = out.copy()
        moved = np.moveaxis(src, axis, 0)
        dst = np.moveaxis(out, axis, 0)
        for i in range(n):
            lo = [min(max(i + o, 0), n - 1) for o in range(-r, r + 1)]
            dst[i] = np.sum([moved[j] for j in lo], axis=0) / kernel
    return out


def naive_lower_envelope(costs, curvature):
    """O(S^2) lower envelope of parabolas: out[i] = min_j c[j] + a (i-j)^2."""
    n = len(costs)
    out = np.empty(n)
    for i in range(n):
        out[i] = min(costs[j] + curvature * (i - j) ** 2 for j in range(n))
    return out


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


def lower_envelope_rows(values, curvature: float, axis: int) -> np.ndarray:
    """:func:`naive_lower_envelope` of every row of ``values`` along
    ``axis`` at once: a broadcast minimum over ``j`` of
    ``values[..., j] + curvature * (i - j)^2``, with the same arithmetic
    per term, so +inf entries contribute no parabola."""
    f = np.moveaxis(np.asarray(values, dtype=np.float64), axis, -1)
    idx = np.arange(f.shape[-1], dtype=np.float64)
    penalty = curvature * np.subtract.outer(idx, idx) ** 2   # [i, j]
    out = np.min(f[..., None, :] + penalty, axis=-1)
    return np.moveaxis(out, -1, axis)


def lower_envelope_3d(cost: CostTensor6D, curvature: float) -> CostTensor6D:
    """Separable 3D lower envelope over the displacement dimensions.

    The squared displacement metric separates per axis, so three 1D passes
    compute the exact 3D envelope.
    """
    out = cost.values
    for axis in (3, 4, 5):
        if out.shape[axis] > 1:
            out = lower_envelope_rows(out, curvature, axis)
    return replace(cost, values=out)


def naive_softmax_rows(cost6, temperature):
    """Row-wise softmax of negated costs over the displacement dims."""
    k1, k2, k3 = cost6.shape[:3]
    out = np.empty_like(cost6)
    for idx in np.ndindex(k1, k2, k3):
        row = -temperature * cost6[idx]
        row = row - row.max()
        e = np.exp(row)
        out[idx] = e / e.sum()
    return out


def naive_dice(a, b, label):
    na = int(np.count_nonzero(a == label))
    nb = int(np.count_nonzero(b == label))
    if na + nb == 0:
        return float("nan")
    inter = int(np.count_nonzero((a == label) & (b == label)))
    return 2.0 * inter / (na + nb)


def naive_jacobian(vectors):
    """Jacobian determinant per interior voxel, central differences.

    Displacements convert from normalized to voxel units (u_vox = phi * n/2
    per axis); derivatives are taken per voxel index.
    """
    dims = vectors.shape[:3]
    u = np.empty_like(vectors)
    for c in range(3):
        u[..., c] = vectors[..., c] * (dims[c] / 2.0)
    dets = []
    for i in range(1, dims[0] - 1):
        for j in range(1, dims[1] - 1):
            for k in range(1, dims[2] - 1):
                jmat = np.eye(3)
                for c in range(3):
                    jmat[c, 0] += (u[i + 1, j, k, c] - u[i - 1, j, k, c]) / 2.0
                    jmat[c, 1] += (u[i, j + 1, k, c] - u[i, j - 1, k, c]) / 2.0
                    jmat[c, 2] += (u[i, j, k + 1, c] - u[i, j, k - 1, c]) / 2.0
                dets.append(np.linalg.det(jmat))
    return np.array(dets)


def lu_jacobian_stats(field):
    """:func:`densereg.metrics.jacobian_stats` from one whole-volume
    ``(D-2, H-2, W-2, 3, 3)`` Jacobian array and an LU determinant per
    voxel (``np.linalg.det``) instead of slabs and the cofactor formula."""
    counts = field.counts
    u = np.empty(field.vectors.shape)
    for c in range(3):
        u[..., c] = field.vectors[..., c] * (counts[c] / 2.0)
    jac = np.empty(tuple(c - 2 for c in counts) + (3, 3))
    for c in range(3):
        comp = u[..., c]
        for a in range(3):
            hi = [slice(1, -1)] * 3
            lo = [slice(1, -1)] * 3
            hi[a] = slice(2, None)
            lo[a] = slice(0, -2)
            d = (comp[tuple(hi)] - comp[tuple(lo)]) / 2.0
            jac[..., c, a] = d + (1.0 if c == a else 0.0)
    dets = np.linalg.det(jac)
    std = float(dets.std())
    folding = float(np.count_nonzero(dets <= 0.0)) / dets.size
    return std, folding


def full_range_label_loss(prob, labels_moving, labels_fixed, num_classes):
    """Probability-weighted label loss over every class id in
    ``range(num_classes)``, evaluated on the whole 6D tensor at once and
    averaged over the ids that occur in either volume.

    Unlike the rest of this module it repeats the library's arithmetic
    step for step (same sampling, same reduction axes and order), so the
    library's plane-by-plane evaluation, which skips absent classes, must
    agree with it bit for bit.
    """
    counts, space = prob.counts, prob.space
    ctrl = [axis_centers(n) for n in counts]
    k1, k2, k3 = counts
    s1, s2, s3 = space.steps
    m_fracs = [normalized_to_index(np.add.outer(ctrl[a], space.axis_offsets(a)).ravel(),
                                   labels_moving.dims[a]) for a in range(3)]
    f_fracs = [normalized_to_index(np.asarray(ctrl[a]), labels_fixed.dims[a])
               for a in range(3)]
    loss = 0.0
    present = 0
    for cls in range(num_classes):
        present += bool(np.any(labels_moving.data == cls)
                        or np.any(labels_fixed.data == cls))
        onehot = (labels_moving.data == cls).astype(np.float64)
        sampled = sample_separable(onehot, m_fracs)
        sampled = sampled.reshape(k1, s1, k2, s2, k3, s3).transpose(0, 2, 4, 1, 3, 5)
        expect = np.sum(prob.values * sampled, axis=(3, 4, 5))
        target = sample_separable((labels_fixed.data == cls).astype(np.float64),
                                  f_fracs)
        diff = expect - target
        loss += float(np.sum(diff * diff))
    return loss / (int(np.prod(counts)) * present)


def full_resolution_ssc(vol, patch_radius=1, stride=3):
    """SSC descriptors computed on every voxel, then subsampled.

    Like the label-loss oracles above, this repeats the library's
    arithmetic (same box filter, clamp, mean and exponential), but over
    the whole volume at once, so the library's strided, per-channel
    evaluation must agree with it bit for bit.
    """
    data = vol.data
    dims = vol.dims
    dists = np.empty((12,) + dims)
    for j, (na, nb) in enumerate(SSC_PAIRS):
        diff2 = (clamped_take(data, na) - clamped_take(data, nb)) ** 2
        if patch_radius == 0:
            dists[j] = diff2
        else:
            dists[j] = ndimage.uniform_filter(diff2, size=2 * patch_radius + 1,
                                              mode="nearest")
    np.maximum(dists, 0.0, out=dists)
    sigma2 = dists.mean(axis=0)
    safe = np.where(sigma2 > 0, sigma2, 1.0)
    chans = np.where(sigma2 > 0, np.exp(-dists / safe), 1.0)
    # Keep the center voxel of every stride-block.
    off = stride // 2
    sub = chans[:, off::stride, off::stride, off::stride]
    origin = tuple(float(index_to_normalized(off, n)) for n in dims)
    step = tuple(2.0 * stride / n for n in dims)
    return FeatureVolume(sub, origin, step)


def clamped_take(data, offset):
    """Vectorized :func:`clamped_shift`: one ``np.take`` per shifted axis."""
    out = data
    for axis, o in enumerate(offset):
        if o:
            idx = np.clip(np.arange(data.shape[axis]) + o, 0, data.shape[axis] - 1)
            out = np.take(out, idx, axis=axis)
    return out


def whole_volume_warp(vol, field):
    """Warp through one whole-volume coordinate array: the same per-voxel
    arithmetic as the library's slab-by-slab warp, in a single pass."""
    dims = vol.dims
    fracs = np.empty(dims + (3,))
    for a in range(3):
        shape = [1, 1, 1]
        shape[a] = dims[a]
        base = np.arange(dims[a], dtype=np.float64).reshape(shape)
        fracs[..., a] = base + field.vectors[..., a] * (dims[a] / 2.0)
    if vol.is_label:
        data = sample_points_nearest(vol.data, fracs)
    else:
        data = sample_points_linear(vol.data, fracs)
    return Volume3D(data, spacing=vol.spacing, is_label=vol.is_label)


def whole_volume_inverse_field(truth, iterations=40, tol=1e-12):
    """The phantom generator's fixed-point inverse field with whole-volume
    coordinate arrays and one sampling pass per component: the same
    per-voxel arithmetic and stopping rule as the library's slab-by-slab
    iteration, in single passes."""
    dims = truth.vectors.shape[:3]
    grids = np.meshgrid(*[axis_centers(n) for n in dims], indexing="ij")
    y = np.stack(grids, axis=-1)
    psi = -truth.vectors
    for _ in range(iterations):
        pts = y + psi
        fracs = np.stack(
            [normalized_to_index(pts[..., a], dims[a]) for a in range(3)],
            axis=-1)
        new = -np.stack(
            [sample_points_linear(truth.vectors[..., a], fracs)
             for a in range(3)],
            axis=-1)
        delta = float(np.abs(new - psi).max())
        psi = new
        if delta < tol:
            break
    return DisplacementField(psi)


# ---------------------------------------------------------------------------
# Whole-plane 6D tensor stages.  Like the oracles above they repeat the
# library's per-element arithmetic, but on whole planes with fresh
# temporaries, ndimage's minimum filter and an out-of-place scale, so the
# library's cache-blocked, in-place evaluation must agree bit for bit.
# ---------------------------------------------------------------------------

def planewise_dissimilarity(fixed, moving, counts, space):
    """Cost tensor values, one control plane at a time: every channel is
    sampled for the whole plane and subtracted through a strided
    transpose, accumulating into a zeroed plane."""
    ctrl = [axis_centers(n) for n in counts]
    f_fracs = [fixed.axis_fracs(a, ctrl[a]) for a in range(3)]
    m_fracs = [moving.axis_fracs(a, np.add.outer(ctrl[a], space.axis_offsets(a)).ravel())
               for a in range(3)]
    k1s, k2, k3 = counts
    s1, s2, s3 = space.steps
    f_at_k = [sample_separable(fixed.data[c], f_fracs)
              for c in range(fixed.channels)]
    out = np.zeros(counts + space.steps)
    for k1 in range(k1s):
        acc = out[k1]
        fracs = [m_fracs[0][k1 * s1:(k1 + 1) * s1], m_fracs[1], m_fracs[2]]
        for c in range(fixed.channels):
            m_at_kd = sample_separable(moving.data[c], fracs)
            m_at_kd = m_at_kd.reshape(s1, k2, s2, k3, s3).transpose(1, 3, 0, 2, 4)
            diff = f_at_k[c][k1, :, :, None, None, None] - m_at_kd
            acc += diff * diff
        acc /= fixed.channels
        np.maximum(acc, 0.0, out=acc)
    return out


def planewise_label_loss(prob, labels_moving, labels_fixed):
    """Probability-weighted label loss over the labels present, with the
    expectation of each class taken one whole control plane at a time."""
    counts, space = prob.counts, prob.space
    ctrl = [axis_centers(n) for n in counts]
    k1s, k2, k3 = counts
    s1, s2, s3 = space.steps
    p = prob.values
    m_fracs = [normalized_to_index(np.add.outer(ctrl[a], space.axis_offsets(a)).ravel(),
                                   labels_moving.dims[a]) for a in range(3)]
    f_fracs = [normalized_to_index(np.asarray(ctrl[a]), labels_fixed.dims[a])
               for a in range(3)]
    expect = np.empty(counts)
    labels = present_labels(labels_moving, labels_fixed)
    loss = 0.0
    for cls in labels:
        onehot = (labels_moving.data == cls).astype(np.float64)
        for k1 in range(k1s):
            fracs = [m_fracs[0][k1 * s1:(k1 + 1) * s1], m_fracs[1], m_fracs[2]]
            sampled = sample_separable(onehot, fracs)
            sampled = sampled.reshape(s1, k2, s2, k3, s3).transpose(1, 3, 0, 2, 4)
            expect[k1] = np.sum(p[k1] * sampled, axis=(2, 3, 4))
        target = sample_separable((labels_fixed.data == cls).astype(np.float64),
                                  f_fracs)
        diff = expect - target
        loss += float(np.sum(diff * diff))
    return loss / (int(np.prod(counts)) * len(labels))


def pool_window(n, kernel):
    """Width of a ``kernel``-wide pool on an axis of extent ``n``: the
    widest odd window that fits, so an extent-1 axis is not pooled."""
    return min(kernel, n - 1 + n % 2)


def filter_min_convolution(vals):
    """Min-convolution values: ``ndimage.minimum_filter`` then two
    uniform filters per control plane, into a fresh tensor."""
    size = (1, 1) + tuple(pool_window(n, DISP_KERNEL)
                          for n in vals.shape[3:])
    out = np.empty_like(vals)
    for k in range(vals.shape[0]):
        dst = out[k]
        scratch = np.empty_like(dst)
        ndimage.minimum_filter(vals[k], size=size, output=dst, mode="nearest")
        ndimage.uniform_filter(dst, size=size, output=scratch, mode="nearest")
        ndimage.uniform_filter(scratch, size=size, output=dst, mode="nearest")
        np.maximum(dst, 0.0, out=dst)
    return out


def filter_mean_field(vals, p):
    """Mean-field values: one uniform filter per displacement plane, into
    a fresh tensor."""
    size = tuple(pool_window(n, p.spatial_kernel) for n in vals.shape[:3])
    size += (1, 1)
    out = np.empty_like(vals)
    for j in range(vals.shape[3]):
        dst = out[:, :, :, j]
        ndimage.uniform_filter(vals[:, :, :, j], size=size, output=dst,
                               mode="nearest")
        np.maximum(dst, 0.0, out=dst)
    return out


def out_of_place_regularize(vals, p):
    """:func:`densereg.regularizer.regularize` values with a new tensor
    for every block and for the output scale."""
    out = vals
    for _ in range(p.iterations):
        out = filter_mean_field(filter_min_convolution(out), p)
    return out * p.output_scale
