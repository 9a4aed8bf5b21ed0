"""Feature extraction: SSC descriptors and the intensity-gradient baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from densereg.features import (
    SSC_PAIRS,
    extract_intensity_gradient,
    extract_ssc,
)
from densereg.geometry import Volume3D, index_to_normalized, running_mean
from oracles import (naive_gaussian_smooth, naive_ssc, sample_features_at,
                     trilinear_sample)


def test_pair_table_is_canonical():
    # 12 unordered pairs of 6-neighborhood offsets on different axes.
    assert len(SSC_PAIRS) == 12
    assert len(set(SSC_PAIRS)) == 12
    for a, b in SSC_PAIRS:
        assert np.argmax(np.abs(a)) != np.argmax(np.abs(b))


class TestSSC:
    def test_constant_volume_is_all_ones(self):
        # Zero patch distances and zero sigma^2: defined as value 1.0.
        vol = Volume3D(np.full((7, 7, 7), 3.0))
        f = extract_ssc(vol, patch_radius=1, stride=1)
        assert np.all(f.data == 1.0)

    def test_global_intensity_shift_invariance(self):
        rng = np.random.default_rng(21)
        base = rng.normal(size=(8, 8, 8))
        fa = extract_ssc(Volume3D(base), stride=1)
        fb = extract_ssc(Volume3D(base + 100.0), stride=1)
        assert np.allclose(fa.data, fb.data, atol=1e-6)

    def test_range(self):
        rng = np.random.default_rng(22)
        vol = Volume3D(rng.normal(size=(9, 9, 9)))
        f = extract_ssc(vol, stride=1)
        assert f.data.min() >= 0.0
        assert f.data.max() <= 1.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(23)
        data = rng.normal(size=(9, 9, 9))
        f = extract_ssc(Volume3D(data), patch_radius=1, stride=1)
        ref = naive_ssc(data, patch_radius=1)
        assert f.data.shape == ref.shape
        assert np.allclose(f.data, ref, atol=1e-5)

    def test_too_small_volume_rejected(self):
        with pytest.raises(ValueError):
            extract_ssc(Volume3D(np.zeros((4, 9, 9))), patch_radius=1)

    def test_stride_grid_geometry(self):
        vol = Volume3D(np.zeros((9, 9, 9)))
        f = extract_ssc(vol, stride=3)
        assert f.data.shape[1:] == (3, 3, 3)
        # Cell 0 sits at the center voxel of the first stride block.
        assert f.origin[0] == pytest.approx(index_to_normalized(1, 9))
        assert f.step[0] == pytest.approx(2.0 * 3 / 9)
        assert np.allclose(f.origin[0] + f.step[0] * np.arange(3),
                           [index_to_normalized(i, 9) for i in (1, 4, 7)])

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        data = rng.normal(size=(9, 9, 9))
        a = extract_ssc(Volume3D(data))
        b = extract_ssc(Volume3D(data.copy()))
        assert a.data.tobytes() == b.data.tobytes()


class TestRunningMean:
    """The running sum that replaces ``ndimage.uniform_filter1d`` in SSC
    and in the regularizer's average pools gives ndimage's bytes at every
    kept position, on any view of the data: its sliding-sum residues
    (the tiny negatives ``extract_ssc`` and the regularizer clamp)
    included.  It never overwrites its input."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**16), size=st.sampled_from((1, 3, 5, 7)),
           axis=st.integers(0, 2), stride=st.integers(1, 4),
           dims=st.tuples(*[st.integers(1, 17)] * 3),
           layout=st.sampled_from(("contiguous", "transposed", "strided")),
           in_place=st.booleans(),
           scale=st.sampled_from((1e-300, 1e-6, 1.0, 1e6, 1e300)),
           constant_run=st.booleans())
    def test_equals_uniform_filter1d(self, seed, size, axis, stride, dims,
                                     layout, in_place, scale, constant_run):
        rng = np.random.default_rng(seed)
        if layout == "transposed":
            x = rng.normal(size=dims[::-1]).transpose(2, 1, 0)
        elif layout == "strided":
            x = rng.normal(size=(2 * dims[0], dims[1], 3 * dims[2]))
            x = x[1::2, :, ::3]
        else:
            x = rng.normal(size=dims)
        # Squared differences, as extract_ssc filters them.
        x *= x * scale
        if constant_run:
            # Zeros after varying values: the sliding sum leaves residues
            # there, often negative, instead of exact zeros.
            x[(slice(None),) * axis + (slice(dims[axis] // 2, None),)] = 0.0
        want = ndimage.uniform_filter1d(x, size, axis=axis, mode="nearest")
        want = want[(slice(None),) * axis + (slice(stride // 2, None, stride),)]
        if in_place:
            # An output that overlaps the input is refused, whatever the
            # stride.
            with pytest.raises(ValueError, match="overlaps"):
                running_mean(x, size, axis, out=x, stride=stride)
            return
        got = running_mean(x, size, axis, stride=stride)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


class TestIntensityGradient:
    def test_constant_volume(self):
        f = extract_intensity_gradient(Volume3D(np.full((6, 6, 6), 5.0)), stride=1)
        assert f.channels == 4
        assert np.all(f.data == 0.0)

    def test_linear_ramp(self):
        idx = np.arange(8, dtype=np.float64)
        data = np.broadcast_to(idx[None, None, :], (8, 8, 8)).copy()
        f = extract_intensity_gradient(Volume3D(data), stride=1)
        # Ramp along the last axis: that gradient channel is 1 everywhere,
        # the other two are 0.
        assert np.allclose(f.data[3], 1.0)
        assert np.allclose(f.data[1], 0.0)
        assert np.allclose(f.data[2], 0.0)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(6, 5, 6))
        f = extract_intensity_gradient(Volume3D(data), smooth_sigma=0.8, stride=1)
        smooth = naive_gaussian_smooth(data, 0.8)
        ch0 = (smooth - smooth.mean()) / smooth.std()
        assert np.allclose(f.data[0], ch0, atol=1e-5)
        # Interior central differences, one-sided borders, per voxel step.
        grad_ref = np.zeros_like(data)
        grad_ref[1:-1] = (data[2:] - data[:-2]) / 2.0
        grad_ref[0] = data[1] - data[0]
        grad_ref[-1] = data[-1] - data[-2]
        assert np.allclose(f.data[1], grad_ref, atol=1e-12)


class TestSampling:
    def test_grid_centers_reproduce_stored_vectors(self):
        rng = np.random.default_rng(41)
        vol = Volume3D(rng.normal(size=(9, 9, 9)))
        f = extract_ssc(vol, stride=3)
        axes = [f.origin[a] + f.step[a] * np.arange(3) for a in range(3)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        vals = sample_features_at(f, pts)
        assert vals.shape == (3, 3, 3, 12)
        assert np.allclose(np.moveaxis(vals, -1, 0), f.data, atol=1e-12)

    def test_purity(self):
        rng = np.random.default_rng(42)
        vol = Volume3D(rng.normal(size=(9, 9, 9)))
        f = extract_ssc(vol)
        pts = rng.uniform(-1, 1, size=(20, 3))
        assert np.array_equal(sample_features_at(f, pts),
                              sample_features_at(f, pts.copy()))

    def test_off_grid_matches_per_channel_trilinear(self):
        rng = np.random.default_rng(43)
        vol = Volume3D(rng.normal(size=(9, 9, 9)))
        f = extract_ssc(vol, stride=3)
        p = np.array([0.17, -0.52, 0.88])
        got = sample_features_at(f, p)
        for c in range(f.channels):
            # Each channel is its own little volume in the feature frame.
            chan_vol = Volume3D(f.data[c])
            # Map the point into that frame: cell centers of a 3-cell axis
            # sit at -2/3, 0, +2/3 in the channel volume's own coordinates.
            frac = np.array([f.axis_fracs(a, p[a]) for a in range(3)])
            q = index_to_normalized(frac, 3)
            assert got[c] == pytest.approx(trilinear_sample(chan_vol, q), abs=1e-12)
