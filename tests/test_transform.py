"""Probability extraction, field upsampling, warping, and loss terms."""

import numpy as np
import pytest

from densereg.correlation import CostTensor6D
from densereg.geometry import (
    DisplacementField,
    DisplacementSpace,
    Volume3D,
    axis_centers,
    normalized_to_index,
    sample_separable,
)
from densereg.transform import (
    ProbTensor6D,
    RegistrationConfig,
    expected_displacement,
    nonlocal_label_loss,
    softmax_probabilities,
    upsample_field,
    warp,
)
from densereg.pipeline import _hand_over
from densereg.refine import field_energy
from densereg.regularizer import RegularizerParams, mean_field_step
from hypothesis import example, given, settings, strategies as st

from densereg import parallel, transform
from oracles import (full_range_label_loss, naive_frac_trilinear,
                     naive_gradient, naive_softmax_rows, offset_grid,
                     planewise_label_loss, whole_volume_warp)


def cost_tensor(steps, values, q=0.4):
    return CostTensor6D(values, DisplacementSpace(q, steps))


class TestSoftmax:
    def test_uniform_cost_gives_uniform_distribution(self):
        t = cost_tensor((15, 15, 15), np.full((2, 2, 2, 15, 15, 15), 3.0))
        p = softmax_probabilities(t, 1.0)
        assert np.allclose(p.values, 1.0 / 3375.0, atol=1e-12)

    def test_degenerate_softmax(self):
        vals = np.full((1, 1, 1, 5, 5, 5), 1e6)
        vals[0, 0, 0, 2, 2, 2] = 0.0
        p = softmax_probabilities(cost_tensor((5, 5, 5), vals), 1.0)
        assert p.values[0, 0, 0, 2, 2, 2] == pytest.approx(1.0, abs=1e-12)

    def test_three_bin_row(self):
        vals = np.array([0.0, 1.0, 2.0]).reshape(1, 1, 1, 3, 1, 1)
        p = softmax_probabilities(cost_tensor((3, 1, 1), vals), 1.0)
        got = p.values.ravel()
        assert got == pytest.approx([0.6652, 0.2447, 0.0900], abs=5e-5)

    def test_normalization_on_random_tensors(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            vals = rng.uniform(0.0, 50.0, size=(3, 2, 3, 5, 5, 5))
            p = softmax_probabilities(cost_tensor((5, 5, 5), vals), 7.0)
            sums = p.values.sum(axis=(3, 4, 5))
            assert np.allclose(sums, 1.0, atol=1e-5)
            assert p.values.min() >= 0.0
            assert p.values.max() <= 1.0

    def test_float32_points_sum_to_one_within_their_rounding(self):
        """Float32 costs give float32 probabilities, and each point's sum
        is accumulated in float64.  On these near-flat distributions over
        15^3 offsets the stored values' rounding errors largely cancel:
        their sums are within 0.01 float32 epsilons of 1, against about
        0.8 with a float32 sum, so the bound is a sixteenth."""
        rng = np.random.default_rng(82)
        vals = rng.uniform(0.0, 2.0, size=(4, 4, 4, 15, 15, 15))
        t = cost_tensor((15, 15, 15), vals.astype(np.float32))
        p = softmax_probabilities(t, 1.0).values
        assert p.dtype == np.float32
        sums = p.sum(axis=(3, 4, 5), dtype=np.float64)
        assert np.abs(sums - 1.0).max() <= np.finfo(np.float32).eps / 16

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16),
           counts=st.tuples(*[st.integers(1, 3)] * 3),
           steps=st.tuples(*[st.sampled_from((1, 3, 5))] * 3),
           spread=st.sampled_from((2.0, 50.0)),
           bias=st.sampled_from((10.0, 1e4)),
           temperature=st.sampled_from((0.5, 3.0, 40.0)))
    @example(seed=82, counts=(2, 2, 2), steps=(5, 5, 5), spread=2.0,
             bias=10.0, temperature=3.0)
    def test_per_point_bias_invariance(self, seed, counts, steps, spread,
                                       bias, temperature):
        # Adding a constant to every offset's cost of one control point
        # leaves that point's distribution unchanged.
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.0, spread, size=counts + steps)
        shifted = vals + rng.uniform(0.0, bias, size=counts + (1, 1, 1))
        pa = softmax_probabilities(cost_tensor(steps, vals), temperature)
        pb = softmax_probabilities(cost_tensor(steps, shifted),
                                   temperature)
        assert np.allclose(pa.values, pb.values, atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16),
           counts=st.tuples(*[st.integers(1, 3)] * 3),
           steps=st.tuples(*[st.sampled_from((1, 3, 5))] * 3),
           spread=st.sampled_from((1.0, 10.0)),
           temperature=st.floats(0.05, 50.0),
           dtype=st.sampled_from((np.float64, np.float32)),
           handed_over=st.booleans(),
           workers=st.sampled_from((1, 2)))
    def test_matches_the_row_oracle(self, seed, counts, steps, spread,
                                    temperature, dtype, handed_over,
                                    workers):
        """Every probability against :func:`naive_softmax_rows`, in
        float64 on the same costs, for a read-only tensor and a handed-over
        one, threaded or not.  Float64 agrees to 1e-12 relative.  Float32
        rounds the scaled cost ``z`` to about ``|z|`` epsilons, which
        ``exp`` turns into a relative error, so its bound is 8 epsilons
        times ``1 + T * max cost``, plus the smallest normal float32 for a
        value that underflows."""
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.0, spread, size=counts + steps).astype(dtype)
        want = naive_softmax_rows(vals.astype(np.float64), temperature)
        t = cost_tensor(steps, vals.copy())
        if handed_over:
            _hand_over(t)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "MIN_THREADED_PLANE_BYTES", 0)
            got = softmax_probabilities(t, temperature, workers=workers).values
        assert got.dtype == dtype
        if not handed_over:
            assert t.values.tobytes() == vals.tobytes()
        if dtype == np.float64:
            rtol, atol = 1e-12, 0.0
        else:
            f32 = np.finfo(np.float32)
            rtol, atol = 8 * f32.eps * (1.0 + temperature * spread), f32.tiny
        assert np.all(np.abs(got - want) <= rtol * want + atol)

    def test_huge_costs_stay_finite(self):
        vals = np.full((1, 1, 1, 3, 3, 3), 1e12)
        vals[0, 0, 0, 1, 1, 1] = 0.0
        p = softmax_probabilities(cost_tensor((3, 3, 3), vals), 100.0)
        assert np.all(np.isfinite(p.values))

    def test_temperature_sharpens(self):
        # Higher temperature scale concentrates each distribution.
        rng = np.random.default_rng(83)
        vals = rng.uniform(0.0, 1.0, size=(2, 2, 2, 5, 5, 5))
        t = cost_tensor((5, 5, 5), vals)

        def entropy(p):
            v = p.values.reshape(-1, 125)
            with np.errstate(divide="ignore", invalid="ignore"):
                lg = np.where(v > 0, np.log(v), 0.0)
            return -(v * lg).sum(axis=1)

        h1 = entropy(softmax_probabilities(t, 1.0))
        h2 = entropy(softmax_probabilities(t, 4.0))
        h3 = entropy(softmax_probabilities(t, 16.0))
        assert np.all(h2 < h1)
        assert np.all(h3 < h2)

    def test_temperature_must_be_positive(self):
        t = cost_tensor((3, 3, 3), np.zeros((1, 1, 1, 3, 3, 3)))
        with pytest.raises(ValueError):
            softmax_probabilities(t, 0.0)


class TestProbTensorValidation:
    def test_rejects_unnormalized(self):
        vals = np.full((1, 1, 1, 3, 1, 1), 0.5)
        with pytest.raises(ValueError):
            ProbTensor6D(vals, DisplacementSpace(0.4, (3, 1, 1)))

    def test_rejects_out_of_range(self):
        vals = np.zeros((1, 1, 1, 3, 1, 1))
        vals[0, 0, 0, 0, 0, 0] = 1.5
        vals[0, 0, 0, 1, 0, 0] = -0.5
        with pytest.raises(ValueError):
            ProbTensor6D(vals, DisplacementSpace(0.4, (3, 1, 1)))


class TestExpectedDisplacement:
    def test_symmetric_probability_gives_zero(self):
        space = DisplacementSpace(0.4, (5, 5, 5))
        rng = np.random.default_rng(84)
        half = rng.uniform(0.1, 1.0, size=(1, 1, 1, 5, 5, 5))
        sym = half + half[:, :, :, ::-1, ::-1, ::-1]
        sym /= sym.sum(axis=(3, 4, 5), keepdims=True)
        prob = ProbTensor6D(sym, space)
        phi = expected_displacement(prob)
        assert np.allclose(phi.vectors, 0.0, atol=1e-12)

    def test_delta_probability_recovers_offset(self):
        space = DisplacementSpace(0.4, (5, 5, 5))
        vals = np.zeros((1, 1, 1, 5, 5, 5))
        vals[0, 0, 0, 4, 2, 1] = 1.0
        prob = ProbTensor6D(vals, space)
        phi = expected_displacement(prob)
        offs = offset_grid(space)
        assert np.allclose(phi.vectors[0, 0, 0], offs[4, 2, 1])

    def test_uniform_probability_gives_zero(self):
        space = DisplacementSpace(0.4, (5, 5, 5))
        vals = np.full((2, 2, 2, 5, 5, 5), 1.0 / 125.0)
        phi = expected_displacement(ProbTensor6D(vals, space))
        assert np.allclose(phi.vectors, 0.0, atol=1e-12)

    # A large ``sharpness`` concentrates each distribution on few offsets,
    # down to near-delta rows at the capture-range corners.  A float32
    # distribution's rounding can carry a convex combination of the
    # offsets just past the range; the float32 example below does, by
    # 1.7e-8 relative, unless the components are clipped.
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           counts=st.tuples(*[st.integers(1, 3)] * 3),
           steps=st.tuples(*[st.sampled_from((1, 3, 5))] * 3),
           q=st.floats(0.01, 1.0), sharpness=st.floats(0.0, 60.0),
           dtype=st.sampled_from((np.float64, np.float32)))
    @example(seed=85, counts=(3, 3, 3), steps=(5, 5, 5), q=0.4, sharpness=1.0,
             dtype=np.float64)
    @example(seed=262114360, counts=(3, 3, 2), steps=(5, 3, 1),
             q=0.3315076946314946, sharpness=47.18911706899286,
             dtype=np.float32)
    def test_components_bounded_by_capture_range(self, seed, counts, steps,
                                                 q, sharpness, dtype):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.0, 1.0, size=counts + steps) ** sharpness
        vals /= vals.sum(axis=(3, 4, 5), keepdims=True)
        vals = vals.astype(dtype)
        space = DisplacementSpace(q, steps)
        phi = expected_displacement(ProbTensor6D(vals, space))
        assert np.all(np.abs(phi.vectors) <= q * (1 + 1e-12))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           counts=st.tuples(*[st.integers(1, 4)] * 3),
           steps=st.tuples(*[st.sampled_from((1, 3, 5))] * 3),
           dtype=st.sampled_from((np.float64, np.float32)))
    def test_planewise_marginals_match_whole_tensor_sums(self, seed, counts,
                                                         steps, dtype):
        """The marginals summed per control plane, on any number of
        workers, give the field of marginals summed over the whole
        tensor, bit for bit."""
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.0, 1.0, size=counts + steps)
        vals = (vals / vals.sum(axis=(3, 4, 5), keepdims=True)).astype(dtype)
        space = DisplacementSpace(0.4, steps)
        want = np.stack([np.clip(
            vals.sum(axis=tuple(ax for ax in (3, 4, 5) if ax != a + 3),
                     dtype=np.float64) @ space.axis_offsets(a),
            -space.q, space.q) for a in range(3)], axis=-1)
        prob = ProbTensor6D(vals, space)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "MIN_THREADED_PLANE_BYTES", 0)
            for workers in (1, 2, 3):
                got = expected_displacement(prob, workers=workers).vectors
                assert got.tobytes() == want.tobytes()


class TestUpsampleField:
    def test_constant_field(self):
        vecs = np.tile(np.array([0.1, -0.2, 0.05]), (4, 4, 4, 1))
        full = upsample_field(DisplacementField(vecs), (9, 9, 9))
        assert full.counts == (9, 9, 9)
        assert np.allclose(full.vectors, [0.1, -0.2, 0.05], atol=1e-12)

    def test_identity_at_matching_resolution(self):
        rng = np.random.default_rng(86)
        vecs = rng.normal(size=(5, 5, 5, 3)) * 0.1
        full = upsample_field(DisplacementField(vecs), (5, 5, 5))
        assert np.allclose(full.vectors, vecs, atol=1e-12)

    def test_linear_field_interpolates_linearly(self):
        # phi_0 = a * x on the control grid: the upsampled field matches
        # the analytic line wherever the voxel center is inside the
        # outermost control points, and clamps beyond them.
        g = 4
        n = 16
        a = 0.3
        coords = axis_centers(g)
        vecs = np.zeros((g, g, g, 3))
        vecs[..., 0] = a * coords[:, None, None]
        full = upsample_field(DisplacementField(vecs), (n, n, n))
        xs = axis_centers(n)
        lo, hi = coords[0], coords[-1]
        want = a * np.clip(xs, lo, hi)
        assert np.allclose(full.vectors[:, 0, 0, 0], want, atol=1e-12)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            upsample_field(DisplacementField(np.zeros((1, 4, 4, 3))), (8, 8, 8))

    def test_components_upsampled_as_if_alone(self):
        # The three components go through one separable pass; each comes
        # out with the bytes of a pass over that component alone.
        rng = np.random.default_rng(94)
        vecs = rng.normal(size=(3, 4, 2, 3)) * 0.1
        dims = (7, 5, 6)
        fracs = [normalized_to_index(axis_centers(d), c)
                 for d, c in zip(dims, vecs.shape[:3])]
        full = upsample_field(DisplacementField(vecs), dims).vectors
        for c in range(3):
            alone = sample_separable(vecs[..., c], fracs)
            assert full[..., c].tobytes() == alone.tobytes()


@st.composite
def volume_data(draw):
    """f64 intensities or u8/i16 labels, on odd and even extents."""
    dims = draw(st.tuples(*[st.integers(1, 8)] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    dtype = draw(st.sampled_from((np.float64, np.uint8, np.int16)))
    if dtype is np.float64:
        return rng.normal(size=dims) * draw(st.sampled_from((1.0, 1e-300, 1e300)))
    return rng.integers(0, np.iinfo(dtype).max, size=dims, endpoint=True,
                        dtype=dtype)


class TestWarp:
    @settings(max_examples=40, deadline=None)
    @given(data=volume_data(), workers=st.sampled_from((1, 2, 3)))
    @example(data=np.random.default_rng(87).normal(size=(6, 6, 6)), workers=1)
    @example(data=np.arange(27).reshape(3, 3, 3) % 4, workers=1)
    def test_zero_field_is_identity(self, data, workers):
        vol = Volume3D(data, is_label=data.dtype.kind in "iu")
        zero = DisplacementField(np.zeros(data.shape + (3,)))
        # One-plane slabs, so every worker count splits the volume.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "SLAB_VOXELS", 1)
            out = warp(vol, zero, workers=workers)
        assert out.is_label == vol.is_label
        assert out.data.dtype == vol.data.dtype
        assert out.data.tobytes() == vol.data.tobytes()

    def test_zero_field_label_mode(self):
        labels = np.arange(27).reshape(3, 3, 3) % 4
        vol = Volume3D(labels, is_label=True)
        zero = DisplacementField(np.zeros((3, 3, 3, 3)))
        out = warp(vol, zero)
        assert out.is_label
        assert np.array_equal(out.data, vol.data)

    def test_constant_integer_shift(self):
        # t = 2 voxels along the last axis in normalized units: 2 * 2/n.
        rng = np.random.default_rng(88)
        n = 8
        data = rng.normal(size=(n, n, n))
        vol = Volume3D(data)
        t = np.array([0.0, 0.0, 2.0 * 2.0 / n])
        field = DisplacementField(np.broadcast_to(t, (n, n, n, 3)).copy())
        out = warp(vol, field)
        # out[i] = vol[i + 2] where in bounds.
        assert np.allclose(out.data[:, :, :-2], data[:, :, 2:], atol=1e-12)

    def test_shift_then_unshift_recovers_interior(self):
        rng = np.random.default_rng(89)
        n = 8
        data = rng.normal(size=(n, n, n))
        vol = Volume3D(data)
        t = np.array([2.0 * 2.0 / n, 0.0, 0.0])
        fwd = DisplacementField(np.broadcast_to(t, (n, n, n, 3)).copy())
        bwd = DisplacementField(np.broadcast_to(-t, (n, n, n, 3)).copy())
        back = warp(warp(vol, fwd), bwd)
        assert np.allclose(back.data[2:-2], data[2:-2], atol=1e-12)

    def test_resolution_mismatch_rejected(self):
        vol = Volume3D(np.zeros((4, 4, 4)))
        field = DisplacementField(np.zeros((5, 5, 5, 3)))
        with pytest.raises(ValueError):
            warp(vol, field)


class TestSlabWarp:
    """Slab-by-slab warping equals the whole-volume pass bit for bit, for
    every worker count."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16),
           dims=st.tuples(*[st.integers(1, 9)] * 3),
           slab=st.sampled_from((1, 7, 20, 1 << 15)),
           magnitude=st.sampled_from((0.0, 0.2, 1.5)))
    def test_matches_whole_volume(self, seed, dims, slab, magnitude):
        rng = np.random.default_rng(seed)
        field = DisplacementField(rng.normal(size=dims + (3,)) * magnitude)
        intensity = Volume3D(rng.normal(size=dims))
        labels = Volume3D(rng.integers(0, 4, size=dims), is_label=True)
        # Hypothesis runs many examples per test call, so the slab size is
        # patched per example rather than through the monkeypatch fixture.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "SLAB_VOXELS", slab)
            for vol in (intensity, labels):
                want = whole_volume_warp(vol, field)
                for workers in (1, 2, 3):
                    got = warp(vol, field, workers=workers)
                    assert got.is_label == want.is_label
                    assert got.data.dtype == want.data.dtype
                    assert got.data.tobytes() == want.data.tobytes()


def diffusion_term(vecs, weight):
    """The diffusion term of the refinement objective: ``field_energy`` on
    an all-zero cost, where the data term is exactly 0."""
    space = DisplacementSpace(0.4, 3)
    zero = CostTensor6D(np.zeros(vecs.shape[:3] + space.steps),
                        space)
    return field_energy(zero, vecs, weight)


class TestDiffusionPenalty:
    def test_constant_field_zero(self):
        assert diffusion_term(np.full((5, 5, 5, 3), 0.3), 1.5) == 0.0

    def test_linear_field_matches_analytic(self):
        # phi_0 = a * x_0 has gradient a along axis 0 and 0 elsewhere:
        # 1.5 * a^2 per grid point.
        g = 6
        coords = axis_centers(g)
        a = 0.25
        vecs = np.zeros((g, g, g, 3))
        vecs[..., 0] = a * coords[:, None, None]
        got = diffusion_term(vecs, 1.5)
        want = 1.5 * a * a * g ** 3
        assert got == pytest.approx(want, rel=1e-10)

    def test_linear_field_has_constant_gradient(self):
        # phi_c = a * x_c for every component: gradient a on the diagonal
        # and 0 elsewhere, so three terms of 1.5 * a^2 per grid point.
        g = 6
        coords = axis_centers(g)
        a = 0.37
        grid = np.stack(np.meshgrid(coords, coords, coords, indexing="ij"),
                        axis=-1)
        got = diffusion_term(a * grid, 1.5)
        assert got == pytest.approx(3.0 * 1.5 * a * a * g ** 3, rel=1e-10)

    def test_linear_in_weight(self):
        rng = np.random.default_rng(90)
        vecs = rng.normal(size=(4, 4, 4, 3)) * 0.05
        p1 = diffusion_term(vecs, 1.0)
        p2 = diffusion_term(vecs, 2.0)
        assert p2 == pytest.approx(2.0 * p1, rel=1e-12)
        assert p1 > 0

    def test_matches_naive_gradient(self):
        rng = np.random.default_rng(13)
        vecs = rng.normal(size=(4, 5, 3, 3)) * 0.1
        grad = naive_gradient(vecs, [2.0 / n for n in vecs.shape[:3]])
        want = 1.5 * np.sum(grad * grad)
        assert diffusion_term(vecs, 1.5) == pytest.approx(want, rel=1e-12)


class TestNonlocalLabelLoss:
    def make_blob_labels(self, n, shift=0):
        labels = np.zeros((n, n, n), dtype=np.int32)
        c = n // 2 + shift
        labels[c - 1:c + 2, c - 1:c + 2, c - 1:c + 2] = 1
        return labels

    def test_perfect_alignment_zero_loss(self):
        # Control points on voxel centers (grid == volume resolution) and
        # a probability delta at zero displacement.
        n = 8
        labels = self.make_blob_labels(n)
        vol = Volume3D(labels, is_label=True)
        space = DisplacementSpace(0.4, (3, 3, 3))
        vals = np.zeros((n, n, n, 3, 3, 3))
        vals[..., 1, 1, 1] = 1.0
        prob = ProbTensor6D(vals, space)
        loss = nonlocal_label_loss(prob, vol, vol, num_classes=2)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_translated_labels_with_matching_delta(self):
        # Moving = fixed shifted by one voxel; a delta at the matching
        # offset recovers zero loss (blob far from borders).
        n = 8
        fixed = self.make_blob_labels(n)
        moving = np.roll(fixed, 1, axis=2)    # moving[i] = fixed[i - 1]
        # One voxel = 2/n normalized; q=2/n with steps 3 puts it in L.
        space = DisplacementSpace(2.0 / n, (3, 3, 3))
        vals = np.zeros((n, n, n, 3, 3, 3))
        vals[..., 1, 1, 2] = 1.0    # offset (0, 0, +2/n)
        prob = ProbTensor6D(vals, space)
        loss = nonlocal_label_loss(prob, Volume3D(moving, is_label=True),
                                   Volume3D(fixed, is_label=True), num_classes=2)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_probability_matches_bruteforce(self):
        rng = np.random.default_rng(91)
        n = 6
        moving = (rng.uniform(size=(n, n, n)) > 0.5).astype(np.int32)
        fixed = (rng.uniform(size=(n, n, n)) > 0.5).astype(np.int32)
        grid = (3, 3, 3)
        space = DisplacementSpace(0.3, (3, 3, 3))
        vals = np.full((3, 3, 3, 3, 3, 3), 1.0 / 27.0)
        prob = ProbTensor6D(vals, space)
        loss = nonlocal_label_loss(prob, Volume3D(moving, is_label=True),
                                   Volume3D(fixed, is_label=True), num_classes=2)

        ctrl = [axis_centers(n) for n in grid]
        offs = [space.axis_offsets(a) for a in range(3)]
        acc = 0.0
        for k in np.ndindex(3, 3, 3):
            x = np.array([ctrl[a][k[a]] for a in range(3)])
            fx = (x + 1.0) * (n / 2.0) - 0.5
            for cls in range(2):
                onehot = (moving == cls).astype(float)
                expect = 0.0
                for s in np.ndindex(3, 3, 3):
                    pos = x + np.array([offs[a][s[a]] for a in range(3)])
                    frac = (pos + 1.0) * (n / 2.0) - 0.5
                    expect += vals[k + s] * naive_frac_trilinear(onehot, frac)
                target = naive_frac_trilinear((fixed == cls).astype(float), fx)
                acc += (expect - target) ** 2
        want = acc / (27 * 2)
        assert loss == pytest.approx(want, abs=1e-6)

    def test_sparse_label_ids_match_full_range_oracle(self):
        # FreeSurfer-style IDs (up to 2035): only present labels are
        # visited and counted, and the loss equals the loop over every id
        # up to the largest one, averaged over the ids that occur, bit for
        # bit.  2035 occurs in the moving volume only.
        rng = np.random.default_rng(93)
        ids = np.array([0, 2, 17, 41, 53, 2035])
        moving = ids[rng.integers(0, 6, size=(9, 10, 8))]
        fixed = ids[rng.integers(0, 5, size=(9, 10, 8))]
        grid = (3, 4, 2)
        space = DisplacementSpace(0.3, (3, 5, 1))
        vals = rng.uniform(0.5, 1.0, size=grid + space.steps)
        vals /= vals.sum(axis=(3, 4, 5), keepdims=True)
        prob = ProbTensor6D(vals, space)
        lm = Volume3D(moving, is_label=True)
        lf = Volume3D(fixed, is_label=True)
        loss = nonlocal_label_loss(prob, lm, lf, 2036)
        assert loss > 0.0
        assert loss == full_range_label_loss(prob, lm, lf, 2036)
        # Renumbering the labels 0..5 leaves the value unchanged.
        dense_m = Volume3D(np.searchsorted(ids, moving), is_label=True)
        dense_f = Volume3D(np.searchsorted(ids, fixed), is_label=True)
        assert loss == nonlocal_label_loss(prob, dense_m, dense_f, 6)

    def walked_grids(self, monkeypatch, prob, moving, fixed, num_classes):
        """The loss, and the extents of the control grid each label's
        walk covers."""
        grids = []
        walk = transform.map_displaced

        def spy(arrays, to_index, centers, *rest):
            grids.append(tuple(len(c) for c in centers))
            return walk(arrays, to_index, centers, *rest)

        monkeypatch.setattr(transform, "map_displaced", spy)
        return (nonlocal_label_loss(prob, moving, fixed, num_classes),
                grids)

    def test_walks_only_the_points_that_reach_each_label(self, monkeypatch):
        # Label 1 fills voxels 0-1 on every axis of an 8³ volume; the
        # displaced positions reach +-0.2 voxels around the control
        # points at 0.5, 2.5, 4.5 and 6.5, so only the first point on
        # each axis has a sample with a corner in the box.  Label 2 is
        # present in the fixed volume only and walks nothing.
        moving = np.zeros((8, 8, 8), np.int32)
        moving[:2, :2, :2] = 1
        fixed = np.roll(moving, 1, axis=1)
        fixed[7, 7, 7] = 2
        space = DisplacementSpace(0.05, (3, 3, 3))
        rng = np.random.default_rng(94)
        vals = rng.uniform(0.5, 1.0, size=(4, 4, 4) + space.steps)
        prob = ProbTensor6D(vals / vals.sum(axis=(3, 4, 5), keepdims=True),
                            space)
        lm, lf = Volume3D(moving, is_label=True), Volume3D(fixed, is_label=True)
        loss, grids = self.walked_grids(monkeypatch, prob, lm, lf, 3)
        assert grids == [(4, 4, 4), (1, 1, 1)]
        assert loss == planewise_label_loss(prob, lm, lf)
        assert loss == full_range_label_loss(prob, lm, lf, 3)

    def test_label_no_point_reaches_walks_nothing(self, monkeypatch):
        # A box at voxels 3-4 of every axis: the positions of the two
        # control points per axis, 1.5 +- 0.2 and 5.5 +- 0.2, have no
        # corner in it, so each point's expectation is the +0 of a sum of
        # p * 0, and the loss is the mean of the squared fixed samples.
        moving = np.zeros((8, 8, 8), np.int32)
        moving[3:5, 3:5, 3:5] = 1
        space = DisplacementSpace(0.05, (3, 3, 3))
        vals = np.full((2, 2, 2) + space.steps, 1.0 / 27.0)
        prob = ProbTensor6D(vals, space)
        lm = lf = Volume3D(moving, is_label=True)
        loss, grids = self.walked_grids(monkeypatch, prob, lm, lf, 2)
        assert grids == [(2, 2, 2)]
        assert loss > 0.0
        assert loss == planewise_label_loss(prob, lm, lf)

    def test_class_count_mismatch_rejected(self):
        n = 6
        labels = np.full((n, n, n), 3, dtype=np.int32)
        vol = Volume3D(labels, is_label=True)
        space = DisplacementSpace(0.3, (3, 3, 3))
        vals = np.full((2, 2, 2, 3, 3, 3), 1.0 / 27.0)
        prob = ProbTensor6D(vals, space)
        with pytest.raises(ValueError):
            nonlocal_label_loss(prob, vol, vol, num_classes=3)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(92)
        n = 6
        a = (rng.uniform(size=(n, n, n)) > 0.4).astype(np.int32)
        b = (rng.uniform(size=(n, n, n)) > 0.6).astype(np.int32)
        space = DisplacementSpace(0.3, (3, 3, 3))
        vals = rng.uniform(0.5, 1.0, size=(3, 3, 3, 3, 3, 3))
        vals /= vals.sum(axis=(3, 4, 5), keepdims=True)
        prob = ProbTensor6D(vals, space)
        loss = nonlocal_label_loss(prob, Volume3D(a, is_label=True),
                                   Volume3D(b, is_label=True), num_classes=2)
        assert loss >= 0.0


class TestRegistrationConfig:
    def test_defaults(self):
        cfg = RegistrationConfig()
        assert cfg.space.q == 0.4
        assert cfg.space.steps == (15, 15, 15)
        assert cfg.grid_counts == (32, 32, 32)
        # End-to-end default smoothing is the tuned preset.
        assert cfg.reg_params == RegularizerParams(
            output_scale=2500.0, temperature=4.0, iterations=5,
            spatial_kernel=5)

    def test_capture_range_bounds(self):
        with pytest.raises(ValueError):
            RegistrationConfig(space=DisplacementSpace(1.5, 15))

    def test_scalar_grid_counts(self):
        cfg = RegistrationConfig(grid_counts=16)
        assert cfg.grid_counts == (16, 16, 16)

    @pytest.mark.parametrize("counts, kernel", [
        ((2, 2, 2), 1), ((3, 3, 3), 3), ((4, 4, 4), 3), ((4, 6, 9), 3),
        ((3, 4, 6), 3), ((6, 6, 6), 5), ((5, 5, 5), 5), ((16, 16, 16), 5),
        ((8, 7, 12), 5)])
    def test_spatial_kernel_fits_coarse_grids(self, counts, kernel):
        # The config keeps the tuned kernel; the mean-field step pools the
        # narrowest axis over the largest odd width <= its extent.  An
        # impulse in the middle of that axis keeps 1/width of its mass.
        cfg = RegistrationConfig(grid_counts=counts)
        assert cfg.reg_params == RegularizerParams()
        axis = int(np.argmin(counts))
        n = counts[axis]
        vals = np.zeros(tuple(counts) + (1, 1, 1))
        vals[(slice(None),) * axis + (n // 2,)] = 1.0
        out = mean_field_step(vals, cfg.reg_params.spatial_kernel)
        centre = out[(0,) * axis + (n // 2,) + (0,) * (5 - axis)]
        assert round(1.0 / centre) == kernel

    @settings(max_examples=60, deadline=None)
    @given(counts=st.one_of(st.integers(2, 40),
                            st.tuples(*[st.integers(2, 40)] * 3)),
           kernel=st.integers(0, 6).map(lambda k: 2 * k + 1))
    def test_reg_params_kept_as_given(self, counts, kernel):
        params = RegularizerParams(spatial_kernel=kernel)
        cfg = RegistrationConfig(grid_counts=counts, reg_params=params)
        assert cfg.reg_params is params

    @pytest.mark.parametrize("counts, reason", [
        ((1, 4, 6), ">= 2 points per axis"),
        ((1, 1, 1), ">= 2 points per axis"),
        (1, ">= 2 points per axis"),
        ((16, 16), "three positive ints"),
        ((4, 0, 4), "three positive ints")])
    def test_grid_the_upsampling_cannot_use_rejected(self, counts, reason):
        with pytest.raises(ValueError, match=reason):
            RegistrationConfig(grid_counts=counts)

    def test_narrow_explicit_kernel_kept(self):
        params = RegularizerParams(spatial_kernel=3)
        assert RegistrationConfig(grid_counts=16,
                                  reg_params=params).reg_params is params
