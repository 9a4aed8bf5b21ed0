"""Probability extraction, field upsampling, warping, and loss terms."""

from dataclasses import replace

import numpy as np
import pytest

from densereg.correlation import CostTensor6D
from densereg.geometry import (
    ControlGrid,
    DisplacementField,
    DisplacementSpace,
    Volume3D,
    axis_centers,
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
from densereg.refine import field_energy
from densereg.regularizer import RegularizerParams
from hypothesis import given, settings, strategies as st

from densereg import parallel
from oracles import (full_range_label_loss, naive_frac_trilinear,
                     naive_gradient, whole_volume_warp)


def cost_tensor(grid_counts, steps, values, q=0.4):
    return CostTensor6D(values, ControlGrid(grid_counts), DisplacementSpace(q, steps))


class TestSoftmax:
    def test_uniform_cost_gives_uniform_distribution(self):
        t = cost_tensor((2, 2, 2), (15, 15, 15), np.full((2, 2, 2, 15, 15, 15), 3.0))
        p = softmax_probabilities(t, 1.0)
        assert np.allclose(p.values, 1.0 / 3375.0, atol=1e-12)

    def test_degenerate_softmax(self):
        vals = np.full((1, 1, 1, 5, 5, 5), 1e6)
        vals[0, 0, 0, 2, 2, 2] = 0.0
        p = softmax_probabilities(cost_tensor((1, 1, 1), (5, 5, 5), vals), 1.0)
        assert p.values[0, 0, 0, 2, 2, 2] == pytest.approx(1.0, abs=1e-12)

    def test_three_bin_row(self):
        vals = np.array([0.0, 1.0, 2.0]).reshape(1, 1, 1, 3, 1, 1)
        p = softmax_probabilities(cost_tensor((1, 1, 1), (3, 1, 1), vals), 1.0)
        got = p.values.ravel()
        assert got == pytest.approx([0.6652, 0.2447, 0.0900], abs=5e-5)

    def test_normalization_on_random_tensors(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            vals = rng.uniform(0.0, 50.0, size=(3, 2, 3, 5, 5, 5))
            p = softmax_probabilities(cost_tensor((3, 2, 3), (5, 5, 5), vals), 7.0)
            sums = p.values.sum(axis=(3, 4, 5))
            assert np.allclose(sums, 1.0, atol=1e-5)
            assert p.values.min() >= 0.0
            assert p.values.max() <= 1.0

    def test_per_point_bias_invariance(self):
        rng = np.random.default_rng(82)
        vals = rng.uniform(0.0, 2.0, size=(2, 2, 2, 5, 5, 5))
        shifted = vals + rng.uniform(0.0, 10.0, size=(2, 2, 2, 1, 1, 1))
        pa = softmax_probabilities(cost_tensor((2, 2, 2), (5, 5, 5), vals), 3.0)
        pb = softmax_probabilities(cost_tensor((2, 2, 2), (5, 5, 5), shifted), 3.0)
        assert np.allclose(pa.values, pb.values, atol=1e-6)

    def test_huge_costs_stay_finite(self):
        vals = np.full((1, 1, 1, 3, 3, 3), 1e12)
        vals[0, 0, 0, 1, 1, 1] = 0.0
        p = softmax_probabilities(cost_tensor((1, 1, 1), (3, 3, 3), vals), 100.0)
        assert np.all(np.isfinite(p.values))

    def test_temperature_sharpens(self):
        # Higher temperature scale concentrates each distribution.
        rng = np.random.default_rng(83)
        vals = rng.uniform(0.0, 1.0, size=(2, 2, 2, 5, 5, 5))
        t = cost_tensor((2, 2, 2), (5, 5, 5), vals)

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
        t = cost_tensor((1, 1, 1), (3, 3, 3), np.zeros((1, 1, 1, 3, 3, 3)))
        with pytest.raises(ValueError):
            softmax_probabilities(t, 0.0)


class TestProbTensorValidation:
    def test_rejects_unnormalized(self):
        vals = np.full((1, 1, 1, 3, 1, 1), 0.5)
        with pytest.raises(ValueError):
            ProbTensor6D(vals, ControlGrid((1, 1, 1)), DisplacementSpace(0.4, (3, 1, 1)))

    def test_rejects_out_of_range(self):
        vals = np.zeros((1, 1, 1, 3, 1, 1))
        vals[0, 0, 0, 0, 0, 0] = 1.5
        vals[0, 0, 0, 1, 0, 0] = -0.5
        with pytest.raises(ValueError):
            ProbTensor6D(vals, ControlGrid((1, 1, 1)), DisplacementSpace(0.4, (3, 1, 1)))


class TestExpectedDisplacement:
    def test_symmetric_probability_gives_zero(self):
        space = DisplacementSpace(0.4, (5, 5, 5))
        rng = np.random.default_rng(84)
        half = rng.uniform(0.1, 1.0, size=(1, 1, 1, 5, 5, 5))
        sym = half + half[:, :, :, ::-1, ::-1, ::-1]
        sym /= sym.sum(axis=(3, 4, 5), keepdims=True)
        prob = ProbTensor6D(sym, ControlGrid((1, 1, 1)), space)
        phi = expected_displacement(prob)
        assert np.allclose(phi.vectors, 0.0, atol=1e-12)

    def test_delta_probability_recovers_offset(self):
        space = DisplacementSpace(0.4, (5, 5, 5))
        vals = np.zeros((1, 1, 1, 5, 5, 5))
        vals[0, 0, 0, 4, 2, 1] = 1.0
        prob = ProbTensor6D(vals, ControlGrid((1, 1, 1)), space)
        phi = expected_displacement(prob)
        offs = space.offsets()
        assert np.allclose(phi.vectors[0, 0, 0], offs[4, 2, 1])

    def test_uniform_probability_gives_zero(self):
        space = DisplacementSpace(0.4, (5, 5, 5))
        vals = np.full((2, 2, 2, 5, 5, 5), 1.0 / 125.0)
        phi = expected_displacement(ProbTensor6D(vals, ControlGrid((2, 2, 2)), space))
        assert np.allclose(phi.vectors, 0.0, atol=1e-12)

    def test_components_bounded_by_capture_range(self):
        rng = np.random.default_rng(85)
        vals = rng.uniform(0.0, 1.0, size=(3, 3, 3, 5, 5, 5))
        vals /= vals.sum(axis=(3, 4, 5), keepdims=True)
        space = DisplacementSpace(0.4, (5, 5, 5))
        phi = expected_displacement(ProbTensor6D(vals, ControlGrid((3, 3, 3)), space))
        assert np.all(np.abs(phi.vectors) <= 0.4 + 1e-12)


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


class TestWarp:
    def test_zero_field_is_identity(self):
        rng = np.random.default_rng(87)
        data = rng.normal(size=(6, 6, 6))
        vol = Volume3D(data)
        zero = DisplacementField(np.zeros((6, 6, 6, 3)))
        out = warp(vol, zero)
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
                        ControlGrid(vecs.shape[:3]), space)
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
        grid = ControlGrid((n, n, n))
        space = DisplacementSpace(0.4, (3, 3, 3))
        vals = np.zeros((n, n, n, 3, 3, 3))
        vals[..., 1, 1, 1] = 1.0
        prob = ProbTensor6D(vals, grid, space)
        loss = nonlocal_label_loss(prob, vol, vol, num_classes=2)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_translated_labels_with_matching_delta(self):
        # Moving = fixed shifted by one voxel; a delta at the matching
        # offset recovers zero loss (blob far from borders).
        n = 8
        fixed = self.make_blob_labels(n)
        moving = np.roll(fixed, 1, axis=2)    # moving[i] = fixed[i - 1]
        grid = ControlGrid((n, n, n))
        # One voxel = 2/n normalized; q=2/n with steps 3 puts it in L.
        space = DisplacementSpace(2.0 / n, (3, 3, 3))
        vals = np.zeros((n, n, n, 3, 3, 3))
        vals[..., 1, 1, 2] = 1.0    # offset (0, 0, +2/n)
        prob = ProbTensor6D(vals, grid, space)
        loss = nonlocal_label_loss(prob, Volume3D(moving, is_label=True),
                                   Volume3D(fixed, is_label=True), num_classes=2)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_probability_matches_bruteforce(self):
        rng = np.random.default_rng(91)
        n = 6
        moving = (rng.uniform(size=(n, n, n)) > 0.5).astype(np.int32)
        fixed = (rng.uniform(size=(n, n, n)) > 0.5).astype(np.int32)
        grid = ControlGrid((3, 3, 3))
        space = DisplacementSpace(0.3, (3, 3, 3))
        vals = np.full((3, 3, 3, 3, 3, 3), 1.0 / 27.0)
        prob = ProbTensor6D(vals, grid, space)
        loss = nonlocal_label_loss(prob, Volume3D(moving, is_label=True),
                                   Volume3D(fixed, is_label=True), num_classes=2)

        ctrl = [grid.axis_coords(a) for a in range(3)]
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
        grid = ControlGrid((3, 4, 2))
        space = DisplacementSpace(0.3, (3, 5, 1))
        vals = rng.uniform(0.5, 1.0, size=grid.counts + space.steps)
        vals /= vals.sum(axis=(3, 4, 5), keepdims=True)
        prob = ProbTensor6D(vals, grid, space)
        lm = Volume3D(moving, is_label=True)
        lf = Volume3D(fixed, is_label=True)
        loss = nonlocal_label_loss(prob, lm, lf, 2036)
        assert loss > 0.0
        assert loss == full_range_label_loss(prob, lm, lf, 2036)
        # Renumbering the labels 0..5 leaves the value unchanged.
        dense_m = Volume3D(np.searchsorted(ids, moving), is_label=True)
        dense_f = Volume3D(np.searchsorted(ids, fixed), is_label=True)
        assert loss == nonlocal_label_loss(prob, dense_m, dense_f, 6)

    def test_class_count_mismatch_rejected(self):
        n = 6
        labels = np.full((n, n, n), 3, dtype=np.int32)
        vol = Volume3D(labels, is_label=True)
        grid = ControlGrid((2, 2, 2))
        space = DisplacementSpace(0.3, (3, 3, 3))
        vals = np.full((2, 2, 2, 3, 3, 3), 1.0 / 27.0)
        prob = ProbTensor6D(vals, grid, space)
        with pytest.raises(ValueError):
            nonlocal_label_loss(prob, vol, vol, num_classes=3)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(92)
        n = 6
        a = (rng.uniform(size=(n, n, n)) > 0.4).astype(np.int32)
        b = (rng.uniform(size=(n, n, n)) > 0.6).astype(np.int32)
        grid = ControlGrid((3, 3, 3))
        space = DisplacementSpace(0.3, (3, 3, 3))
        vals = rng.uniform(0.5, 1.0, size=(3, 3, 3, 3, 3, 3))
        vals /= vals.sum(axis=(3, 4, 5), keepdims=True)
        prob = ProbTensor6D(vals, grid, space)
        loss = nonlocal_label_loss(prob, Volume3D(a, is_label=True),
                                   Volume3D(b, is_label=True), num_classes=2)
        assert loss >= 0.0


class TestRegistrationConfig:
    def test_defaults(self):
        cfg = RegistrationConfig()
        assert cfg.space.q == 0.4
        assert cfg.space.steps == (15, 15, 15)
        assert cfg.grid_counts == (32, 32, 32)
        assert cfg.feature == "ssc"
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
        # Largest odd width <= the smallest extent.
        cfg = RegistrationConfig(grid_counts=counts)
        assert cfg.reg_params.spatial_kernel == kernel
        assert cfg.reg_params == replace(RegularizerParams(),
                                         spatial_kernel=kernel)

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
