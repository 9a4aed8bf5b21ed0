"""Cost-tensor smoothing: pooled min-convolution, mean-field averaging,
and the exact parabola envelope they approximate."""

import numpy as np
import pytest
from scipy import ndimage

from densereg.correlation import CostTensor6D, dissimilarity_tensor
from densereg.features import extract_intensity_gradient
from densereg.geometry import ControlGrid, DisplacementSpace, Volume3D
from densereg.regularizer import (
    RegularizerParams,
    exact_lower_envelope,
    lower_envelope_3d,
    mean_field_step,
    min_convolution,
    regularize,
)
from oracles import naive_avg_pool, naive_lower_envelope, naive_min_pool


def tensor_on(grid_counts, steps, values):
    grid = ControlGrid(grid_counts)
    space = DisplacementSpace(0.4, steps=steps)
    return CostTensor6D(values, grid, space)


class TestParams:
    def test_defaults(self):
        # The tuned end-to-end preset.
        p = RegularizerParams()
        assert (p.output_scale, p.temperature, p.iterations,
                p.spatial_kernel) == (2500.0, 4.0, 5, 5)

    def test_temperature_positive(self):
        for bad in (0.0, -4.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="temperature"):
                RegularizerParams(temperature=bad)

    def test_output_scale_positive_and_finite(self):
        for bad in (0.0, -2500.0, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="output_scale"):
                RegularizerParams(output_scale=bad)

    def test_kernels_odd(self):
        with pytest.raises(ValueError):
            RegularizerParams(spatial_kernel=4)
        with pytest.raises(ValueError):
            RegularizerParams(spatial_kernel=0)

    def test_iterations_nonnegative(self):
        with pytest.raises(ValueError):
            RegularizerParams(iterations=-1)


class TestMinConvolution:
    def test_constant_tensor_unchanged(self):
        t = tensor_on((2, 2, 2), (5, 5, 5), np.full((2, 2, 2, 5, 5, 5), 3.25))
        out = min_convolution(t.values)
        assert np.allclose(out, 3.25, atol=1e-12)

    def test_hand_example_1d(self):
        # Single control point, displacements along one axis only:
        # [5,0,5,5,5] -> min-pool k=3 -> [0,0,0,5,5]
        #             -> avg k=3 -> [0, 0, 5/3, 10/3, 5]
        #             -> avg k=3 -> [0, 5/9, 5/3, 10/3, 40/9]
        vals = np.array([5.0, 0.0, 5.0, 5.0, 5.0]).reshape(1, 1, 1, 5, 1, 1)
        t = tensor_on((1, 1, 1), (5, 1, 1), vals)
        out = min_convolution(t.values).ravel()
        want = np.array([0.0, 5.0 / 9.0, 5.0 / 3.0, 10.0 / 3.0, 40.0 / 9.0])
        assert np.allclose(out, want, atol=1e-12)

    def test_matches_bruteforce_pooling(self):
        rng = np.random.default_rng(61)
        vals = rng.uniform(0.0, 2.0, size=(2, 1, 2, 5, 5, 5))
        t = tensor_on((2, 1, 2), (5, 5, 5), vals)
        out = min_convolution(t.values)
        ref = naive_min_pool(vals, 3, axes=(3, 4, 5))
        ref = naive_avg_pool(ref, 3, axes=(3, 4, 5))
        ref = naive_avg_pool(ref, 3, axes=(3, 4, 5))
        assert np.allclose(out, ref, atol=1e-10)
        assert out.min() >= vals.min() - 1e-12
        assert out.max() <= vals.max() + 1e-12

    def test_spatial_dims_untouched(self):
        # A tensor varying only spatially is a constant per displacement
        # row, so displacement pooling must not change it.
        rng = np.random.default_rng(62)
        spatial = rng.uniform(0.5, 1.5, size=(3, 3, 3))
        vals = np.broadcast_to(spatial[..., None, None, None],
                               (3, 3, 3, 5, 5, 5)).copy()
        t = tensor_on((3, 3, 3), (5, 5, 5), vals)
        out = min_convolution(t.values)
        assert np.allclose(out, vals, atol=1e-12)

    def test_kernel_exceeding_extent_rejected(self):
        # An extent of 2 is neither 1 nor as wide as the 3-wide pools.
        with pytest.raises(ValueError):
            min_convolution(np.zeros((1, 1, 1, 2, 2, 2)))

    def test_degenerate_axes_pass_through(self):
        # Extent-1 displacement axes have nothing to pool over.
        vals = np.array([5.0, 0.0, 5.0, 5.0, 5.0]).reshape(1, 1, 1, 5, 1, 1)
        t = tensor_on((1, 1, 1), (5, 1, 1), vals)
        out = min_convolution(t.values)
        assert out.shape == vals.shape


class TestExactLowerEnvelope:
    def test_delta_cost_gives_single_parabola(self):
        f = np.full(9, np.inf)
        f[4] = 0.0
        out = exact_lower_envelope(f, 0.5)
        want = 0.5 * (np.arange(9) - 4.0) ** 2
        assert np.allclose(out, want)

    def test_constant_cost_unchanged(self):
        out = exact_lower_envelope(np.full(15, 2.5), 1.0)
        assert np.allclose(out, 2.5)

    def test_matches_quadratic_oracle_exactly(self):
        rng = np.random.default_rng(63)
        for _ in range(25):
            f = rng.uniform(0.0, 3.0, size=15)
            a = float(rng.uniform(0.05, 2.0))
            assert np.array_equal(exact_lower_envelope(f, a),
                                  naive_lower_envelope(f, a))

    def test_pointwise_below_input(self):
        rng = np.random.default_rng(64)
        f = rng.uniform(0.0, 1.0, size=15)
        out = exact_lower_envelope(f, 0.1)
        assert np.all(out <= f + 1e-15)
        # The global minimum's own parabola is the envelope there.
        j = int(np.argmin(f))
        assert out[j] == f[j]

    def test_curvature_must_be_positive(self):
        with pytest.raises(ValueError):
            exact_lower_envelope(np.zeros(5), 0.0)

    def test_separable_3d(self):
        rng = np.random.default_rng(65)
        vals = rng.uniform(0.0, 1.0, size=(1, 1, 1, 5, 5, 5))
        t = tensor_on((1, 1, 1), (5, 5, 5), vals)
        out = lower_envelope_3d(t, 0.2).values[0, 0, 0]
        # Brute force over all displacement pairs.
        ref = np.empty((5, 5, 5))
        for i in np.ndindex(5, 5, 5):
            best = np.inf
            for j in np.ndindex(5, 5, 5):
                d2 = sum((i[a] - j[a]) ** 2 for a in range(3))
                best = min(best, vals[0, 0, 0][j] + 0.2 * d2)
            ref[i] = best
        assert np.allclose(out, ref, atol=1e-12)


class TestMeanField:
    def test_spatially_constant_unchanged(self):
        rng = np.random.default_rng(66)
        row = rng.uniform(0.0, 1.0, size=(3, 3, 3))
        vals = np.broadcast_to(row, (4, 4, 4, 3, 3, 3)).copy()
        t = tensor_on((4, 4, 4), (3, 3, 3), vals)
        out = mean_field_step(t.values, 3)
        assert np.allclose(out, vals, atol=1e-12)

    def test_corner_perturbation_weights(self):
        # Perturbing one corner point by +eps on a 3^3 grid moves each
        # output by eps times the product of per-axis window weights:
        # a corner source has weight 2/3 on itself and 1/3 on its neighbor.
        rng = np.random.default_rng(67)
        base = rng.uniform(1.0, 2.0, size=(3, 3, 3, 1, 1, 1))
        eps = 0.9
        pert = base.copy()
        pert[0, 0, 0, 0, 0, 0] += eps
        a = mean_field_step(base, 3)
        b = mean_field_step(pert, 3)
        diff = (b - a)[..., 0, 0, 0]
        assert diff[0, 0, 0] == pytest.approx(8 * eps / 27, abs=1e-12)
        assert diff[0, 0, 1] == pytest.approx(4 * eps / 27, abs=1e-12)
        assert diff[1, 1, 1] == pytest.approx(eps / 27, abs=1e-12)
        assert np.allclose(diff[2, :, :], 0.0, atol=1e-12)

    def test_mean_preserved_per_bin(self):
        # With kernel 3 and replicate padding every source voxel's weights
        # sum to one, so the spatial mean per displacement bin is exact.
        rng = np.random.default_rng(68)
        vals = rng.uniform(0.0, 1.0, size=(4, 5, 4, 3, 3, 3))
        t = tensor_on((4, 5, 4), (3, 3, 3), vals)
        out = mean_field_step(t.values, 3)
        assert np.allclose(out.mean(axis=(0, 1, 2)), vals.mean(axis=(0, 1, 2)),
                           atol=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(69)
        vals = rng.uniform(0.0, 1.0, size=(4, 4, 4, 3, 1, 1))
        t = tensor_on((4, 4, 4), (3, 1, 1), vals)
        out = mean_field_step(t.values, 3)
        ref = naive_avg_pool(vals, 3, axes=(0, 1, 2))
        assert np.allclose(out, ref, atol=1e-10)

    def test_grid_smaller_than_kernel_rejected(self):
        t = tensor_on((2, 3, 3), (3, 3, 3), np.zeros((2, 3, 3, 3, 3, 3)))
        with pytest.raises(ValueError):
            mean_field_step(t.values, 3)

    def test_single_point_grid_passes_through(self):
        rng = np.random.default_rng(70)
        vals = rng.uniform(0.0, 1.0, size=(1, 1, 1, 3, 3, 3))
        t = tensor_on((1, 1, 1), (3, 3, 3), vals)
        out = mean_field_step(t.values, 3)
        assert np.array_equal(out, vals)


class TestRegularize:
    def test_constant_unit_scale(self):
        vals = np.full((3, 3, 3, 3, 3, 3), 1.75)
        t = tensor_on((3, 3, 3), (3, 3, 3), vals)
        out = regularize(t, RegularizerParams(output_scale=1.0, iterations=2,
                                              spatial_kernel=3))
        assert np.allclose(out.values, 1.75, atol=1e-12)

    def test_zero_iterations_identity(self):
        rng = np.random.default_rng(71)
        vals = rng.uniform(0.0, 1.0, size=(3, 3, 3, 3, 3, 3))
        t = tensor_on((3, 3, 3), (3, 3, 3), vals)
        out = regularize(t, RegularizerParams(output_scale=1.0, iterations=0))
        assert out.values.tobytes() == vals.tobytes()

    def test_zero_iterations_applies_output_scale(self):
        vals = np.full((1, 1, 1, 3, 3, 3), 2.0)
        t = tensor_on((1, 1, 1), (3, 3, 3), vals)
        out = regularize(t, RegularizerParams(output_scale=0.625,
                                              iterations=0))
        assert np.array_equal(out.values, np.full(vals.shape, 1.25))

    def test_argmin_stable_for_separated_minimum(self):
        vals = np.full((1, 1, 1, 7, 7, 7), 10.0)
        vals[0, 0, 0, 3, 3, 3] = 0.0
        t = tensor_on((1, 1, 1), (7, 7, 7), vals)
        out = regularize(t, RegularizerParams())
        flat_before = np.argmin(vals[0, 0, 0])
        flat_after = np.argmin(out.values[0, 0, 0])
        assert flat_before == flat_after

    def test_reduces_argmin_total_variation(self):
        # Noisy moving volume: per-point argmins jitter before smoothing.
        rng = np.random.default_rng(72)
        n = 16
        base = ndimage.gaussian_filter(rng.normal(size=(n, n, n)), 1.5)
        base = (base - base.mean()) / base.std()
        moving = np.roll(base, 2, axis=2) + 0.35 * rng.normal(size=(n, n, n))
        ff = extract_intensity_gradient(Volume3D(base), stride=1)
        fm = extract_intensity_gradient(Volume3D(moving), stride=1)
        grid = ControlGrid((6, 6, 6))
        space = DisplacementSpace(0.5, steps=5)
        cost = dissimilarity_tensor(ff, fm, grid, space)

        def argmin_tv(c):
            flat = c.values.reshape(c.grid.counts + (-1,))
            offs = c.space.offsets().reshape(-1, 3)
            field = offs[np.argmin(flat, axis=-1)]
            tv = 0.0
            for a in range(3):
                d = np.diff(field, axis=a)
                tv += np.abs(d).sum()
            return tv

        before = argmin_tv(cost)
        after = argmin_tv(regularize(cost, RegularizerParams()))
        assert before > 0
        assert after < before


class TestEnvelopeAudit:
    def test_pooled_approximation_rms(self):
        # Frozen from the calibration run: over 100 seeded uniform [0,1]
        # cost rows of shape 15^3, the pooled min-convolution deviates from
        # the exact envelope with curvature 0.0075 (per squared bin) by
        # RMS 0.01399; the curvature grid search is demos/calibrate_envelope.py.
        grid = ControlGrid((1, 1, 1))
        space = DisplacementSpace(0.4, steps=15)
        acc = 0.0
        cnt = 0
        agree = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            vals = rng.uniform(0.0, 1.0, size=(1, 1, 1, 15, 15, 15))
            t = CostTensor6D(vals, grid, space)
            pooled = min_convolution(vals)
            exact = lower_envelope_3d(t, 0.0075).values
            d = pooled - exact
            acc += float(np.sum(d * d))
            cnt += d.size
            if np.argmin(pooled) == np.argmin(exact):
                agree += 1
        rms = np.sqrt(acc / cnt)
        assert rms <= 0.015

    def test_argmin_agreement_on_separated_minima(self):
        # When one bin is far below all others both routes must point at it.
        grid = ControlGrid((1, 1, 1))
        space = DisplacementSpace(0.4, steps=15)
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            vals = rng.uniform(5.0, 6.0, size=(1, 1, 1, 15, 15, 15))
            pos = tuple(rng.integers(2, 13, size=3))
            vals[(0, 0, 0) + pos] = 0.0
            t = CostTensor6D(vals, grid, space)
            pooled = min_convolution(vals)
            exact = lower_envelope_3d(t, 0.0075).values
            assert np.argmin(pooled) == np.argmin(exact)
            assert np.unravel_index(np.argmin(pooled[0, 0, 0]), (15, 15, 15)) == pos
