"""The 6D dissimilarity tensor against brute-force references."""

import numpy as np
import pytest

from densereg.correlation import CostTensor6D, dissimilarity_tensor, flop_estimate
from densereg.features import FeatureVolume, extract_intensity_gradient
from densereg.geometry import ControlGrid, DisplacementSpace, Volume3D
from oracles import naive_dissimilarity


def random_feature_volume(rng, channels, counts):
    data = rng.normal(size=(channels,) + tuple(counts))
    # Grid frame of a stride-1 extraction from a matching volume.
    origin = tuple(-1.0 + 1.0 / n for n in counts)
    step = tuple(2.0 / n for n in counts)
    return FeatureVolume(data, origin, step)


class TestCostTensorType:
    def test_shape_checked(self):
        grid = ControlGrid((2, 2, 2))
        space = DisplacementSpace(0.2, steps=3)
        with pytest.raises(ValueError):
            CostTensor6D(np.zeros((2, 2, 2, 3, 3, 2)), grid, space)

    def test_negative_rejected(self):
        grid = ControlGrid((1, 1, 1))
        space = DisplacementSpace(0.2, steps=3)
        vals = np.zeros((1, 1, 1, 3, 3, 3))
        vals[0, 0, 0, 1, 1, 1] = -1e-3
        with pytest.raises(ValueError):
            CostTensor6D(vals, grid, space)

    def test_nonfinite_rejected(self):
        grid = ControlGrid((1, 1, 1))
        space = DisplacementSpace(0.2, steps=3)
        vals = np.zeros((1, 1, 1, 3, 3, 3))
        vals[0, 0, 0, 0, 0, 0] = np.nan
        with pytest.raises(ArithmeticError, match="finite"):
            CostTensor6D(vals, grid, space)


class TestDissimilarity:
    def test_self_match_is_zero_at_center(self):
        rng = np.random.default_rng(51)
        f = random_feature_volume(rng, 3, (6, 6, 6))
        grid = ControlGrid((4, 4, 4))
        space = DisplacementSpace(0.3, steps=5)
        cost = dissimilarity_tensor(f, f, grid, space)
        center = tuple(s // 2 for s in space.steps)
        zero_slice = cost.values[(slice(None),) * 3 + center]
        assert np.allclose(zero_slice, 0.0, atol=1e-14)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(52)
        fa = random_feature_volume(rng, 3, (4, 4, 4))
        fb = random_feature_volume(rng, 4, (4, 4, 4))
        with pytest.raises(ValueError):
            dissimilarity_tensor(fa, fb, ControlGrid(2), DisplacementSpace(0.2, 3))

    def test_two_point_grid_matches_quadruple_loop(self):
        # 2x1x1 control points, 3^3 displacements, 1 channel: 54 entries.
        rng = np.random.default_rng(53)
        f_fix = random_feature_volume(rng, 1, (5, 4, 4))
        f_mov = random_feature_volume(rng, 1, (5, 4, 4))
        grid = ControlGrid((2, 1, 1))
        space = DisplacementSpace(0.25, steps=3)
        cost = dissimilarity_tensor(f_fix, f_mov, grid, space)
        assert cost.values.shape == (2, 1, 1, 3, 3, 3)
        ref = naive_dissimilarity(
            f_fix.data, f_mov.data, f_fix.origin, f_fix.step,
            f_mov.origin, f_mov.step,
            [grid.axis_coords(a) for a in range(3)],
            [space.axis_offsets(a) for a in range(3)])
        assert np.allclose(cost.values, ref, atol=1e-6)

    def test_random_cases_match_bruteforce(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            counts = tuple(rng.integers(3, 7, size=3))
            channels = int(rng.integers(1, 4))
            f_fix = random_feature_volume(rng, channels, counts)
            f_mov = random_feature_volume(rng, channels, counts)
            gc = tuple(rng.integers(1, 4, size=3))
            grid = ControlGrid(gc)
            space = DisplacementSpace(float(rng.uniform(0.1, 0.5)), steps=3)
            cost = dissimilarity_tensor(f_fix, f_mov, grid, space)
            ref = naive_dissimilarity(
                f_fix.data, f_mov.data, f_fix.origin, f_fix.step,
                f_mov.origin, f_mov.step,
                [grid.axis_coords(a) for a in range(3)],
                [space.axis_offsets(a) for a in range(3)])
            assert np.allclose(cost.values, ref, atol=1e-6)

    def test_translation_recovers_offset(self):
        # Moving volume is the fixed volume shifted by 2 voxels along the
        # last axis; with N=16 that is a normalized offset of 0.25, which
        # lies in L for q=0.25, steps=3.  The argmin should pick it at
        # every control point whose stencil stays in-bounds.
        rng = np.random.default_rng(55)
        n = 16
        base = rng.normal(size=(n, n, n))
        shifted = np.roll(base, 2, axis=2)
        f_fix = extract_intensity_gradient(Volume3D(base), stride=1)
        f_mov = extract_intensity_gradient(Volume3D(shifted), stride=1)
        grid = ControlGrid((4, 4, 4))
        space = DisplacementSpace(0.25, steps=3)
        cost = dissimilarity_tensor(f_fix, f_mov, grid, space)
        flat = cost.values.reshape(4, 4, 4, -1)
        offs = space.offsets().reshape(-1, 3)
        amin = offs[np.argmin(flat, axis=-1)]
        # Interior control points (the roll wraps at the border).
        interior = amin[1:-1, 1:-1, 1:-1]
        # moving[i] = fixed[i-2]: sampling moving at k + d matches fixed(k)
        # when d is 2 voxels forward, i.e. +0.25 normalized.
        want = np.array([0.0, 0.0, 0.25])
        assert np.allclose(interior, want)

    def test_swap_symmetry(self):
        # cost_AB(k, d) == cost_BA(k + d, -d) whenever k + d is itself a
        # control point; arrange spacings so offsets step exactly one
        # control cell.
        rng = np.random.default_rng(56)
        fa = random_feature_volume(rng, 2, (6, 6, 6))
        fb = random_feature_volume(rng, 2, (6, 6, 6))
        grid = ControlGrid((4, 4, 4))
        space = DisplacementSpace(0.5, steps=3)    # offsets -0.5, 0, +0.5
        ab = dissimilarity_tensor(fa, fb, grid, space).values
        ba = dissimilarity_tensor(fb, fa, grid, space).values
        for k in np.ndindex(4, 4, 4):
            for s in np.ndindex(3, 3, 3):
                kd = tuple(k[a] + (s[a] - 1) for a in range(3))
                if all(0 <= kd[a] < 4 for a in range(3)):
                    neg = tuple(2 - s[a] for a in range(3))
                    assert ab[k + s] == pytest.approx(ba[kd + neg], abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(57)
        fa = random_feature_volume(rng, 2, (5, 5, 5))
        fb = random_feature_volume(rng, 2, (5, 5, 5))
        grid = ControlGrid(3)
        space = DisplacementSpace(0.3, steps=3)
        v1 = dissimilarity_tensor(fa, fb, grid, space).values
        v2 = dissimilarity_tensor(fa, fb, grid, space).values
        assert v1.tobytes() == v2.tobytes()


class TestFlopEstimate:
    def test_reference_scale_budget(self):
        grid = ControlGrid(16)
        space = DisplacementSpace(0.4, steps=15)
        flops = flop_estimate(grid, space, 16)
        assert flops == 3 * 4096 * 3375 * 16
        assert flops < 2e9

    def test_single_point(self):
        flops = flop_estimate(ControlGrid(1), DisplacementSpace(0.4, 15), 16)
        assert flops == 3 * 3375 * 16

    def test_medium_case(self):
        flops = flop_estimate(ControlGrid(16), DisplacementSpace(0.4, 9), 4)
        assert flops == 3 * 4096 * 729 * 4
        assert flops == pytest.approx(3.6e7, rel=0.01)
