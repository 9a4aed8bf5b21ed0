"""The 6D dissimilarity tensor against brute-force references."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densereg import parallel
from densereg.correlation import (CostTensor6D, dissimilarity_tensor,
                                  flop_estimate, map_displaced)
from densereg.features import FeatureVolume, extract_intensity_gradient
from densereg.geometry import (DisplacementSpace, Volume3D, axis_centers,
                               normalized_to_index, sample_separable)
from oracles import naive_dissimilarity, offset_grid, rows_last_sample


def random_feature_volume(rng, channels, counts):
    data = rng.normal(size=(channels,) + tuple(counts))
    # Grid frame of a stride-1 extraction from a matching volume.
    origin = tuple(-1.0 + 1.0 / n for n in counts)
    step = tuple(2.0 / n for n in counts)
    return FeatureVolume(data, origin, step)


class TestCostTensorType:
    def test_shape_checked(self):
        space = DisplacementSpace(0.2, steps=3)
        with pytest.raises(ValueError):
            CostTensor6D(np.zeros((2, 2, 2, 3, 3, 2)), space)

    def test_negative_rejected(self):
        space = DisplacementSpace(0.2, steps=3)
        vals = np.zeros((1, 1, 1, 3, 3, 3))
        vals[0, 0, 0, 1, 1, 1] = -1e-3
        with pytest.raises(ValueError):
            CostTensor6D(vals, space)

    def test_nonfinite_rejected(self):
        space = DisplacementSpace(0.2, steps=3)
        vals = np.zeros((1, 1, 1, 3, 3, 3))
        vals[0, 0, 0, 0, 0, 0] = np.nan
        with pytest.raises(ArithmeticError, match="finite"):
            CostTensor6D(vals, space)


class TestDissimilarity:
    def test_self_match_is_zero_at_center(self):
        rng = np.random.default_rng(51)
        f = random_feature_volume(rng, 3, (6, 6, 6))
        grid = (4, 4, 4)
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
            dissimilarity_tensor(fa, fb, (2, 2, 2), DisplacementSpace(0.2, 3))

    def test_two_point_grid_matches_quadruple_loop(self):
        # 2x1x1 control points, 3^3 displacements, 1 channel: 54 entries.
        rng = np.random.default_rng(53)
        f_fix = random_feature_volume(rng, 1, (5, 4, 4))
        f_mov = random_feature_volume(rng, 1, (5, 4, 4))
        grid = (2, 1, 1)
        space = DisplacementSpace(0.25, steps=3)
        cost = dissimilarity_tensor(f_fix, f_mov, grid, space)
        assert cost.values.shape == (2, 1, 1, 3, 3, 3)
        ref = naive_dissimilarity(
            f_fix.data, f_mov.data, f_fix.origin, f_fix.step,
            f_mov.origin, f_mov.step,
            [axis_centers(n) for n in grid],
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
            space = DisplacementSpace(float(rng.uniform(0.1, 0.5)), steps=3)
            cost = dissimilarity_tensor(f_fix, f_mov, gc, space)
            ref = naive_dissimilarity(
                f_fix.data, f_mov.data, f_fix.origin, f_fix.step,
                f_mov.origin, f_mov.step,
                [axis_centers(n) for n in gc],
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
        grid = (4, 4, 4)
        space = DisplacementSpace(0.25, steps=3)
        cost = dissimilarity_tensor(f_fix, f_mov, grid, space)
        flat = cost.values.reshape(4, 4, 4, -1)
        offs = offset_grid(space).reshape(-1, 3)
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
        grid = (4, 4, 4)
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
        grid = (3, 3, 3)
        space = DisplacementSpace(0.3, steps=3)
        v1 = dissimilarity_tensor(fa, fb, grid, space).values
        v2 = dissimilarity_tensor(fa, fb, grid, space).values
        assert v1.tobytes() == v2.tobytes()


class TestMapDisplaced:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16),
           dims=st.tuples(*[st.integers(1, 7)] * 3),
           arrays=st.integers(1, 2),
           grid_counts=st.tuples(*[st.integers(1, 5)] * 3),
           disp_steps=st.tuples(*[st.sampled_from((1, 3, 5))] * 3),
           rows=st.sampled_from((None, 0, 1, 2, 3)),
           workers=st.sampled_from((1, 2)))
    def test_every_row_once_and_samples_separable(
            self, seed, dims, arrays, grid_counts, disp_steps, rows,
            workers):
        data = np.random.default_rng(seed).normal(size=(arrays,) + dims)
        space = DisplacementSpace(0.3, disp_steps)
        k1s, k2, k3 = grid_counts
        s1, s2, s3 = disp_steps
        fracs = [normalized_to_index(np.add.outer(
            axis_centers(grid_counts[a]), space.axis_offsets(a)).ravel(), dims[a])
            for a in range(3)]
        visits = []

        def block(k1, blk, sample, spare):
            n = blk.stop - blk.start
            visits.extend((k1, r) for r in range(blk.start, blk.stop))
            assert spare.shape == (s1, n, s2, k3, s3)
            assert spare.flags.c_contiguous
            for c in range(arrays):
                want = rows_last_sample(data[c], [
                    fracs[0][k1 * s1:(k1 + 1) * s1],
                    fracs[1][blk.start * s2:blk.stop * s2], fracs[2]])
                got = sample(c)
                assert got.shape == (s1, n, s2, k3, s3)
                assert got.tobytes() == want.reshape(got.shape).tobytes()

        like = np.empty(grid_counts + space.steps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "MIN_THREADED_PLANE_BYTES", 0)
            if rows is not None:
                # A budget of 0 rows still gives one row per block.
                mp.setattr(parallel, "BLOCK_BYTES", max(
                    1, rows * 4 * k3 * s1 * s2 * s3))
            map_displaced(list(data), lambda a, x: normalized_to_index(
                x, dims[a]), [axis_centers(n) for n in grid_counts], space,
                block, like, workers)
        assert sorted(visits) == [(k1, r) for k1 in range(k1s)
                                  for r in range(k2)]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16),
           dims=st.tuples(*[st.integers(1, 7)] * 3),
           grid_counts=st.tuples(*[st.integers(1, 5)] * 3),
           disp_steps=st.tuples(*[st.sampled_from((1, 3, 5))] * 3),
           data=st.data())
    def test_a_run_of_centers_samples_those_points(
            self, seed, dims, grid_counts, disp_steps, data):
        """Walking a run of each axis's control positions gives the
        bytes the whole grid's walk gives at those points."""
        values = np.random.default_rng(seed).normal(size=dims)
        space = DisplacementSpace(0.3, disp_steps)
        runs = []
        for n in grid_counts:
            lo = data.draw(st.integers(0, n - 1))
            runs.append(slice(lo, data.draw(st.integers(lo + 1, n))))

        def walk(centers):
            out = np.empty([len(c) for c in centers] + list(disp_steps),
                           np.float32)

            def block(k1, blk, sample, spare):
                out[k1, blk] = sample(0).transpose(1, 3, 0, 2, 4)

            map_displaced([values], lambda a, x: normalized_to_index(
                x, dims[a]), centers, space, block, out)
            return out

        whole = walk([axis_centers(n) for n in grid_counts])
        part = walk([axis_centers(n)[r] for n, r in zip(grid_counts, runs)])
        assert part.tobytes() == whole[tuple(runs)].tobytes()

    # map_displaced's float32 samples against sample_separable's float64
    # ones: their largest difference in float32 epsilons of max|data|.
    # Rounding the axis-0/2 samples, the two weights, the two products
    # and their sum to float32 costs at most 4 half-epsilons.
    FLOAT32_EPS = 2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16),
           dims=st.tuples(*[st.integers(1, 7)] * 3),
           grid_counts=st.tuples(*[st.integers(1, 5)] * 3),
           disp_steps=st.tuples(*[st.sampled_from((1, 3, 5))] * 3),
           q=st.floats(0.05, 0.95),
           scale=st.sampled_from((1e-3, 1.0, 1e4)))
    @example(seed=1, dims=(1, 1, 1), grid_counts=(2, 3, 2),
             disp_steps=(3, 3, 3), q=0.5, scale=1.0)
    @example(seed=2, dims=(4, 1, 5), grid_counts=(3, 2, 4),
             disp_steps=(1, 1, 1), q=0.3, scale=1.0)
    def test_float32_samples_within_rounding_of_float64(
            self, seed, dims, grid_counts, disp_steps, q, scale):
        data = np.random.default_rng(seed).normal(size=dims) * scale
        space = DisplacementSpace(q, disp_steps)
        s1, s2, _ = disp_steps
        fracs = [normalized_to_index(np.add.outer(
            axis_centers(grid_counts[a]), space.axis_offsets(a)).ravel(), dims[a])
            for a in range(3)]
        bound = self.FLOAT32_EPS * np.finfo(np.float32).eps * np.abs(data).max()
        errors = []

        def block(k1, blk, sample, spare):
            want = sample_separable(data, [
                fracs[0][k1 * s1:(k1 + 1) * s1],
                fracs[1][blk.start * s2:blk.stop * s2], fracs[2]])
            got = sample(0)
            assert got.dtype == np.float32
            errors.append(np.abs(got - want.reshape(got.shape)).max())

        map_displaced([data], lambda a, x: normalized_to_index(x, dims[a]),
                      [axis_centers(n) for n in grid_counts], space, block,
                      np.empty(grid_counts))
        assert max(errors) <= bound


class TestFlopEstimate:
    def test_reference_scale_budget(self):
        grid = (16, 16, 16)
        space = DisplacementSpace(0.4, steps=15)
        flops = flop_estimate(grid, space, 16)
        assert flops == 3 * 4096 * 3375 * 16
        assert flops < 2e9

    def test_one_int_means_all_three_axes(self):
        space = DisplacementSpace(0.4, steps=15)
        assert flop_estimate(16, space, 16) == flop_estimate((16, 16, 16), space, 16)

    @pytest.mark.parametrize("counts", [16.5, True, 0, (16, 16), (16, 16, 16, 16)])
    def test_anything_else_rejected(self, counts):
        # np.prod(16.5) or of two counts would be a wrong estimate, not an error.
        with pytest.raises(ValueError, match="counts"):
            flop_estimate(counts, DisplacementSpace(0.4, 15), 16)

    def test_single_point(self):
        flops = flop_estimate((1, 1, 1), DisplacementSpace(0.4, 15), 16)
        assert flops == 3 * 3375 * 16

    def test_medium_case(self):
        flops = flop_estimate((16, 16, 16), DisplacementSpace(0.4, 9), 4)
        assert flops == 3 * 4096 * 729 * 4
        assert flops == pytest.approx(3.6e7, rel=0.01)
