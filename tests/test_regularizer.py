"""Cost-tensor smoothing: pooled min-convolution, mean-field averaging,
the pool matrices and the products that apply them, and the exact
parabola envelope (a test oracle) the pooling approximates."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from densereg.correlation import CostTensor6D, dissimilarity_tensor
from densereg.features import extract_intensity_gradient
from densereg.geometry import DisplacementSpace, Volume3D
from densereg.regularizer import (
    PRODUCT_MACS,
    RegularizerParams,
    _column_split,
    _pool_matrix,
    mean_field_step,
    min_convolution,
    regularize,
)
from oracles import (exact_lower_envelope, lower_envelope_3d,
                     lower_envelope_rows, naive_avg_pool,
                     naive_lower_envelope, naive_min_pool, offset_grid)


def tensor_on(steps, values):
    space = DisplacementSpace(0.4, steps=steps)
    return CostTensor6D(values, space)


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

    @pytest.mark.parametrize("kwargs", [
        {"iterations": 1.5}, {"iterations": True}, {"spatial_kernel": 3.0},
        {"spatial_kernel": 2.5}])
    def test_integer_settings_reject_non_integers(self, kwargs):
        # Caught at construction, not as a TypeError inside regularize,
        # which the command line does not map to an exit code.
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            RegularizerParams(**kwargs)

    def test_iterations_nonnegative(self):
        with pytest.raises(ValueError):
            RegularizerParams(iterations=-1)


class TestMinConvolution:
    def test_constant_tensor_unchanged(self):
        t = tensor_on((5, 5, 5), np.full((2, 2, 2, 5, 5, 5), 3.25))
        out = min_convolution(t.values)
        assert np.allclose(out, 3.25, atol=1e-12)

    def test_hand_example_1d(self):
        # Single control point, displacements along one axis only:
        # [5,0,5,5,5] -> min-pool k=3 -> [0,0,0,5,5]
        #             -> avg k=3 -> [0, 0, 5/3, 10/3, 5]
        #             -> avg k=3 -> [0, 5/9, 5/3, 10/3, 40/9]
        vals = np.array([5.0, 0.0, 5.0, 5.0, 5.0]).reshape(1, 1, 1, 5, 1, 1)
        t = tensor_on((5, 1, 1), vals)
        out = min_convolution(t.values).ravel()
        want = np.array([0.0, 5.0 / 9.0, 5.0 / 3.0, 10.0 / 3.0, 40.0 / 9.0])
        assert np.allclose(out, want, atol=1e-12)

    def test_matches_bruteforce_pooling(self):
        rng = np.random.default_rng(61)
        vals = rng.uniform(0.0, 2.0, size=(2, 1, 2, 5, 5, 5))
        t = tensor_on((5, 5, 5), vals)
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
        t = tensor_on((5, 5, 5), vals)
        out = min_convolution(t.values)
        assert np.allclose(out, vals, atol=1e-12)

    def test_extent_narrower_than_kernel_pools_what_fits(self):
        # On extent 2 the widest odd window that fits is 1, so the 3-wide
        # pools leave those axes alone and pool the 3-long one.
        vals = np.arange(12.0).reshape(1, 1, 1, 3, 2, 2)
        out = min_convolution(vals)
        ref = naive_avg_pool(naive_avg_pool(naive_min_pool(
            vals, 3, axes=(3,)), 3, axes=(3,)), 3, axes=(3,))
        assert np.allclose(out, ref, atol=1e-12)

    def test_degenerate_axes_pass_through(self):
        # Extent-1 displacement axes have nothing to pool over.
        vals = np.array([5.0, 0.0, 5.0, 5.0, 5.0]).reshape(1, 1, 1, 5, 1, 1)
        t = tensor_on((5, 1, 1), vals)
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

    def test_rows_at_once_match_the_row_oracles(self):
        """The broadcast envelope that the audits run equals the quadratic
        definition bit for bit, and the linear-time algorithm, on random
        rows with +inf entries (no parabola) and one all-+inf row."""
        rng = np.random.default_rng(66)
        rows = rng.uniform(0.0, 3.0, size=(40, 15))
        rows[rng.uniform(size=rows.shape) < 0.2] = np.inf
        rows[-1] = np.inf
        for a in (0.0075, 0.1, 1.5):
            got = lower_envelope_rows(rows.T, a, axis=0).T
            for row, out in zip(rows, got):
                assert np.array_equal(out, naive_lower_envelope(row, a))
                assert np.array_equal(out, exact_lower_envelope(row, a))

    def test_curvature_must_be_positive(self):
        with pytest.raises(ValueError):
            exact_lower_envelope(np.zeros(5), 0.0)

    def test_separable_3d(self):
        rng = np.random.default_rng(65)
        vals = rng.uniform(0.0, 1.0, size=(1, 1, 1, 5, 5, 5))
        t = tensor_on((5, 5, 5), vals)
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
        t = tensor_on((3, 3, 3), vals)
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
        t = tensor_on((3, 3, 3), vals)
        out = mean_field_step(t.values, 3)
        assert np.allclose(out.mean(axis=(0, 1, 2)), vals.mean(axis=(0, 1, 2)),
                           atol=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(69)
        vals = rng.uniform(0.0, 1.0, size=(4, 4, 4, 3, 1, 1))
        t = tensor_on((3, 1, 1), vals)
        out = mean_field_step(t.values, 3)
        ref = naive_avg_pool(vals, 3, axes=(0, 1, 2))
        assert np.allclose(out, ref, atol=1e-10)

    def test_grid_narrower_than_kernel_pools_what_fits(self):
        # A 4-point axis takes 3 of a 5-wide kernel, a 6-point one all 5.
        rng = np.random.default_rng(71)
        vals = rng.uniform(0.0, 1.0, size=(4, 6, 2, 3, 1, 1))
        out = mean_field_step(vals, 5)
        ref = naive_avg_pool(naive_avg_pool(vals, 3, axes=(0,)), 5,
                             axes=(1,))
        assert np.allclose(out, ref, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 9)] * 3 + [st.integers(1, 3)]),
           kernel=st.integers(0, 5).map(lambda k: 2 * k + 1),
           seed=st.integers(0, 2 ** 16))
    def test_window_is_the_kernel_narrowed_to_each_axis(self, shape, kernel,
                                                        seed):
        vals = np.random.default_rng(seed).uniform(0.0, 1.0,
                                                   size=shape + (2, 1))
        size = [min(kernel, n - 1 + n % 2) for n in shape[:3]] + [1, 1, 1]
        ref = ndimage.uniform_filter(vals, size=size, mode="nearest")
        assert np.allclose(mean_field_step(vals, kernel),
                           np.maximum(ref, 0.0), rtol=0.0, atol=1e-12)

    def test_single_point_grid_passes_through(self):
        rng = np.random.default_rng(70)
        vals = rng.uniform(0.0, 1.0, size=(1, 1, 1, 3, 3, 3))
        t = tensor_on((3, 3, 3), vals)
        out = mean_field_step(t.values, 3)
        assert np.array_equal(out, vals)


class TestRegularize:
    def test_constant_unit_scale(self):
        vals = np.full((3, 3, 3, 3, 3, 3), 1.75)
        t = tensor_on((3, 3, 3), vals)
        out = regularize(t, RegularizerParams(output_scale=1.0, iterations=2,
                                              spatial_kernel=3))
        assert np.allclose(out.values, 1.75, atol=1e-12)

    def test_zero_iterations_identity(self):
        rng = np.random.default_rng(71)
        vals = rng.uniform(0.0, 1.0, size=(3, 3, 3, 3, 3, 3))
        t = tensor_on((3, 3, 3), vals)
        out = regularize(t, RegularizerParams(output_scale=1.0, iterations=0))
        assert out.values.tobytes() == vals.tobytes()

    def test_zero_iterations_applies_output_scale(self):
        vals = np.full((1, 1, 1, 3, 3, 3), 2.0)
        t = tensor_on((3, 3, 3), vals)
        out = regularize(t, RegularizerParams(output_scale=0.625,
                                              iterations=0))
        assert np.array_equal(out.values, np.full(vals.shape, 1.25))

    def test_argmin_stable_for_separated_minimum(self):
        vals = np.full((1, 1, 1, 7, 7, 7), 10.0)
        vals[0, 0, 0, 3, 3, 3] = 0.0
        t = tensor_on((7, 7, 7), vals)
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
        grid = (6, 6, 6)
        space = DisplacementSpace(0.5, steps=5)
        cost = dissimilarity_tensor(ff, fm, grid, space)

        def argmin_tv(c):
            flat = c.values.reshape(c.counts + (-1,))
            offs = offset_grid(c.space).reshape(-1, 3)
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
    def test_audit_curvature_is_the_best_fit(self):
        # test_acceptance.py audits the pooled min-convolution against the
        # exact envelope of curvature 0.0075 per squared bin.  Over the
        # audit's 100 seeded uniform [0, 1] cost rows of shape 15^3, that
        # curvature fits the pooling better than its neighbours on the
        # curvature sweep: RMS 0.01527 at 0.006, 0.01399 at 0.0075 and
        # 0.01467 at 0.009.
        space = DisplacementSpace(0.4, steps=15)
        curvatures = (0.006, 0.0075, 0.009)
        sq = dict.fromkeys(curvatures, 0.0)
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            vals = rng.uniform(0.0, 1.0, size=(1, 1, 1, 15, 15, 15))
            t = CostTensor6D(vals, space)
            pooled = min_convolution(vals)
            for c in curvatures:
                d = pooled - lower_envelope_3d(t, c).values
                sq[c] += float(np.sum(d * d))
        rms = {c: np.sqrt(v / (100 * 15 ** 3)) for c, v in sq.items()}
        assert rms[0.0075] == pytest.approx(0.01399, abs=5e-6)
        assert rms[0.0075] < min(rms[0.006], rms[0.009]), rms


# OpenBLAS runs a product of this many multiply-adds or more on threads of
# its own.
OPENBLAS_THREADING_MACS = 1 << 18


def recorded_products(stage):
    """The shapes of the two operands of every ``np.matmul`` call that
    ``stage()`` makes."""
    calls, matmul = [], np.matmul

    def spy(a, b, **kwargs):
        calls.append((a.shape, b.shape))
        return matmul(a, b, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "matmul", spy)
        stage()
    return calls


class TestPoolMatrix:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40),
           size=st.integers(0, 40).map(lambda k: 2 * k + 1),
           power=st.sampled_from((1, 2)))
    def test_columns_are_the_uniform_filter_of_unit_vectors(self, n, size,
                                                            power):
        """Column ``j`` is ``power`` passes of ``uniform_filter1d`` over
        the unit vector ``e_j``, with replicate padding, and no entry is
        negative."""
        got = _pool_matrix(n, size, power, np.dtype(np.float64))
        want = np.eye(n)
        for _ in range(power):
            want = ndimage.uniform_filter1d(want, size, axis=0,
                                            mode="nearest")
        assert np.abs(got - want).max() <= 1e-15
        assert (got >= 0.0).all()
        assert not got.flags.writeable

    def test_stored_in_the_tensor_dtype(self):
        wide = _pool_matrix(15, 3, 2, np.dtype(np.float64))
        narrow = _pool_matrix(15, 3, 2, np.dtype(np.float32))
        assert narrow.dtype == np.float32
        assert narrow.tobytes() == wide.astype(np.float32).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1, 1, 1), (1, 5, 1, 1, 3, 1),
                                       (4, 1, 3, 5, 1, 1)])
    def test_extent_one_issues_no_product(self, shape):
        vals = np.random.default_rng(3).uniform(size=shape).astype(np.float32)
        calls = recorded_products(lambda: (
            min_convolution(vals, workers=1),
            mean_field_step(vals, 3, workers=1)))
        assert {a[0] for a, _ in calls} == {n for n in shape if n > 2}


class TestProducts:
    """Every product stays below the size at which OpenBLAS starts threads
    of its own, so the workers are the only threads, and a product of two
    or more columns is never cut into a one-column product, which numpy
    would hand to gemv."""

    @pytest.mark.parametrize("n", [3, 5, 8, 9, 15, 16, 32])
    def test_column_split(self, n):
        for cols in list(range(1, 3000)) + [2 ** 16 + 1, 230400]:
            split = _column_split(n, cols)
            assert sum(count * width for count, width in split) == cols
            widths = [width for _, width in split]
            assert max(widths) - min(widths) <= 1
            assert min(widths) >= min(cols, 2)
            assert n * n * max(widths) <= PRODUCT_MACS

    @pytest.mark.parametrize("grid", [8, 16, 32])
    @pytest.mark.parametrize("steps", [9, 15])
    def test_within_budget_at_the_reference_shapes(self, grid, steps):
        """One control plane of a ``grid``³ x ``steps``³ tensor through
        the min-convolution and one displacement plane through the mean
        field, with every product recorded: ``n * n`` times its columns
        stays within the budget."""
        rng = np.random.default_rng(grid + steps)
        control = rng.uniform(size=(1, grid, grid) + (steps,) * 3)
        bins = rng.uniform(size=(grid,) * 3 + (1, steps, steps))
        calls = recorded_products(lambda: (
            min_convolution(control.astype(np.float32), workers=1),
            mean_field_step(bins.astype(np.float32), 5, workers=1)))
        assert {a[0] for a, _ in calls} == {grid, steps}
        for (n, _), operand in calls:
            macs = n * n * operand[-1]
            assert macs <= PRODUCT_MACS < OPENBLAS_THREADING_MACS
            assert operand[-1] >= 2


class TestBlasThreads:
    def test_bytes_do_not_depend_on_blas_threads(self):
        """The same float32 regularization in fresh interpreters with one
        and with two OpenBLAS threads, on one and two workers: the same
        bytes every time."""
        code = "\n".join([
            "import hashlib",
            "import numpy as np",
            "from densereg.correlation import CostTensor6D",
            "from densereg.geometry import DisplacementSpace",
            "from densereg.regularizer import RegularizerParams, regularize",
            "rng = np.random.default_rng(5)",
            "vals = rng.uniform(0, 2, (6, 7, 8, 15, 15, 15)).astype('f4')",
            "cost = CostTensor6D(vals, DisplacementSpace(0.4, 15))",
            "for w in (1, 2):",
            "    out = regularize(cost, RegularizerParams(), workers=w)",
            "    print(hashlib.sha256(out.values.tobytes()).hexdigest())",
        ])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests += proc.stdout.split()
        assert len(digests) == 4 and len(set(digests)) == 1
